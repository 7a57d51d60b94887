"""The README's config reference names what the schema accepts."""

import re
from pathlib import Path

import pytest

from truthval import experiment

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _paragraph(heading: str) -> str:
    """The text from ``heading`` to the next blank line, ``heading`` excluded."""
    return README.split(heading, 1)[1].lstrip("\n").split("\n\n", 1)[0]


def test_top_level_keys_table_lists_the_schema_keys():
    keys = re.findall(r"^\| `(\w+)` \|", _paragraph("Top-level keys:\n"), re.MULTILINE)
    assert keys == list(experiment._CONFIG)


def test_sources_and_validation_name_every_generator():
    names = re.findall(r'"generator":\s*"([\w-]+)"', _paragraph("Sources and validation:"))
    assert sorted(set(names)) == sorted(experiment._DATA.tables)


@pytest.mark.parametrize("key", ["weights", "post", "estimator"])
def test_top_level_keys_table_names_every_variant(key):
    section = experiment._CONFIG[key][0]
    row = re.search(rf"^\| `{key}` \|(.*)$", _paragraph("Top-level keys:\n"), re.MULTILINE)[1]
    alternatives = re.findall(rf'"{section.key}":\s*((?:"[\w-]+"\|?)+)', row)
    names = [name for names in alternatives for name in re.findall(r'"([\w-]+)"', names)]
    assert sorted(names) == sorted(section.tables)
