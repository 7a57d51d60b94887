"""Valuing datasets by how much they improve held-out predictions.

A coin-flip example small enough to follow by hand. Two clinics pool binary
outcomes under an agreed Beta-Bernoulli model; the mediator scores each
dataset by the log density it lends to a held-out validation set. The same
walk-through also shows why the classic validation-free valuations
(cardinality, volume, information gain, divergence from the prior) invite
manipulation: duplicating rows inflates all of them, while the log-score
sees straight through it on average.
"""

import math

import numpy as np

from truthval import (
    BetaBernoulliModel,
    Dataset,
    DvfSpec,
    GpHyper,
    binary_dataset,
    concat_datasets,
    dvf_value,
    log_predictive,
    posterior_params,
)

model = BetaBernoulliModel(alpha=1.0, beta=1.0)

clinic_a = binary_dataset([1, 1, 0, 1, 0, 1])
clinic_b = binary_dataset([0, 0, 1, 0])
validation = binary_dataset([1, 0, 1, 1])

print("Posterior after observing clinic A:", end=" ")
# The posterior holds nu pseudo-observations with success rate sigma: a = nu * sigma.
post = posterior_params(model, clinic_a)
a = post.nu0 * post.sigma0[0]
print(f"Beta({a:g}, {post.nu0 - a:g})")

print(f"log p(validation)             = {log_predictive(model, binary_dataset([]), validation):+.4f}")
print(f"log p(validation | clinic A)  = {log_predictive(model, clinic_a, validation):+.4f}")
print(f"log p(validation | clinic B)  = {log_predictive(model, clinic_b, validation):+.4f}")

spec = DvfSpec("log-score", model=model, validation=validation)
print("\nLog-score values (improvement over the prior, in nats):")
for name, data in [
    ("clinic A", clinic_a),
    ("clinic B", clinic_b),
    ("A and B pooled", concat_datasets([clinic_a, clinic_b])),
    ("empty submission", binary_dataset([])),
]:
    print(f"  v({name:16s}) = {dvf_value(spec, data):+.4f}")

print("\nNow duplicate clinic A's rows three times and revalue:")
tripled = concat_datasets([clinic_a] * 3)
print(f"  log-score:  v(A) = {dvf_value(spec, clinic_a):+.4f}   v(3xA) = {dvf_value(spec, tripled):+.4f}")

baselines = {
    "cardinality": DvfSpec("cardinality"),
    "kl-from-prior": DvfSpec("kl-from-prior", model=model),
}
for name, base_spec in baselines.items():
    print(
        f"  {name:13s} v(A) = {dvf_value(base_spec, clinic_a):7.4f}  "
        f"v(3xA) = {dvf_value(base_spec, tripled):7.4f}   <- inflated"
    )

# The input-geometry baselines do the same on regression data.
rng = np.random.default_rng(0)
reg = Dataset(rng.uniform(size=(8, 1)), rng.normal(size=8))
volume = DvfSpec("volume")
info = DvfSpec("info-gain", model=GpHyper(noise_var=0.5))
doubled = concat_datasets([reg, reg])
print(f"  volume        v(X) = {dvf_value(volume, reg):7.4f}  v(2xX) = {dvf_value(volume, doubled):7.4f}"
      f"   (exactly sqrt(2) = {math.sqrt(2):.4f} times larger)")
print(f"  info-gain     v(X) = {dvf_value(info, reg):7.4f}  v(2xX) = {dvf_value(info, doubled):7.4f}")

print("\nThe log-score is anchored at zero for empty data and cannot be")
print("pumped by resubmitting the same information; the baselines can.")
