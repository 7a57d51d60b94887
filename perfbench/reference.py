"""Reference computations the benchmark checks the program's outputs against.

Everything here is written apart from ``truthval``, with numpy and scipy
only: the runner's seed derivation and row selections (rewritten from
``datagen.derive_seed``, ``experiment._repeat_subsets`` and
``datagen.split_train_validation``), the SE-ARD kernel, dense Gaussian log
densities via our own Cholesky factor, the Bayesian-linear-regression
predictive, exact Shapley weights, and Beta-Bernoulli expectations in closed
form via ``betaln``.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
from scipy.special import betaln, gammaln

LOG_2PI = math.log(2.0 * math.pi)


def derive_seed(seed: int, *labels) -> int:
    """The runner's seed derivation: 8-byte blake2b of the label path."""
    digest = hashlib.blake2b(repr((int(seed),) + tuple(labels)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def repeat_subset(seed: int, repeat: int, pool_size: int, fraction: float) -> np.ndarray:
    """Validation rows scored in one repeat of a standard (non-cross) run."""
    k = math.ceil(fraction * pool_size)
    rng = np.random.default_rng(derive_seed(seed, "repeat", repeat))
    return np.sort(rng.choice(pool_size, size=k, replace=False))


def split_rows(seed: int, repeat: int, source: int, n: int, frac: float):
    """(remaining, validation) row indices of one source in one cross-game repeat."""
    perm = np.random.default_rng(derive_seed(seed, "split", repeat, source)).permutation(n)
    k = math.ceil(frac * n)
    return perm[k:], perm[:k]


def gaussian_logpdf(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, y - mean)
    return float(-0.5 * (len(y) * LOG_2PI + z @ z) - np.log(np.diag(chol)).sum())


def se_ard(xa: np.ndarray, xb: np.ndarray, lengthscales, signal_var: float) -> np.ndarray:
    diff = (xa[:, None, :] - xb[None, :, :]) / np.asarray(lengthscales, dtype=float)
    return signal_var * np.exp(-0.5 * np.einsum("ijk,ijk->ij", diff, diff))


def gp_value(train_x, train_y, val_x, val_y, lengthscales, signal_var, noise_var) -> float:
    """log N(val_y | GP posterior given train) - log N(val_y | GP prior)."""
    k_vv = se_ard(val_x, val_x, lengthscales, signal_var)
    eye = np.eye(len(val_y))
    prior = gaussian_logpdf(val_y, np.zeros(len(val_y)), k_vv + noise_var * eye)
    if len(train_y) == 0:
        return 0.0
    k_tt = se_ard(train_x, train_x, lengthscales, signal_var) + noise_var * np.eye(len(train_y))
    k_tv = se_ard(train_x, val_x, lengthscales, signal_var)
    chol = np.linalg.cholesky(k_tt)
    a = np.linalg.solve(chol, k_tv)
    mean = a.T @ np.linalg.solve(chol, train_y)
    cov = k_vv - a.T @ a + noise_var * eye
    return gaussian_logpdf(val_y, mean, cov) - prior


def linreg_value(train_x, train_y, val_x, val_y, prior_var, noise_var) -> float:
    """Dense joint predictive of Bayesian linear regression, minus the prior's."""
    d = val_x.shape[1]
    eye = np.eye(len(val_y))
    prior = gaussian_logpdf(val_y, np.zeros(len(val_y)), prior_var * val_x @ val_x.T + noise_var * eye)
    precision = np.eye(d) / prior_var + train_x.T @ train_x / noise_var
    post_cov = np.linalg.inv(precision)
    post_cov = 0.5 * (post_cov + post_cov.T)
    post_mean = post_cov @ train_x.T @ train_y / noise_var
    cov = val_x @ post_cov @ val_x.T + noise_var * eye
    return gaussian_logpdf(val_y, val_x @ post_mean, cov) - prior


def shapley(values: dict[frozenset, float], n: int) -> np.ndarray:
    """Exact Shapley values from every coalition's value (empty coalition 0)."""
    phi = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for size in range(n):
            w = math.factorial(size) * math.factorial(n - 1 - size) / math.factorial(n)
            for c in itertools.combinations(others, size):
                phi[i] += w * (values[frozenset(c) | {i}] - values.get(frozenset(c), 0.0))
    return phi


def coalitions(n: int):
    for size in range(1, n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), size))


# -- Beta-Bernoulli ------------------------------------------------------------


def _log_binom(n, k):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def betabinom_logpmf(a: float, b: float, m: int) -> np.ndarray:
    """log P(k successes in m draws) for k = 0..m under a Beta(a, b) posterior."""
    k = np.arange(m + 1)
    return _log_binom(m, k) + betaln(a + k, b + m - k) - betaln(a, b)


def betabinom_kl(ab_p, ab_q, m: int) -> float:
    """KL between two beta-binomial count distributions over m draws."""
    lp = betabinom_logpmf(*ab_p, m)
    lq = betabinom_logpmf(*ab_q, m)
    return float(np.sum(np.exp(lp) * (lp - lq)))


def posterior_ab(labels, alpha: float = 1.0, beta: float = 1.0):
    s = float(np.sum(labels))
    return alpha + s, beta + len(labels) - s


def expected_semivalue_gap(
    true_labels, alt_labels, other_sizes, m: int, alpha: float = 1.0, beta: float = 1.0
) -> float:
    """Expected Shapley drop of a source that submits ``alt`` instead of its truth.

    Coalitions without the source are unchanged, so the drop is the weighted
    sum over coalitions C of the others of E[lp(T | true + C) - lp(T | alt + C)],
    where the data of C and the m validation labels are one exchangeable
    sequence under the posterior given the truth. Both log predictives depend
    on that data only through its success counts.
    """
    n = len(other_sizes) + 1
    at, bt = posterior_ab(true_labels, alpha, beta)
    aa, ba = posterior_ab(alt_labels, alpha, beta)
    sk = np.arange(m + 1)[None, :]
    gap = 0.0
    for size in range(n):
        w = math.factorial(size) * math.factorial(n - 1 - size) / math.factorial(n)
        for c in itertools.combinations(other_sizes, size):
            mc = sum(c)
            sc = np.arange(mc + 1)[:, None]
            log_joint = (
                _log_binom(mc, sc)
                + _log_binom(m, sk)
                + betaln(at + sc + sk, bt + (mc - sc) + (m - sk))
                - betaln(at, bt)
            )

            def lp(a, b):
                return betaln(a + sc + sk, b + (mc - sc) + (m - sk)) - betaln(a + sc, b + mc - sc)

            gap += w * float(np.sum(np.exp(log_joint) * (lp(at, bt) - lp(aa, ba))))
    return gap
