"""Dense GP references on the raw rows, written out independent of truthval.gp.

Every repeated row stays in its own row, and the training kernel carries
noise_var + jitter on its diagonal; validation outputs are observed with
noise_var. The library collapses repeated rows and appends blocks, so these
check it from outside.
"""

import numpy as np
from scipy.stats import multivariate_normal, norm


def se_kernel(xa, model, xb=None):
    """The SE-ARD kernel K(xa, xb), K(xa, xa) without ``xb``."""
    ls = np.broadcast_to(model.lengthscales, (xa.shape[1],))
    xb = xa if xb is None else xb
    sq = (((xa[:, None, :] - xb[None, :, :]) / ls) ** 2).sum(axis=-1)
    return model.signal_var * np.exp(-0.5 * sq)


def gp_predict_raw_rows(model, data, test, test_noise=0.0):
    """Posterior mean and covariance at ``test`` given the rows of ``data``,
    by dense solves with K + (noise_var + jitter) I: of the latent function,
    or of outputs observed with ``test_noise`` added to the prior's diagonal
    before the update is subtracted."""
    x = data.inputs
    k_train = se_kernel(x, model) + (model.noise_var + model.jitter) * np.eye(len(data))
    cross = se_kernel(x, model, test)
    mean = cross.T @ np.linalg.solve(k_train, data.outputs)
    prior = se_kernel(test, model) + test_noise * np.eye(len(test))
    return mean, prior - cross.T @ np.linalg.solve(k_train, cross)


def gp_log_score_raw_rows(model, kind, validation, data):
    """GP log score log p(T | D) - log p(T), or for ``mean-log-score`` the mean
    of its per-point terms, of the raw rows of ``data``."""
    if len(data) == 0:
        return 0.0
    t, y = validation.inputs, validation.outputs
    mean, cov = gp_predict_raw_rows(model, data, t, model.noise_var)
    prior = se_kernel(t, model) + model.noise_var * np.eye(len(t))
    if kind == "log-score":
        return multivariate_normal.logpdf(y, mean, cov) - multivariate_normal.logpdf(
            y, np.zeros(len(t)), prior
        )
    sd, prior_sd = np.sqrt(np.diag(cov)), np.sqrt(np.diag(prior))
    return np.mean(norm.logpdf(y, mean, sd) - norm.logpdf(y, 0.0, prior_sd))


def gp_info_gain_raw_rows(model, data):
    """GP information gain 1/2 log det(I + K / noise_var) of the raw rows of
    ``data`` by a dense slogdet."""
    if len(data) == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(np.eye(len(data)) + se_kernel(data.inputs, model) / model.noise_var)
    assert sign > 0
    return 0.5 * logdet
