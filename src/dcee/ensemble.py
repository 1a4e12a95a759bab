"""Ensemble of online parameter estimators with uncertainty extraction.

Each of the N estimators runs the same gradient-descent regression on the
reward residual; because they start from random initial guesses, the
sample statistics of their predicted optima quantify how uncertain the
current belief is.  ``adapt`` consumes a real observation, ``predict``
applies the same update with the noise-free reward the current mean
parameter implies, giving the one-step-ahead belief used by the
controller.  The prediction also carries the exploration gradient in
closed form, from the same optimum-map solve; an optimum the model's map
pins adds nothing to it through the model's jacobian.  Finite
differences of the predicted spread (``dual.explore_grad``) are the
reference the closed form is tested against.

Every op takes a batch of independent ensembles: ``thetas`` of shape
(S, N, m) with one output per batch entry, ``y`` of shape (S,), and
reduces over the estimator axis only, so an entry's numbers do not
depend on what else shares the batch.  A single ensemble is the
unbatched (N, m) case with a one-element ``y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .reward import RewardModel

__all__ = [
    "Ensemble",
    "BeliefStats",
    "init_ensemble",
    "adapt",
    "stats",
    "predict",
    "mse_bound",
]


@dataclass
class Ensemble:
    """N parameter estimates with per-estimator learning rates.

    ``thetas`` has shape (N, m), or (S, N, m) for a batch of S ensembles
    that share their rates; ``rates`` has shape (N,).  Instances are
    treated as immutable (the mean is computed once per instance);
    updates return a new Ensemble.
    """

    thetas: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        self.rates = np.atleast_1d(np.asarray(self.rates, dtype=float))
        if self.thetas.shape[-2] < 1:
            raise ValueError("ensemble must hold at least one estimator")
        if self.rates.shape != (self.thetas.shape[-2],):
            raise ValueError("need one learning rate per estimator")
        if np.any(self.rates <= 0):
            raise ValueError("learning rates must be strictly positive")

    @cached_property
    def centre(self) -> np.ndarray:
        """Mean estimate over the estimators, (..., 1, m)."""
        return _mean(self.thetas, -2, keepdims=True)

    @cached_property
    def deviations(self) -> np.ndarray:
        """Each estimate minus the mean estimate, (..., N, m)."""
        return self.thetas - self.centre

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard deviation of the estimates, each (..., m).

        The same arithmetic as ``thetas.mean`` and ``thetas.std`` over the
        estimator axis.
        """
        dev = self.deviations
        return self.centre[..., 0, :], np.sqrt(_mean(dev * dev, -2))

    def with_thetas(self, thetas: np.ndarray) -> "Ensemble":
        """The same estimators at new estimates; nothing is re-checked."""
        out = object.__new__(Ensemble)
        out.thetas, out.rates = thetas, self.rates
        return out


@dataclass
class BeliefStats:
    """Sample statistics of an estimator set.

    r_mean     : (..., 1) average predicted optimum
    r_var      : (...) spread of the predicted optima (exploration term)
    r_var_grad : (..., 1) closed-form d r_var / d y_cand, set by
                 ``predict``; None from ``stats``

    The leading axes are the batch axes of the ensemble (none for one).
    """

    r_mean: np.ndarray
    r_var: np.ndarray
    r_var_grad: np.ndarray | None = None


def init_ensemble(n: int, prior_low, prior_high, rates,
                  rng: np.random.Generator) -> Ensemble:
    """Draw n estimates elementwise-uniform between the prior bounds.

    ``rates`` may be a single shared learning rate or one per estimator.
    """
    if n < 1:
        raise ValueError("ensemble size must be at least 1")
    low = np.atleast_1d(np.asarray(prior_low, dtype=float))
    high = np.atleast_1d(np.asarray(prior_high, dtype=float))
    if low.shape != high.shape:
        raise ValueError("prior bounds must have equal dimension")
    if low.size == 0:
        raise ValueError("prior bounds must be non-empty")
    if np.any(low > high):
        raise ValueError("prior_low must not exceed prior_high")
    thetas = rng.uniform(low, high, size=(n, low.size))
    rates_arr = np.asarray(rates, dtype=float)
    if rates_arr.ndim == 0:
        rates_arr = np.full(n, float(rates_arr))
    return Ensemble(thetas=thetas, rates=rates_arr)


def _outputs(ens: Ensemble, y) -> np.ndarray:
    """One scalar output per batch entry, shape thetas.shape[:-2]."""
    return np.asarray(y, dtype=float).reshape(ens.thetas.shape[:-2])


def _mean(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """``a.mean(axis)``, the same sum and division, without its call overhead."""
    return np.add.reduce(a, axis=axis, keepdims=keepdims) / a.shape[axis]


# Products of estimates with a regressor phi (..., m) are stacked matmuls
# against its column phi[..., :, None]; they give the same bits with or
# without batch axes, where an elementwise product and sum would not.

def adapt(ens: Ensemble, y_prev, j_obs, model: RewardModel) -> Ensemble:
    """Gradient-descent regression step on one reward observation per entry.

    The known offset is subtracted from the observation so the residual
    compares the unknown part of the reward only:

        theta_i' = theta_i - eta_i * phi * (phi . theta_i - (j_obs - known))
    """
    finite = np.isfinite(j_obs)
    if np.count_nonzero(finite) != finite.size:
        raise ValueError("reward observation must be finite")
    y = _outputs(ens, y_prev)
    phi = model.unknown_basis(y)
    target = np.asarray(j_obs - model.known_basis(y))[..., None, None]
    resid = ens.thetas @ phi[..., :, None] - target
    return ens.with_thetas(ens.thetas - (ens.rates[:, None] * resid) * phi[..., None, :])


def _rows(a: np.ndarray) -> np.ndarray:
    """Every estimator of every batch entry as one row, (S*N, last)."""
    return a.reshape(-1, a.shape[-1])


def _optima(thetas: np.ndarray, model: RewardModel) -> np.ndarray:
    """Map every estimator to its predicted optimum, (..., N, 1)."""
    return model.optimum_map_batch(_rows(thetas)).reshape(thetas.shape[:-1] + (1,))


def _stats_of(r: np.ndarray) -> tuple[BeliefStats, np.ndarray]:
    """Statistics of the optima r (..., N), and their deviations from the mean."""
    r_mean = _mean(r, -1, keepdims=True)
    centred = r - r_mean
    return BeliefStats(r_mean=r_mean, r_var=_mean(centred ** 2, -1)), centred


def stats(ens: Ensemble, model: RewardModel) -> BeliefStats:
    """Current belief statistics of the ensemble."""
    return _stats_of(_optima(ens.thetas, model)[..., 0])[0]


def _predicted_thetas(ens: Ensemble, phi_row: np.ndarray, phi_col: np.ndarray) -> np.ndarray:
    """One-step-ahead estimates if the next observation had regressor phi.

    The predicted reward is noise-free and evaluated with the ensemble
    mean, so the known offset cancels from the residual and each
    deviation from the mean contracts along phi.
    """
    resid = ens.thetas @ phi_col - ens.centre @ phi_col
    return ens.thetas - (ens.rates[:, None] * resid) * phi_row


def predict(ens: Ensemble, y_cand, model: RewardModel) -> BeliefStats:
    """Belief statistics after a hypothetical observation at y_cand.

    One optimum-map solve serves the statistics and the exploration
    gradient ``r_var_grad`` = d r_var / d y_cand.  The gradient follows
    the chain rule through theta_i - eta_i*phi*(phi.d_i), d_i = theta_i -
    mean, and the optimum jacobian; r_mean drops out since the r_i -
    r_mean sum to zero.  Where the model pins an optimum its jacobian is
    zero, so a pinned estimator adds nothing to the gradient.
    """
    y = _outputs(ens, y_cand)
    phi, dphi = model.unknown_basis(y), model.basis_jacobian(y)
    phi_row, phi_col = phi[..., None, :], phi[..., :, None]
    pred = _predicted_thetas(ens, phi_row, phi_col)
    rows = _rows(pred)
    optima = model.optimum_map_batch(rows)
    r = optima.reshape(pred.shape[:-1])
    out, centred = _stats_of(r)

    dev = ens.deviations
    dpred = -(ens.rates[:, None] * (dphi[..., None, :] * (dev @ phi_col)
                                    + phi_row * (dev @ dphi[..., :, None])))
    dr = np.einsum("nqm,nm->nq", model.optimum_jacobian(rows, optima), _rows(dpred))
    out.r_var_grad = 2.0 * _mean(centred * dr.reshape(r.shape), -1, keepdims=True)
    return out


def mse_bound(rate: float, regressor_bound: float, noise_var: float,
              max_A_norm: float) -> float:
    """Steady-state bound on a single estimator's mean-square error.

    ``max_A_norm`` is the largest norm of the update matrices
    I - eta * phi phi' realised along the trajectory and must lie in
    (0, 1) for the geometric series behind the bound to converge.
    """
    if not 0.0 < max_A_norm < 1.0:
        raise ValueError("max_A_norm must lie strictly inside (0, 1); "
                         "the excitation/step-size condition is violated")
    return rate ** 2 * regressor_bound ** 2 * noise_var / (1.0 - max_A_norm)
