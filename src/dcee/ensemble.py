"""Ensemble of online parameter estimators with uncertainty extraction.

Each of the N estimators runs the same gradient-descent regression on the
reward residual; because they start from random initial guesses, the
sample statistics of their predicted optima quantify how uncertain the
current belief is.  ``adapt`` consumes a real observation, ``predict``
applies the same update with the noise-free reward the current mean
parameter implies, giving the one-step-ahead belief used by the
controller.  The prediction also carries the exploration gradient in
closed form, from the same optimum-map solve.  ``predicted_r_var``
recomputes the predicted spread alone; finite differences of it are the
reference the closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``thetas`` has shape (N, m), ``rates`` shape (N,).  Instances are
    treated as immutable; updates return a new Ensemble.
    """

    thetas: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        self.rates = np.atleast_1d(np.asarray(self.rates, dtype=float))
        if self.thetas.shape[0] < 1:
            raise ValueError("ensemble must hold at least one estimator")
        if self.rates.shape != (self.thetas.shape[0],):
            raise ValueError("need one learning rate per estimator")
        if np.any(self.rates <= 0):
            raise ValueError("learning rates must be strictly positive")

    @property
    def size(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]


@dataclass
class BeliefStats:
    """Sample statistics of an estimator set.

    r_mean     : (q,) average predicted optimum
    r_var      : scalar spread of the predicted optima (exploration term)
    r_var_grad : (1,) closed-form d r_var / d y_cand, set by ``predict``;
                 None from ``stats``
    """

    r_mean: np.ndarray
    r_var: float
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


def adapt(ens: Ensemble, y_prev, j_obs: float, model: RewardModel) -> Ensemble:
    """Gradient-descent regression step on one reward observation.

    The known offset is subtracted from the observation so the residual
    compares the unknown part of the reward only:

        theta_i' = theta_i - eta_i * phi * (phi . theta_i - (j_obs - known))
    """
    if not np.isfinite(j_obs):
        raise ValueError("reward observation must be finite")
    phi = model.unknown_basis(y_prev)
    target = j_obs - model.known_basis(y_prev)
    resid = ens.thetas @ phi - target
    thetas = ens.thetas - (ens.rates * resid)[:, None] * phi[None, :]
    return Ensemble(thetas=thetas, rates=ens.rates)


def _clamped(thetas: np.ndarray, model: RewardModel) -> np.ndarray:
    if model.theta_floor is None:
        return thetas
    return np.maximum(thetas, model.theta_floor)


def _optima(thetas: np.ndarray, model: RewardModel) -> np.ndarray:
    """Map every estimator to its predicted optimum, (N, q)."""
    r = model.optimum_map_batch(_clamped(thetas, model))
    return np.atleast_2d(np.asarray(r, dtype=float))


def _stats_of(r: np.ndarray) -> BeliefStats:
    r_mean = r.mean(axis=0)
    r_var = float(np.mean(np.sum((r - r_mean) ** 2, axis=1)))
    return BeliefStats(r_mean=r_mean, r_var=r_var)


def stats(ens: Ensemble, model: RewardModel) -> BeliefStats:
    """Current belief statistics of the ensemble."""
    return _stats_of(_optima(ens.thetas, model))


def _predicted_thetas(ens: Ensemble, y_cand, model: RewardModel) -> np.ndarray:
    """One-step-ahead estimates if the next observation happened at y_cand.

    The predicted reward is noise-free and evaluated with the ensemble
    mean, so the known offset cancels from the residual and each
    deviation from the mean contracts along the candidate regressor.
    """
    phi = model.unknown_basis(y_cand)
    target = phi @ ens.thetas.mean(axis=0)
    resid = ens.thetas @ phi - target
    return ens.thetas - (ens.rates * resid)[:, None] * phi[None, :]


def _r_var_grad(ens: Ensemble, y_cand, model: RewardModel,
                pred: np.ndarray, r: np.ndarray) -> np.ndarray:
    """d r_var / d y_cand (scalar) from the predicted estimates and optima.

    Chain rule through theta_i - eta_i*phi*(phi.d_i), d_i = theta_i - mean,
    and the optimum jacobian; r_mean drops out since the r_i - r_mean sum
    to zero.  Estimators pinned at the parameter floor contribute zero.
    """
    phi = model.unknown_basis(y_cand)
    dphi = model.basis_jacobian(y_cand)
    dev = ens.thetas - ens.thetas.mean(axis=0)
    dpred = -(ens.rates[:, None]
              * (dphi[None, :] * (dev @ phi)[:, None]
                 + phi[None, :] * (dev @ dphi)[:, None]))
    if model.theta_floor is not None:
        dpred = np.where(pred > model.theta_floor, dpred, 0.0)
    jac = model.optimum_jacobian(_clamped(pred, model), r)
    dr = np.einsum("nqm,nm->nq", jac, dpred)
    return np.array([2.0 * np.mean(np.sum((r - r.mean(axis=0)) * dr, axis=1))])


def predict(ens: Ensemble, y_cand, model: RewardModel) -> BeliefStats:
    """Belief statistics after a hypothetical observation at y_cand.

    One optimum-map solve serves the statistics and the exploration
    gradient ``r_var_grad``.
    """
    pred = _predicted_thetas(ens, y_cand, model)
    r = _optima(pred, model)
    out = _stats_of(r)
    out.r_var_grad = _r_var_grad(ens, y_cand, model, pred, r)
    return out


def predicted_r_var(ens: Ensemble, y_cand, model: RewardModel) -> float:
    """Predicted spread alone, the function ``dual.explore_grad`` differences.

    Only the finite-difference reference uses it; the control loops take
    the closed-form gradient from ``predict``.
    """
    pred = _predicted_thetas(ens, y_cand, model)
    return _stats_of(_optima(pred, model)).r_var


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
