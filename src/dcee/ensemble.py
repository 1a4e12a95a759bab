"""Ensemble of online parameter estimators with uncertainty extraction.

Each of the N estimators runs the same gradient-descent regression on the
reward residual; because they start from random initial guesses, the
sample statistics of their predicted optima quantify how uncertain the
current belief is.  An ``Ensemble`` is the plain pair of estimates and
rates, checked once where ``init_ensemble`` draws it.  ``adapt``
consumes a real observation and returns the next pair; ``moments`` gives
the mean estimate and every estimate's deviation from it, once per tick.
``predict(ens, dev, phi, dphi, model)`` applies the same update,
``_step``, to the noise-free reward the mean implies: the residual is
then each deviation along the regressor, a product taken once.  It gives
the one-step-ahead belief and its exploration gradient in closed form
from one optimum-map solve, to which an optimum the model's map pins adds
nothing, and takes r_var and the gradient's sum in one reduction.  Both
ops take the model's bases at their point, not the point: the caller
evaluates the regressor once per point and hands it to each op that
needs it (the harness loop shares it with the observation, and between
``adapt`` and ``predict`` where the output is the reference).  Finite
differences of the predicted spread (``dual.explore_grad``) are the
reference the closed form is tested against.

Every op takes a batch of independent ensembles: ``thetas`` of shape
(S, N, m) with one point per batch entry, the bases of shape (S, m) and
(S,), and reduces over the estimator axis only, so an entry's numbers do
not depend on what else shares the batch.  A single ensemble is the
unbatched (N, m) case with bases at one point, (m,) and 0-d, and a 0-d
belief.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .reward import RewardModel

__all__ = [
    "Ensemble",
    "BeliefStats",
    "init_ensemble",
    "moments",
    "spread",
    "adapt",
    "stats",
    "predict",
    "mse_bound",
]


class Ensemble(NamedTuple):
    """N parameter estimates with per-estimator learning rates.

    ``thetas`` has shape (N, m), or (S, N, m) for a batch of S ensembles
    that share their rates; ``rates`` has shape (N,).  Only
    ``init_ensemble`` checks them; updates return a new Ensemble.
    """

    thetas: np.ndarray
    rates: np.ndarray


class BeliefStats(NamedTuple):
    """Sample statistics of an estimator set.

    r_mean     : average predicted optimum
    r_var      : spread of the predicted optima (exploration term)
    r_var_grad : closed-form d r_var / d y_cand from ``predict``;
                 None from ``stats``

    Each has the ensemble's batch shape ``thetas.shape[:-2]``, one value
    per batch entry: (S,) for a batch, 0-d for one ensemble.
    """

    r_mean: np.ndarray
    r_var: np.ndarray
    r_var_grad: np.ndarray | None = None


def _checked_args(n: int, prior_low, prior_high, rates):
    """The bounds and rates as float arrays if n >= 1, the bounds are finite with
    prior_low <= prior_high and a finite width, and ``rates`` is one finite positive
    learning rate or one per estimator, else a ``ValueError``; the config checks by it too."""
    if n < 1:
        raise ValueError("ensemble size must be at least 1")
    low = np.atleast_1d(np.asarray(prior_low, dtype=float))
    high = np.atleast_1d(np.asarray(prior_high, dtype=float))
    if low.shape != high.shape or low.size == 0:
        raise ValueError("prior bounds must be non-empty and of equal dimension")
    with np.errstate(over="ignore", invalid="ignore"):  # a finite width needs finite bounds
        width = high - low
    if not np.all(np.isfinite(width) & (width >= 0)):
        raise ValueError("prior bounds need prior_low <= prior_high and a finite width")
    rates = np.asarray(rates, dtype=float)
    if rates.shape not in ((), (n,)) or not np.all((rates > 0) & (rates < np.inf)):
        raise ValueError("need one finite positive learning rate, or one per estimator")
    return low, high, rates


def init_ensemble(n: int, prior_low, prior_high, rates,
                  rng: np.random.Generator) -> Ensemble:
    """Draw n estimates elementwise-uniform between the prior bounds, the
    arguments checked by ``_checked_args``, the one check an ensemble gets."""
    low, high, rates = _checked_args(n, prior_low, prior_high, rates)
    return Ensemble(rng.uniform(low, high, size=(n, low.size)), np.full(n, rates))


def _mean(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """``a.mean(axis)``, the same sum and division, without its call overhead."""
    return np.add.reduce(a, axis=axis, keepdims=keepdims) / a.shape[axis]


def moments(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean estimate (..., 1, m) and each estimate's deviation from it
    (..., N, m); the loop computes them once per tick."""
    centre = _mean(thetas, -2, keepdims=True)
    return centre, thetas - centre


def spread(dev: np.ndarray) -> np.ndarray:
    """Standard deviation of the estimates from their deviations, (..., m);
    the same arithmetic as ``thetas.std`` over the estimator axis."""
    return np.sqrt(_mean(dev * dev, -2))


# Products of estimates with a regressor phi (..., m) are stacked matmuls
# against its column phi[..., :, None]; they give the same bits with or
# without batch axes, where an elementwise product and sum would not.

def _step(ens: Ensemble, resid: np.ndarray, phi_row: np.ndarray) -> np.ndarray:
    """The estimator update law, theta_i - eta_i * resid_i * phi, given each
    estimate's residual (..., N, 1) and the regressor as a row (..., 1, m)."""
    return ens.thetas - (ens.rates[:, None] * resid) * phi_row


def adapt(ens: Ensemble, phi: np.ndarray, known, j_obs) -> Ensemble:
    """Gradient-descent regression step on one reward observation per entry.

    ``phi`` and ``known`` are the model's bases at the outputs where ``j_obs``
    was observed, the regressor (..., m) and the known offset, of the batch
    shape.  The offset is subtracted from the observation so the residual
    compares the unknown part of the reward only:

        theta_i' = theta_i - eta_i * phi * (phi . theta_i - (j_obs - known))

    The observation must be finite; the caller checks it.
    """
    target = np.asarray(j_obs - known)[..., None, None]
    return Ensemble(_step(ens, ens.thetas @ phi[..., :, None] - target, phi[..., None, :]),
                    ens.rates)


def _rows(a: np.ndarray) -> np.ndarray:
    """Every estimator of every batch entry as one row, (S*N, last)."""
    return a.reshape(-1, a.shape[-1])


def stats(ens: Ensemble, model: RewardModel) -> BeliefStats:
    """Current belief statistics of the ensemble, of its batch shape."""
    r = model.optimum_map_batch(_rows(ens.thetas)).reshape(ens.thetas.shape[:-1])
    r_mean = _mean(r, -1)
    return BeliefStats(r_mean, _mean((r - r_mean[..., None]) ** 2, -1))


def predict(ens: Ensemble, dev: np.ndarray, phi: np.ndarray, dphi: np.ndarray,
            model: RewardModel, solve=None) -> BeliefStats:
    """Belief statistics, of the batch shape, after a hypothetical observation at y_cand.

    ``phi`` and ``dphi`` are the regressor and its derivative at y_cand,
    ``model.unknown_basis`` and ``model.basis_jacobian`` there, (..., m).
    The observation is the noise-free reward the mean estimate implies, so
    ``adapt``'s residual becomes a_i = phi.d_i, where ``dev`` holds the
    deviations d_i = theta_i - mean from ``moments``; the product is taken
    once.  a_i gives the predicted estimates theta_i - eta_i*phi*a_i
    and, through one optimum-map solve, the statistics and the exploration
    gradient ``r_var_grad`` = d r_var / d y_cand by the chain rule through
    the optimum jacobian; r_mean drops out since the r_i - r_mean sum to
    zero.  A pinned optimum has a zero jacobian and adds nothing to it.
    r_var and the gradient's sum are taken by one reduction.  ``solve``, if given, is the map.
    """
    phi_row, along = phi[..., None, :], dev @ phi[..., :, None]
    pred = _step(ens, along, phi_row)
    rows = _rows(pred)
    optima = (model.optimum_map_batch if solve is None else solve)(rows)
    r = optima.reshape(pred.shape[:-1])
    r_mean = _mean(r, -1)
    centred = r - r_mean[..., None]

    # minus d pred / d y_cand: the sign goes into the gradient's factor, -2
    dpred = ens.rates[:, None] * (dphi[..., None, :] * along
                                  + phi_row * (dev @ dphi[..., :, None]))
    dr = np.einsum("nm,nm->n", model.optimum_jacobian(rows, optima), _rows(dpred))
    terms = np.empty((2, *r.shape))
    np.multiply(centred, centred, out=terms[0])
    np.multiply(centred, dr.reshape(r.shape), out=terms[1])
    var, grad = _mean(terms, -1)
    return BeliefStats(r_mean, var, -2.0 * grad)


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
