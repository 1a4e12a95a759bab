"""Parameterised reward models and the measurement noise.

A reward model splits the measured payoff into a known offset and an
unknown part that is linear in an environment parameter vector:

    J(theta, y) = known(y) + phi(y) . theta

The bases take an array of scalar outputs (one per batch entry) and add
a trailing axis for the regressor.  ``optimum_map_batch`` sends a stack
of parameter vectors to the operating points that maximise the reward;
the optimum is the quantity the dual controller tracks.  The map keeps no
state: each row's optimum depends on that row alone.  Every model also
supplies the jacobians of the regressor and of the optimum map, which give
the exploration gradient in closed form (see ``ensemble.predict``).
Models carry the admissible operating interval; ``scan_regressor_bound``
finds the largest ``||phi(y)||`` on it by grid scan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RewardModel",
    "NoiseSpec",
    "quadratic_reward",
    "sample_noise",
]


@dataclass
class RewardModel:
    """Reward structure J(theta, y) = known_basis(y) + unknown_basis(y).theta.

    Attributes
    ----------
    known_basis : callable
        outputs y (any shape) -> offsets with known coefficient, same shape.
    unknown_basis : callable
        outputs y -> regressors, shape y.shape + (dim,).
    dim : int
        Number of unknown parameters.
    y_range : (float, float)
        Admissible operating interval (scalar output models).
    optimum_map_batch : callable
        (N, dim) parameter vectors -> (N,) maximising outputs; a single
        vector is a batch of one row.  Each row's output is a function of
        that row alone, whatever else shares its batch and whatever was
        solved before.
    basis_jacobian : callable
        outputs y -> d(unknown_basis)/dy, shape y.shape + (dim,).
    optimum_jacobian : callable
        (thetas (N, dim), optima (N,)) -> d(optimum)/dtheta per row,
        shape (N, dim).  ``optima`` must be what the map returned for
        ``thetas``; the jacobian reuses it instead of solving
        again.  Where the map pins an optimum (the quadratic model's
        parameter floor) the jacobian is zero, so a pinned estimator adds
        nothing to the exploration gradient.
    """

    known_basis: Callable[[np.ndarray], np.ndarray]
    unknown_basis: Callable[[np.ndarray], np.ndarray]
    dim: int
    y_range: tuple[float, float]
    optimum_map_batch: Callable[[np.ndarray], np.ndarray]
    basis_jacobian: Callable[[np.ndarray], np.ndarray]
    optimum_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class NoiseSpec:
    """Zero-mean Gaussian measurement noise with fixed variance."""

    variance: float = 0.0

    def __post_init__(self):
        if not 0 <= self.variance < math.inf:
            raise ValueError("noise variance must be finite and nonnegative")
        self.variance = abs(self.variance)  # -0.0 too: numpy refuses its sqrt, -0.0, as a scale


def scan_regressor_bound(unknown_basis, y_range) -> float:
    """max ||phi(y)|| over the admissible interval, by a 2001-point grid scan:
    the regressor bound in the paper's mean-square-error bound (``ensemble.mse_bound``)."""
    grid = np.linspace(y_range[0], y_range[1], 2001)
    return float(np.max(np.linalg.norm(unknown_basis(grid), axis=-1)))


def quadratic_reward(known_gain: float = 2.0,
                     y_range: tuple[float, float] = (-4.0, 4.0),
                     theta_floor: float = 1e-6) -> RewardModel:
    """Scalar concave reward  J = known_gain * y - theta * y**2.

    The single unknown parameter is the curvature coefficient; the
    maximiser is (known_gain / 2) / theta, i.e. 1/theta for the default
    gain of 2.  The map is singular at theta = 0, so every estimate at or
    below the finite, positive ``theta_floor`` maps to
    (known_gain / 2) / theta_floor with a zero jacobian.
    """

    lo, hi = (float(v) for v in y_range)
    if not (lo < hi and math.isfinite(known_gain)):
        raise ValueError("need a y_range with lo < hi and a finite known_gain")
    if not (isinstance(theta_floor, numbers.Real) and 0 < theta_floor < math.inf):
        raise ValueError(f"theta_floor must be a finite positive number, got {theta_floor!r}")
    half_gain = known_gain / 2.0

    def known(y):
        return known_gain * np.asarray(y, dtype=float)

    def phi(y):
        y = np.asarray(y, dtype=float)
        return -(y * y)[..., None]

    def opt_batch(thetas):
        return half_gain / np.maximum(thetas[:, 0], theta_floor)

    def dphi(y):
        return (-2.0 * np.asarray(y, dtype=float))[..., None]

    def dopt(thetas, optima):
        jac = np.zeros(thetas.shape)
        np.divide(-optima, thetas[:, 0], out=jac[:, 0], where=thetas[:, 0] > theta_floor)
        return jac

    return RewardModel(
        known_basis=known,
        unknown_basis=phi,
        dim=1,
        y_range=(lo, hi),
        optimum_map_batch=opt_batch,
        basis_jacobian=dphi,
        optimum_jacobian=dopt,
    )


def sample_noise(noise: NoiseSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw a run's n measurement-noise samples (exactly 0.0 at zero variance).

    The values equal n successive single draws from the same generator.
    """
    return rng.normal(0.0, math.sqrt(noise.variance), n)
