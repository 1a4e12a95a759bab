"""Parameterised reward models and the noisy observation channel.

A reward model splits the measured payoff into a known offset and an
unknown part that is linear in an environment parameter vector:

    J(theta, y) = known(y) + phi(y) . theta

``optimum_map_batch`` sends a stack of parameter vectors to the
operating points that maximise the reward; the optimum is the quantity
the dual controller tracks.  Every model also supplies the jacobians of
the regressor and of the optimum map, which give the exploration
gradient in closed form (see ``ensemble.predict``).
Models carry the admissible operating interval and a regressor bound
(the largest ``||phi(y)||`` on that interval, found by grid scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "RewardModel",
    "NoiseSpec",
    "Observation",
    "quadratic_reward",
    "reward_true",
    "observe",
    "optimum_of",
    "sample_noise",
]


@dataclass
class RewardModel:
    """Reward structure J(theta, y) = known_basis(y) + unknown_basis(y).theta.

    Attributes
    ----------
    known_basis : callable
        y -> scalar offset with known coefficient.
    unknown_basis : callable
        y -> regressor vector of length ``dim``.
    dim : int
        Number of unknown parameters.
    y_range : (float, float)
        Admissible operating interval (scalar output models).
    regressor_bound : float
        max ||unknown_basis(y)|| over ``y_range``.
    optimum_map_batch : callable
        (N, dim) parameter vectors -> (N, q) maximising operating points;
        the only optimum map (``optimum_of`` passes a single row).
    basis_jacobian : callable
        y -> d(unknown_basis)/dy, shape (dim,); y is scalar.
    optimum_jacobian : callable
        (thetas (N, dim), optima (N, q)) -> d(optimum)/dtheta per row,
        shape (N, q, dim).  ``optima`` must be what ``optimum_map_batch``
        returned for ``thetas``; the jacobian reuses it instead of solving
        again.
    theta_floor : float or None
        If set, parameter vectors are clamped elementwise to this floor
        before being pushed through ``optimum_map_batch`` in ensemble
        code.  Guards maps with singularities (e.g. 1/theta near zero).
    """

    known_basis: Callable[[np.ndarray], float]
    unknown_basis: Callable[[np.ndarray], np.ndarray]
    dim: int
    y_range: tuple[float, float]
    regressor_bound: float
    optimum_map_batch: Callable[[np.ndarray], np.ndarray]
    basis_jacobian: Callable[[np.ndarray], np.ndarray]
    optimum_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_floor: float | None = None


@dataclass
class NoiseSpec:
    """Zero-mean Gaussian measurement noise with fixed variance."""

    variance: float = 0.0

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("noise variance must be nonnegative")


@dataclass
class Observation:
    """One reward measurement taken at output ``y`` and time index ``step``."""

    y: np.ndarray
    j_obs: float
    step: int = 0


def scan_regressor_bound(unknown_basis, y_range) -> float:
    """max ||phi(y)|| over the admissible interval, by a 2001-point grid scan."""
    grid = np.linspace(y_range[0], y_range[1], 2001)
    return max(float(np.linalg.norm(unknown_basis(np.array([v])))) for v in grid)


def quadratic_reward(known_gain: float = 2.0,
                     y_range: tuple[float, float] = (-4.0, 4.0),
                     theta_floor: float | None = 1e-6) -> RewardModel:
    """Scalar concave reward  J = known_gain * y - theta * y**2.

    The single unknown parameter is the curvature coefficient; the
    maximiser is (known_gain / 2) / theta, i.e. 1/theta for the default
    gain of 2.
    """

    half_gain = known_gain / 2.0

    def known(y):
        return known_gain * float(np.atleast_1d(y)[0])

    def phi(y):
        v = float(np.atleast_1d(y)[0])
        return np.array([-(v * v)])

    def opt_batch(thetas):
        if np.any(thetas == 0.0):
            raise DomainError("optimum map 1/theta is singular at theta = 0")
        return half_gain / thetas

    def dphi(y):
        v = float(np.atleast_1d(y)[0])
        return np.array([-2.0 * v])

    def dopt(thetas, optima):
        return (-optima / thetas)[:, :, None]

    return RewardModel(
        known_basis=known,
        unknown_basis=phi,
        dim=1,
        y_range=(float(y_range[0]), float(y_range[1])),
        regressor_bound=scan_regressor_bound(phi, y_range),
        optimum_map_batch=opt_batch,
        basis_jacobian=dphi,
        optimum_jacobian=dopt,
        theta_floor=theta_floor,
    )


def reward_true(model: RewardModel, theta: np.ndarray, y: np.ndarray) -> float:
    """Noise-free reward at output y for environment parameters theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (model.dim,):
        raise ValueError(
            f"theta has dimension {theta.shape}, model expects ({model.dim},)")
    return float(model.known_basis(y) + model.unknown_basis(y) @ theta)


def sample_noise(noise: NoiseSpec, rng: np.random.Generator) -> float:
    """Draw one measurement-noise sample (exactly 0.0 at zero variance)."""
    return float(rng.normal(0.0, math.sqrt(noise.variance)))


def observe(model: RewardModel, theta_true: np.ndarray, y: np.ndarray,
            noise: NoiseSpec, rng: np.random.Generator,
            step: int = 0) -> Observation:
    """Measure the reward at y through the noisy channel."""
    j = reward_true(model, theta_true, y) + sample_noise(noise, rng)
    return Observation(y=np.atleast_1d(np.asarray(y, dtype=float)),
                       j_obs=j, step=step)


def optimum_of(model: RewardModel, theta: np.ndarray) -> np.ndarray:
    """Operating point that maximises the reward for parameters theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return np.asarray(model.optimum_map_batch(theta[None, :])[0], dtype=float)
