"""Dual gradient controller for integrator-shaped decision dynamics.

The controller descends the sum of two terms evaluated one step ahead:
the squared distance to the mean predicted optimum (exploitation) and
the spread of the predicted optima (exploration).  ``dcee_step`` takes
the exploration gradient in closed form from ``predict``, which computes
it from the same optimum-map solve as the belief.  ``explore_grad`` takes
central finite differences of the predicted spread; no control loop
calls it, it is the reference the closed form is tested against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, predict, predicted_r_var
from .errors import NumericalError
from .reward import RewardModel

__all__ = [
    "DualState",
    "DualDiagnostics",
    "exploit_grad",
    "explore_grad",
    "dcee_step",
    "contraction_check",
]

logger = logging.getLogger(__name__)


@dataclass
class DualState:
    """Decision point and gradient step size."""

    y: np.ndarray
    step_size: float

    def __post_init__(self):
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.step_size <= 0:
            raise ValueError("step size must be positive")


@dataclass
class DualDiagnostics:
    """Per-step gradient components and the resulting increment."""

    exploit_grad: np.ndarray
    explore_grad: np.ndarray
    u: np.ndarray
    contraction_ok: bool


def exploit_grad(y, r_mean) -> np.ndarray:
    """Gradient of ||y - r_mean||^2 with respect to y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r_mean = np.atleast_1d(np.asarray(r_mean, dtype=float))
    if y.shape != r_mean.shape:
        raise ValueError("y and r_mean must have equal dimension")
    return 2.0 * (y - r_mean)


def explore_grad(y, ens: Ensemble, model: RewardModel,
                 fd_eps: float = 1e-5) -> np.ndarray:
    """Finite-difference gradient of the predicted-optima spread at y.

    The reference for the closed-form ``predict(...).r_var_grad``; it
    needs no jacobians.  Central differences are used whenever both
    probe points stay inside the model's admissible interval; at the
    boundary the difference falls back to one-sided and a warning is
    logged.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = model.y_range
    grad = np.empty_like(y)
    for j in range(y.size):
        up = y.copy()
        dn = y.copy()
        up[j] += fd_eps
        dn[j] -= fd_eps
        up_ok = up[j] <= hi
        dn_ok = dn[j] >= lo
        if up_ok and dn_ok:
            grad[j] = (predicted_r_var(ens, up, model)
                       - predicted_r_var(ens, dn, model)) / (2.0 * fd_eps)
        else:
            logger.warning("explore gradient at y[%d]=%g clips the admissible "
                           "range; using one-sided difference", j, y[j])
            hi_pt, lo_pt = (y, dn) if dn_ok else (up, y)
            grad[j] = (predicted_r_var(ens, hi_pt, model)
                       - predicted_r_var(ens, lo_pt, model)) / fd_eps
    return grad


def dcee_step(state: DualState, ens: Ensemble,
              model: RewardModel) -> tuple[DualState, DualDiagnostics]:
    """One dual gradient step:  y' = y - delta * (grad C + grad P)."""
    ps = predict(ens, state.y, model)
    g_exploit = exploit_grad(state.y, ps.r_mean)
    g_explore = ps.r_var_grad
    u = -state.step_size * (g_exploit + g_explore)
    if not np.all(np.isfinite(u)):
        raise NumericalError("dual gradient step produced non-finite control")
    new_state = DualState(y=state.y + u, step_size=state.step_size)
    diag = DualDiagnostics(
        exploit_grad=g_exploit,
        explore_grad=g_explore,
        u=u,
        contraction_ok=contraction_check(state.step_size, 2.0),
    )
    return new_state, diag


def contraction_check(delta: float, hessian_bound: float) -> bool:
    """Step-size test  2 * (1 - delta * hessian_bound)^2 < 1.

    ``hessian_bound`` is the norm of the curvature of the exploitation
    term; the quadratic tracking term has curvature exactly 2, so callers
    normally pass 2.0.  Reported as a diagnostic, not enforced.
    """
    return bool(2.0 * (1.0 - delta * hessian_bound) ** 2 < 1.0)
