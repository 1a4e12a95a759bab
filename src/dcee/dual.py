"""Dual gradient controller for integrator-shaped decision dynamics.

The controller descends the sum of two terms evaluated one step ahead:
the squared distance to the mean predicted optimum (exploitation) and
the spread of the predicted optima (exploration).  The control loop in
``harness`` takes one step per tick,

    y' = y - delta * (exploit_grad(y, r_mean) + r_var_grad),

with the belief and the exploration gradient ``r_var_grad`` both from
``ensemble.predict(ens, dev, phi, dphi, model)``, which computes them from
one optimum-map solve given the deviations from the ensemble's ``moments``
and the regressor and its derivative at y.
``explore_grad(y, ens, model)`` takes a central finite difference of the
predicted spread at the one output of an unbatched ensemble, with the
fixed step ``FD_EPS``, and returns it 0-d, the belief's shape; no control
loop calls it, it is the reference the closed form is tested against.
"""

from __future__ import annotations

import logging

import numpy as np

from .ensemble import Ensemble, moments, predict
from .reward import RewardModel

__all__ = [
    "exploit_grad",
    "explore_grad",
    "contraction_check",
]

logger = logging.getLogger(__name__)

# curvature of the exploitation term ||y - r_mean||^2 (see exploit_grad)
EXPLOIT_HESSIAN = 2.0
# probe step of explore_grad's finite difference
FD_EPS = 1e-5


def exploit_grad(y, r_mean) -> np.ndarray:
    """Gradient of ||y - r_mean||^2 with respect to y (per batch entry)."""
    y = np.asarray(y, dtype=float)
    r_mean = np.asarray(r_mean, dtype=float)
    if y.shape != r_mean.shape:
        raise ValueError("y and r_mean must have equal dimension")
    return 2.0 * (y - r_mean)


def explore_grad(y, ens: Ensemble, model: RewardModel) -> np.ndarray:
    """Finite-difference gradient of the predicted-optima spread at y, 0-d.

    The reference for the closed-form ``predict(...).r_var_grad``, of the
    same shape: it differences the spread ``predict(...).r_var`` and reads
    no jacobian.  An unbatched ensemble has one scalar output, so y is one
    value, a scalar or a one-element sequence.  The
    difference is central whenever both probe points stay inside the
    model's admissible interval; at the boundary it falls back to
    one-sided and a warning is logged.
    """
    y = float(np.reshape(y, ()))
    lo, hi = model.y_range
    dev = moments(ens.thetas)[1]
    up, dn = y + FD_EPS, y - FD_EPS
    if up <= hi and dn >= lo:
        hi_pt, lo_pt, width = up, dn, 2.0 * FD_EPS
    else:
        logger.warning("explore gradient at y=%g clips the admissible range; "
                       "using one-sided difference", y)
        hi_pt, lo_pt = (y, dn) if dn >= lo else (up, y)
        width = FD_EPS
    r_var = [predict(ens, dev, model.unknown_basis(pt), model.basis_jacobian(pt), model).r_var
             for pt in (hi_pt, lo_pt)]
    return (r_var[0] - r_var[1]) / width


def contraction_check(delta: float) -> bool:
    """Step-size test  2 * (1 - delta * EXPLOIT_HESSIAN)^2 < 1.

    ``EXPLOIT_HESSIAN`` is the curvature of the exploitation term, exactly
    2 for the quadratic tracking term.  Reported as a diagnostic, not
    enforced.  A factor of 1 or more fails unsquared: its square can overflow.
    """
    factor = abs(1.0 - delta * EXPLOIT_HESSIAN)
    return bool(factor < 1.0 and 2.0 * factor ** 2 < 1.0)
