"""Output regulation layer that wraps the dual controller around a linear plant.

The reference generator integrates the dual gradient increment; the plant
input combines stabilising state feedback with feedforward gains obtained
from the regulation equations

    (A - I) Psi + B G = 0,      C Psi = I,

so that a constant reference xi corresponds to the equilibrium
x = Psi xi, y = xi.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .dual import DualDiagnostics, DualState, dcee_step
from .ensemble import Ensemble
from .errors import RegulationError
from .reward import RewardModel

__all__ = [
    "LinearPlant",
    "ServoGains",
    "ServoState",
    "check_rank",
    "solve_regulation",
    "stabilizing_gain",
    "design_gains",
    "servo_step",
]

RANK_RTOL = 1e-10
RESIDUAL_TOL = 1e-10


def _controllable(A: np.ndarray, B: np.ndarray) -> bool:
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == n


@dataclass
class LinearPlant:
    """Discrete-time state-space triple with the current state attached."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.C.shape[1] != n or self.x.shape != (n,):
            raise ValueError("inconsistent state-space dimensions")
        if not _controllable(self.A, self.B):
            raise ValueError("(A, B) must be controllable")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    def output(self) -> np.ndarray:
        return self.C @ self.x


@dataclass
class ServoGains:
    """Feedforward pair (Psi, G) plus stabilising feedback K."""

    Psi: np.ndarray
    G: np.ndarray
    K: np.ndarray


@dataclass
class ServoState:
    """Internal reference xi driven by the dual gradient increment."""

    xi: np.ndarray

    def __post_init__(self):
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        if not np.all(np.isfinite(self.xi)):
            raise ValueError("reference state must be finite")


def _stacked(A, B, C):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    q = C.shape[0]
    top = np.hstack([A - np.eye(n), B])
    bot = np.hstack([C, np.zeros((q, B.shape[1]))])
    return np.vstack([top, bot]), n, q


def check_rank(A, B, C) -> bool:
    """True iff the stacked regulation matrix has full rank n + q."""
    M, n, q = _stacked(A, B, C)
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return rank == n + q


def solve_regulation(A, B, C) -> tuple[np.ndarray, np.ndarray]:
    """Solve the regulation equations for the feedforward gains (Psi, G)."""
    M, n, q = _stacked(A, B, C)
    if not check_rank(A, B, C):
        raise RegulationError(
            "regulation equations unsolvable: stacked matrix [[A-I, B], [C, 0]] "
            "does not have full rank n + q")
    rhs = np.vstack([np.zeros((n, q)), np.eye(q)])
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    Psi, G = sol[:n, :], sol[n:, :]
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    res_state = np.linalg.norm((A - np.eye(n)) @ Psi + B @ G)
    res_out = np.linalg.norm(C @ Psi - np.eye(q))
    if res_state > RESIDUAL_TOL or res_out > RESIDUAL_TOL:
        raise RegulationError(
            f"regulation residuals too large ({res_state:.3e}, {res_out:.3e})")
    return Psi, G


def stabilizing_gain(A, B, poles) -> np.ndarray:
    """Single-input pole placement via the controllable-canonical construction.

    Returns K such that the eigenvalues of A - B K match ``poles`` (which
    must be closed under conjugation).  Multi-input plants are rejected;
    supply K directly for those.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    if B.shape[1] != 1:
        raise ValueError("pole placement implemented for single-input plants "
                         "only; supply K directly")
    if not _controllable(A, B):
        raise ValueError("(A, B) must be controllable for pole placement")
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if poles.shape != (n,):
        raise ValueError(f"need exactly {n} poles")
    coeffs = np.poly(poles)
    if np.max(np.abs(coeffs.imag)) > 1e-9:
        raise ValueError("poles must be closed under complex conjugation")
    coeffs = coeffs.real
    # chi(A) by Horner's rule on the desired characteristic polynomial
    chi = np.zeros_like(A)
    for c in coeffs:
        chi = chi @ A + c * np.eye(n)
    ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
    last_row = np.linalg.solve(ctrb.T, np.eye(n)[:, -1])
    K = (last_row @ chi)[None, :]
    placed = np.sort_complex(np.linalg.eigvals(A - B @ K))
    wanted = np.sort_complex(poles)
    if np.max(np.abs(placed - wanted)) > 1e-8:
        raise RegulationError("pole placement failed its eigenvalue check")
    return K


def design_gains(A, B, C, poles=None, K=None) -> ServoGains:
    """Build a validated gain set from the plant matrices.

    Either desired pole locations or an explicit feedback gain must be
    given.  The returned gains satisfy the regulation residual bounds and
    A - B K is verified Schur stable.
    """
    Psi, G = solve_regulation(A, B, C)
    if K is None:
        if poles is None:
            raise ValueError("give either poles or an explicit K")
        K = stabilizing_gain(A, B, poles)
    else:
        K = np.atleast_2d(np.asarray(K, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    radius = np.max(np.abs(np.linalg.eigvals(A - B @ K)))
    if radius >= 1.0:
        raise RegulationError(
            f"A - B K is not Schur stable (spectral radius {radius:.6f})")
    return ServoGains(Psi=Psi, G=G, K=K)


def servo_step(plant: LinearPlant, servo: ServoState, gains: ServoGains,
               ens: Ensemble, model: RewardModel, delta: float, xi_limits=None
               ) -> tuple[LinearPlant, ServoState, np.ndarray, DualDiagnostics]:
    """Advance reference, control and plant by one tick.

    The reference moves first by the dual gradient increment (optionally
    projected onto ``xi_limits`` to keep it inside the model's admissible
    interval), then the plant input uses the fresh reference:

        u = -K x + (G + K Psi) xi'
    """
    dual_state = DualState(y=servo.xi, step_size=delta)
    moved, diag = dcee_step(dual_state, ens, model)
    xi_new = moved.y
    if xi_limits is not None:
        xi_new = np.clip(xi_new, xi_limits[0], xi_limits[1])
    u = -(gains.K @ plant.x) + (gains.G + gains.K @ gains.Psi) @ xi_new
    x_new = plant.A @ plant.x + plant.B @ u
    # the matrices were validated when the plant was built; a shallow copy
    # with the new state skips re-running that check every tick
    new_plant = copy.copy(plant)
    new_plant.x = x_new
    return new_plant, ServoState(xi=xi_new), u, diag
