"""Output regulation design for wrapping the dual controller around a linear plant.

The reference generator integrates the dual gradient increment; the plant
input (applied by the quadratic-linear loop in ``harness``)

    u = -K x + (G + K Psi) xi'

combines stabilising state feedback with feedforward gains obtained from
the regulation equations

    (A - I) Psi + B G = 0,      C Psi = I,

so that a constant reference xi corresponds to the equilibrium
x = Psi xi, y = xi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegulationError

__all__ = [
    "LinearPlant",
    "ServoGains",
    "solve_regulation",
    "stabilizing_gain",
    "design_gains",
]

RANK_RTOL = 1e-10
RESIDUAL_TOL = 1e-10


def _matrices(*Ms) -> list[np.ndarray]:
    return [np.atleast_2d(np.asarray(M, dtype=float)) for M in Ms]


def _ctrb(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Controllability matrix [B, A B, ..., A^(n-1) B]."""
    return np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(A.shape[0])])


@dataclass
class LinearPlant:
    """Discrete-time state-space triple with its initial state ``x`` (the
    config's ``x0``); ``harness._Servo`` keeps the running state."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.A, self.B, self.C = _matrices(self.A, self.B, self.C)
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.C.shape[1] != n or self.x.shape != (n,):
            raise ValueError("inconsistent state-space dimensions")
        if not all(np.isfinite(m).all() for m in (self.A, self.B, self.C, self.x)):
            raise ValueError("A, B, C and the state must be finite")
        if not _full_rank(_ctrb(self.A, self.B)):
            raise ValueError("(A, B) must be controllable")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.C.shape[0]


@dataclass
class ServoGains:
    """Feedforward pair (Psi, G) plus stabilising feedback K."""

    Psi: np.ndarray
    G: np.ndarray
    K: np.ndarray


def _stacked(A, B, C) -> np.ndarray:
    """The regulation matrix [[A - I, B], [C, 0]]."""
    return np.block([[A - np.eye(A.shape[0]), B],
                     [C, np.zeros((C.shape[0], B.shape[1]))]])


def _full_rank(M: np.ndarray) -> bool:
    """True iff M has full row rank, to RANK_RTOL of its largest singular value."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    return int(np.sum(s > RANK_RTOL * s[0])) == M.shape[0]


def solve_regulation(A, B, C) -> tuple[np.ndarray, np.ndarray]:
    """Solve the regulation equations for the feedforward gains (Psi, G)."""
    A, B, C = _matrices(A, B, C)
    n, q = A.shape[0], C.shape[0]
    M = _stacked(A, B, C)
    if not _full_rank(M):
        raise RegulationError(
            "regulation equations unsolvable: stacked matrix [[A-I, B], [C, 0]] "
            "does not have full rank n + q")
    rhs = np.vstack([np.zeros((n, q)), np.eye(q)])
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    Psi, G = sol[:n, :], sol[n:, :]
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
    A, B = _matrices(A, B)
    n = A.shape[0]
    if B.shape[1] != 1:
        raise ValueError("pole placement implemented for single-input plants "
                         "only; supply K directly")
    ctrb = _ctrb(A, B)
    if not _full_rank(ctrb):
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
    A, B, C = _matrices(A, B, C)
    Psi, G = solve_regulation(A, B, C)
    if K is None:
        if poles is None:
            raise ValueError("give either poles or an explicit K")
        K = stabilizing_gain(A, B, poles)
    else:
        K = np.atleast_2d(np.asarray(K, dtype=float))
    radius = np.max(np.abs(np.linalg.eigvals(A - B @ K)))
    if radius >= 1.0:
        raise RegulationError(
            f"A - B K is not Schur stable (spectral radius {radius:.6f})")
    return ServoGains(Psi=Psi, G=G, K=K)
