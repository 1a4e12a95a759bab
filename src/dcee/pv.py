"""Single-diode photovoltaic plant and the polynomial power-curve basis.

The panel model solves the implicit diode equation

    I = I_ph - I_0 * (exp((V + I R_s) / a) - 1) - (V + I R_s) / R_sh

with the photocurrent scaling linearly in irradiance and drifting with
temperature through the short-circuit coefficient; the saturation
current is re-anchored at each temperature so the open-circuit voltage
follows its own temperature coefficient.  Panel parameters are plain
config inputs approximating a ~175 W, 72-cell module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import lambertw

from .errors import DomainError
from .reward import RewardModel, scan_regressor_bound

__all__ = [
    "PvParams",
    "EnvProfile",
    "PolyBasis",
    "pv_current",
    "pv_power",
    "mpp_oracle",
    "profile_eval",
    "pv_poly_reward",
]

logger = logging.getLogger(__name__)

BOLTZMANN = 1.380649e-23
ELECTRON_CHARGE = 1.602176634e-19


@dataclass
class PvParams:
    """Electrical parameters of the panel at reference conditions."""

    i_sc_ref: float = 5.4        # short-circuit current, A
    v_oc_ref: float = 44.0       # open-circuit voltage, V
    n_cells: int = 72            # series cell count
    ideality: float = 1.3        # diode ideality factor
    r_s: float = 0.5             # series resistance, ohm
    r_sh: float = 400.0          # shunt resistance, ohm
    temp_coeff_i: float = 0.003  # A per degC
    temp_coeff_v: float = -0.16  # V per degC
    g_ref: float = 1000.0        # reference irradiance, W/m^2
    t_ref: float = 25.0          # reference temperature, degC

    def __post_init__(self):
        if self.i_sc_ref <= 0 or self.v_oc_ref <= 0:
            raise ValueError("reference currents and voltages must be positive")
        if self.r_s < 0 or self.r_sh <= 0:
            raise ValueError("need r_s >= 0 and r_sh > 0 (np.inf allowed)")
        if self.n_cells < 1:
            raise ValueError("need at least one cell")


@dataclass
class EnvProfile:
    """Piecewise-linear irradiance and piecewise-constant temperature.

    Breakpoints are (time, value) pairs; duplicated times in the
    irradiance list create a step.  Evaluation is right-continuous at
    breakpoints and holds the end values outside the breakpoint span.
    """

    irradiance: list
    temperature: list

    def __post_init__(self):
        self.irradiance = [(float(t), float(v)) for t, v in self.irradiance]
        self.temperature = [(float(t), float(v)) for t, v in self.temperature]
        if not self.irradiance or not self.temperature:
            raise ValueError("profile needs at least one breakpoint per channel")
        for pts in (self.irradiance, self.temperature):
            ts = [t for t, _ in pts]
            if any(b < a for a, b in zip(ts, ts[1:])):
                raise ValueError("profile breakpoints must be time-sorted")
        if any(v < 0 for _, v in self.irradiance):
            raise ValueError("irradiance must be nonnegative")


@dataclass
class PolyBasis:
    """Polynomial regressor [1, s, s^2, ..., s^degree], s = (v - shift) / scale.

    The affine normalisation keeps the monomials well conditioned over
    the operating band; it reparameterises the same polynomial family in
    the raw voltage.
    """

    degree: int
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError("polynomial degree must be at least 2")
        if self.scale <= 0:
            raise ValueError("voltage scale must be positive")

    def __call__(self, v) -> np.ndarray:
        s = (float(np.atleast_1d(v)[0]) - self.shift) / self.scale
        return s ** np.arange(self.degree + 1)


def _thermal(params: PvParams, temperature: float):
    """Photo/saturation currents and the diode slope at given temperature."""
    t_kelvin = temperature + 273.15
    a = params.ideality * params.n_cells * BOLTZMANN * t_kelvin / ELECTRON_CHARGE
    i_ph_ref_t = params.i_sc_ref + params.temp_coeff_i * (temperature - params.t_ref)
    v_oc_t = params.v_oc_ref + params.temp_coeff_v * (temperature - params.t_ref)
    i_0 = (i_ph_ref_t - v_oc_t / params.r_sh) / math.expm1(v_oc_t / a)
    return a, i_ph_ref_t, i_0


def pv_current(params: PvParams, v: float, irradiance: float,
               temperature: float) -> float:
    """Panel current at voltage v, by bracketed root finding (tol 1e-9).

    Voltages beyond the open-circuit point return 0.0 (logged); a dark
    panel also yields zero current.
    """
    if v < 0:
        raise ValueError("voltage must be nonnegative")
    a, i_ph_ref_t, i_0 = _thermal(params, temperature)
    i_ph = (irradiance / params.g_ref) * i_ph_ref_t
    if i_ph <= 0:
        return 0.0

    def f(i):
        vd = v + i * params.r_s
        return i_ph - i_0 * math.expm1(vd / a) - vd / params.r_sh - i

    if f(0.0) <= 0.0:
        logger.debug("voltage %.3f V beyond open circuit; current clamped to 0", v)
        return 0.0
    return float(brentq(f, 0.0, i_ph, xtol=1e-9))


def _current_grid(params: PvParams, v: np.ndarray, irradiance: float,
                  temperature: float) -> np.ndarray:
    """Vectorised current via the Lambert-W closed form (grid evaluation)."""
    a, i_ph_ref_t, i_0 = _thermal(params, temperature)
    i_ph = (irradiance / params.g_ref) * i_ph_ref_t
    if i_ph <= 0:
        return np.zeros_like(v)
    rs, rsh = params.r_s, params.r_sh
    if rs == 0.0:
        cur = i_ph - i_0 * np.expm1(v / a) - v / rsh
        return np.maximum(cur, 0.0)
    frac = 1.0 if math.isinf(rsh) else rsh / (rs + rsh)
    arg = (i_0 * rs / a) * frac * np.exp(frac * (rs * (i_ph + i_0) + v) / a)
    w = lambertw(arg).real
    cur = frac * (i_ph + i_0 - (0.0 if math.isinf(rsh) else v / rsh)) - (a / rs) * w
    return np.maximum(cur, 0.0)


def pv_power(params: PvParams, v: float, irradiance: float,
             temperature: float) -> float:
    """Electrical power V * I(V) at the given operating conditions."""
    return v * pv_current(params, v, irradiance, temperature)


def open_circuit_voltage(params: PvParams, irradiance: float,
                         temperature: float) -> float:
    """Voltage at which the panel current reaches zero."""
    a, i_ph_ref_t, i_0 = _thermal(params, temperature)
    i_ph = (irradiance / params.g_ref) * i_ph_ref_t
    if i_ph <= 0:
        return 0.0

    def h(v):
        return i_ph - i_0 * math.expm1(v / a) - v / params.r_sh

    hi = params.v_oc_ref + abs(params.temp_coeff_v) * 100.0 + 10.0
    while h(hi) > 0:
        hi *= 2.0
    return float(brentq(h, 0.0, hi, xtol=1e-9))


def mpp_oracle(params: PvParams, irradiance: float,
               temperature: float) -> tuple[float, float]:
    """Maximum power point (v_star, p_star) by grid scan + golden refinement.

    The scan evaluates the closed-form current on 1000 voltages between 0
    and open circuit; a golden-section search then refines the best grid
    cell against the bracketed diode solve.  A dark panel gives (0, 0).
    """
    v_oc = open_circuit_voltage(params, irradiance, temperature)
    if v_oc <= 0:
        return 0.0, 0.0
    grid = np.linspace(0.0, v_oc, 1000)
    power = grid * _current_grid(params, grid, irradiance, temperature)
    i = int(np.argmax(power))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]

    def neg_power(v):
        return -pv_power(params, float(v), irradiance, temperature)

    try:
        res = minimize_scalar(neg_power, bracket=(lo, grid[i], hi),
                              method="golden", options={"xtol": 1e-6})
        v_star = float(np.clip(res.x, 0.0, v_oc))
    except ValueError:
        v_star = float(grid[i])
    return v_star, pv_power(params, v_star, irradiance, temperature)


def profile_eval(profile: EnvProfile, t: float) -> tuple[float, float]:
    """(irradiance, temperature) at time t, right-continuous at breakpoints."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return _interp_linear(profile.irradiance, t), _interp_hold(profile.temperature, t)


def _interp_linear(points, t):
    ts = np.array([p[0] for p in points])
    vs = np.array([p[1] for p in points])
    i = int(np.searchsorted(ts, t, side="right")) - 1
    if i < 0:
        return float(vs[0])
    if i >= ts.size - 1:
        return float(vs[-1])
    t0, t1 = ts[i], ts[i + 1]
    if t1 == t0:
        return float(vs[i + 1])
    w = (t - t0) / (t1 - t0)
    return float((1.0 - w) * vs[i] + w * vs[i + 1])


def _interp_hold(points, t):
    ts = np.array([p[0] for p in points])
    vs = np.array([p[1] for p in points])
    i = int(np.searchsorted(ts, t, side="right")) - 1
    return float(vs[max(i, 0)])


def _poly_argmax_batch(thetas: np.ndarray, s_lo: float, s_hi: float,
                       scale: float, shift: float = 0.0) -> np.ndarray:
    """Maximiser of each polynomial sum_j theta_j s^j over [s_lo, s_hi].

    Stationary points come from batched companion-matrix eigenvalues of
    the derivative; estimators whose leading derivative coefficient is
    (numerically) zero fall back to np.roots.  Endpoints are always in
    the candidate set, so clipping stray roots into the interval is safe.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n, m = thetas.shape
    deriv = thetas[:, 1:] * np.arange(1, m)[None, :]
    deg = m - 2  # degree of the derivative polynomial
    cands = [np.full(n, s_lo), np.full(n, s_hi)]
    if deg >= 1:
        lead = deriv[:, -1]
        tiny = 1e-12 * np.maximum(np.max(np.abs(deriv), axis=1), 1.0)
        ok = np.abs(lead) > tiny
        roots = np.full((n, deg), s_lo)
        if np.any(ok):
            monic = deriv[ok] / lead[ok, None]
            comp = np.zeros((int(ok.sum()), deg, deg))
            comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
            comp[:, :, -1] = -monic[:, :-1]
            eig = np.linalg.eigvals(comp)
            real = np.abs(eig.imag) <= 1e-8 * (1.0 + np.abs(eig.real))
            roots[ok] = np.where(real, np.clip(eig.real, s_lo, s_hi), s_lo)
        for idx in np.flatnonzero(~ok):
            # drop the negligible leading coefficients: a subnormal one
            # would overflow np.roots' companion matrix
            keep = np.flatnonzero(np.abs(deriv[idx]) > tiny[idx])
            rr = np.roots(deriv[idx, :keep[-1] + 1][::-1]) if keep.size else []
            rr = [float(np.clip(r.real, s_lo, s_hi)) for r in rr
                  if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real))]
            roots[idx, :len(rr)] = rr
        cands.extend(roots.T)
    cand = np.stack(cands, axis=1)
    vals = np.zeros_like(cand)
    for j in range(m - 1, -1, -1):
        vals = vals * cand + thetas[:, j][:, None]
    best = np.argmax(vals, axis=1)
    return (cand[np.arange(n), best] * scale + shift)[:, None]


def pv_poly_reward(degree: int = 5, v_range: tuple[float, float] = (2.0, 43.0),
                   v_scale: float = 1.0, v_shift: float = 0.0) -> RewardModel:
    """Reward model whose unknown part is a polynomial power curve.

    ``v_scale`` and ``v_shift`` normalise the voltage inside the basis so
    the regressor stays well-conditioned over the operating range; the
    estimated coefficients are simply reparameterised accordingly.  The
    basis and optimum-map jacobians are closed-form, so the exploration
    gradient needs no extra optimum-map solves.
    """
    basis = PolyBasis(degree=degree, scale=v_scale, shift=v_shift)
    s_lo = (v_range[0] - v_shift) / v_scale
    s_hi = (v_range[1] - v_shift) / v_scale

    def known(y):
        return 0.0

    # the exact voltages the argmax returns for an endpoint maximum (a
    # stationary point clipped into the interval lands there as well)
    v_lo = s_lo * v_scale + v_shift
    v_hi = s_hi * v_scale + v_shift
    j = np.arange(degree + 1)

    def opt_batch(thetas):
        if not np.all(np.isfinite(thetas)):
            raise DomainError("polynomial coefficients must be finite")
        return _poly_argmax_batch(thetas, s_lo, s_hi, v_scale, v_shift)

    def dbasis(y):
        s = (float(np.atleast_1d(y)[0]) - v_shift) / v_scale
        return j * s ** np.maximum(j - 1, 0) / v_scale

    def dopt(thetas, optima):
        # implicit function theorem on p'(s) = 0 at an interior maximum:
        # ds/dtheta_j = -j s^(j-1) / p''(s); an endpoint maximum stays put
        v = optima[:, 0]
        pw = np.vander((v - v_shift) / v_scale, degree, increasing=True)
        dslope = j[1:] * pw  # j s^(j-1) for j >= 1
        curv = np.sum(j[2:] * j[1:-1] * thetas[:, 2:] * pw[:, :-1], axis=1)
        interior = (v > v_lo) & (v < v_hi) & (curv < 0.0)
        jac = np.zeros((v.size, 1, degree + 1))
        jac[interior, 0, 1:] = -v_scale * dslope[interior] / curv[interior, None]
        return jac

    return RewardModel(
        known_basis=known,
        unknown_basis=basis,
        dim=degree + 1,
        y_range=(float(v_range[0]), float(v_range[1])),
        regressor_bound=scan_regressor_bound(basis, v_range),
        optimum_map_batch=opt_batch,
        basis_jacobian=dbasis,
        optimum_jacobian=dopt,
    )
