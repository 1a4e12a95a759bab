"""Single-diode photovoltaic plant and the polynomial power-curve basis.

The panel model is the implicit diode equation

    I = I_ph - I_0 * (exp((V + I R_s) / a) - 1) - (V + I R_s) / R_sh

with the photocurrent scaling linearly in irradiance and drifting with
temperature through the short-circuit coefficient; the saturation
current is re-anchored at each temperature so the open-circuit voltage
follows its own temperature coefficient.  Panel parameters are plain
config inputs approximating a ~175 W, 72-cell module.

The current and the open-circuit voltage are the Lambert-W closed forms
of that equation and take arrays of voltages and conditions; the maximum
power points of an array of conditions are one bracketed Newton solve on
dP/dV, in which each condition steps and stops on its own.
Their Wright omega function comes from ``scipy.special``, imported by
the first diode evaluation rather than with this module: it takes most
of ``import dcee``, and a quadratic run never evaluates the diode.
A config keeps its ``EnvProfile`` evaluated once at every tick time; runs slice it.

The controller's power-curve model is a polynomial in the voltage
(``pv_poly_reward``); its optimum map is the argmax of each estimator's
polynomial over the operating band.  Bernstein bounds on a grid of cells
certify where the maximum lies and Newton steps find it there; a row that
fails the certificate goes to the roots of the derivative by companion-matrix
eigenvalues.  Each row's optimum is a function of that row alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .reward import RewardModel

__all__ = [
    "PvParams",
    "EnvProfile",
    "pv_current",
    "open_circuit_voltage",
    "mpp_oracle",
    "profile_eval",
    "pv_poly_reward",
]

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
        if not (self.i_sc_ref > 0 and self.v_oc_ref > 0
                and self.ideality > 0 and self.g_ref > 0):
            raise ValueError("i_sc_ref, v_oc_ref, ideality and g_ref must be positive")
        if not (self.r_s >= 0 and self.r_sh > 0):
            raise ValueError("need r_s >= 0 and r_sh > 0 (np.inf allowed)")
        if not self.n_cells >= 1:
            raise ValueError("need at least one cell")
        if not all(math.isfinite(v) for k, v in vars(self).items() if k != "r_sh"):
            raise ValueError("panel parameters other than r_sh must be finite")
        self.check_temperatures([self.t_ref])

    def check_temperatures(self, temperatures) -> None:
        """Raise ValueError unless the diode model holds at each temperature.

        It needs a positive photocurrent and a positive, finite saturation
        current (hence a positive open-circuit voltage); without them the
        current or the maximum power point is not a number.  numpy's
        floating-point warnings are off: what overflows fails the check.
        """
        for temp in temperatures:
            with np.errstate(all="ignore"):
                _, i_ph, i_0 = _thermal(self, self.g_ref, temp)
            if not (i_ph > 0 and 0 < i_0 < math.inf):
                raise ValueError(f"at {temp} degC the panel has no positive photocurrent "
                                 "and saturation current")

    def check_conditions(self, times, irradiance, temperature) -> None:
        """Raise ValueError at the first time whose lit condition has a photocurrent outside
        [1e-6 (I_0 + a / r_sh), 1e6 a / r_s], where the current is rounding noise (README)."""
        a, i_ph, i_0 = _thermal(self, irradiance, temperature)
        held = (i_ph <= 0) | (i_ph >= 1e-6 * (i_0 + a / self.r_sh)) & (i_ph * self.r_s <= 1e6 * a)
        if np.count_nonzero(held) < held.size:
            k = int(np.argmin(held))
            raise ValueError(f"profile: the diode model does not resolve the panel's current "
                             f"at t = {times[k]} s ({irradiance[k]} W/m^2, {temperature[k]} degC)")


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
            if not all(math.isfinite(t) and math.isfinite(v) for t, v in pts):
                raise ValueError("profile breakpoints must be finite")
            ts = [t for t, _ in pts]
            if any(b < a for a, b in zip(ts, ts[1:])):
                raise ValueError("profile breakpoints must be time-sorted")
        if any(v < 0 for _, v in self.irradiance):
            raise ValueError("irradiance must be nonnegative")
        # (times, values) of each channel, the arrays profile_eval searches
        self._knots = [tuple(map(np.array, zip(*pts)))
                       for pts in (self.irradiance, self.temperature)]


def _thermal(params: PvParams, irradiance, temperature):
    """Diode slope a, photocurrent i_ph and saturation current i_0."""
    t_kelvin = temperature + 273.15
    a = params.ideality * params.n_cells * BOLTZMANN * t_kelvin / ELECTRON_CHARGE
    i_ph_ref_t = params.i_sc_ref + params.temp_coeff_i * (temperature - params.t_ref)
    v_oc_t = params.v_oc_ref + params.temp_coeff_v * (temperature - params.t_ref)
    i_0 = (i_ph_ref_t - v_oc_t / params.r_sh) / np.expm1(v_oc_t / a)
    return a, (irradiance / params.g_ref) * i_ph_ref_t, i_0


def wrightomega(x):
    """``scipy.special.wrightomega``, imported on the first call.

    The call rebinds this module's name to scipy's ufunc, so later calls
    go straight to it, with no import statement per call.
    """
    global wrightomega
    from scipy.special import wrightomega
    return wrightomega(x)


def _diode(params: PvParams, v, i_ph, a, i_0):
    """Terminal current at v, unclamped, and the conductance g there.

    For r_s > 0 the Lambert-W solution (Jain & Kapoor, Sol. Energy Mater.
    Sol. Cells 81, 2004), with W(e^x) taken as the Wright omega function
    omega(x), whose argument cannot overflow.  g = dI_d/dV_d + 1/r_sh at
    the junction voltage V + I r_s; r_sh = inf gives frac = 1, 1/r_sh = 0.
    """
    rs, rsh = params.r_s, params.r_sh
    if rs == 0.0:
        return i_ph - i_0 * np.expm1(v / a) - v / rsh, i_0 * np.exp(v / a) / a + 1.0 / rsh
    frac = 1.0 / (1.0 + rs / rsh)
    w = wrightomega(np.log(i_0 * rs * frac / a) + frac * (rs * (i_ph + i_0) + v) / a)
    return frac * (i_ph + i_0 - v / rsh) - (a / rs) * w, w / (rs * frac) + 1.0 / rsh


def pv_current(params: PvParams, v, irradiance, temperature):
    """Panel current at voltage v in closed form; arguments broadcast.

    Voltages beyond the open-circuit point give 0.0, and so does a dark
    panel.  Scalar arguments give a float.
    """
    v = np.asarray(v, dtype=float)
    one = v.shape == (1,)  # one voltage runs on numpy's much faster scalar arithmetic
    if v[0] < 0.0 if one else np.count_nonzero(v < 0):
        raise ValueError("voltage must be nonnegative")
    a, i_ph, i_0 = _thermal(params, irradiance, temperature)
    cur = _diode(params, v[0] if one else v, i_ph, a, i_0)[0]
    if isinstance(cur, np.ndarray):
        return np.where(i_ph > 0, _clamp(cur), 0.0)
    cur = max(cur, 0.0) if i_ph > 0 else 0.0  # _clamp's rule: max keeps cur unless 0.0 > cur
    return np.array([cur]) if one else float(cur)


def _clamp(cur):
    """A negative current is 0.0; a NaN or -0.0 stays, so one voltage and many
    give the same bits."""
    return np.where(cur < 0.0, 0.0, cur)


def _open_circuit(params: PvParams, i_ph, a, i_0):
    if math.isinf(params.r_sh):
        return a * np.log1p(i_ph / i_0)
    # (i_ph + i_0) r_sh - a omega(x), x = ln(s) + (i_ph + i_0) r_sh / a, s = i_0 r_sh / a,
    # is a ln(omega(x) / s) since omega + ln(omega) = x: no cancellation of
    # two large terms, but rounding can still dip below 0 when i_ph is tiny
    scale = i_0 * params.r_sh / a
    w = wrightomega(np.log(scale) + (i_ph + i_0) * params.r_sh / a)
    return np.maximum(a * np.log(w / scale), 0.0)


def open_circuit_voltage(params: PvParams, irradiance, temperature):
    """Voltage at which the panel current reaches zero, in closed form.

    The root of i_ph - i_0 (exp(V / a) - 1) - V / r_sh through the Wright
    omega function (a log1p when r_sh = inf).  A dark panel gives 0.0;
    scalar arguments give a float.  It closes the bracket ``mpp_oracle`` searches.
    """
    a, i_ph, i_0 = _thermal(params, irradiance, temperature)
    v_oc = np.where(i_ph > 0, _open_circuit(params, i_ph, a, i_0), 0.0)
    return float(v_oc) if v_oc.ndim == 0 else v_oc


def mpp_oracle(params: PvParams, irradiance, temperature):
    """Maximum power point (v_star, p_star) at each operating condition;
    the arguments broadcast.

    P(V) = V I(V) is strictly concave on [0, V_oc]: implicit
    differentiation of the diode equation gives I' = -g / (1 + r_s g) < 0
    and I'' < 0.  So dP/dV = I + V I' has one root there, found by Newton
    steps from V_oc inside a shrinking bracket, bisecting whenever Newton
    would leave it.  Each condition stops at its own first step below
    1e-13 of its bracket's top, or after 100 steps, so its result does not
    depend on the other conditions of the call.  A dark panel gives
    (0.0, 0.0); scalar arguments give a tuple of floats, others two arrays.
    """
    g_in, t_in = np.broadcast_arrays(np.asarray(irradiance, dtype=float),
                                     np.asarray(temperature, dtype=float))
    a, i_ph, i_0 = _thermal(params, g_in.ravel(), t_in.ravel())
    v_star, p_star = np.zeros(g_in.size), np.zeros(g_in.size)
    lit = np.flatnonzero(i_ph > 0)
    lit_cond = i_ph, a, i_0 = i_ph[lit], a[lit], i_0[lit]  # in _diode's order
    lo, hi = np.zeros(lit.size), _open_circuit(params, i_ph, a, i_0)
    v, at = hi, lit  # the conditions still stepping and where their results go
    for _ in range(100):  # bisection alone would take about 50 steps
        cur, g = _diode(params, v, i_ph, a, i_0)
        q = 1.0 + params.r_s * g
        slope = -g / q
        # float_power is libm's pow, as a scalar ** is; power's vector loop can
        # round q ** 3 one ulp apart from it
        curv = -(g - 1.0 / params.r_sh) / (a * np.float_power(q, 3.0))
        dp = cur + v * slope
        lo, hi = np.where(dp > 0, v, lo), np.where(dp < 0, v, hi)
        newton = v - dp / (2.0 * slope + v * curv)
        nxt = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        step, v = nxt - v, nxt
        moving = np.abs(step) > 1e-13 * hi
        if np.count_nonzero(moving) < moving.size:
            v_star[at[~moving]] = v[~moving]
            v, lo, hi, a, i_ph, i_0, at = (x[moving] for x in (v, lo, hi, a, i_ph, i_0, at))
            if not at.size:
                break
    v_star[at] = v
    v = v_star[lit]
    cur = _diode(params, v, *lit_cond)[0]
    p_star[lit] = v * _clamp(cur)
    if g_in.ndim == 0:
        return float(v_star[0]), float(p_star[0])
    return v_star.reshape(g_in.shape), p_star.reshape(g_in.shape)


def profile_eval(profile: EnvProfile, t):
    """(irradiance, temperature) at time t, right-continuous at breakpoints.

    t may be an array of times, which gives two arrays of its shape; a
    scalar t gives a tuple of floats.  Irradiance is (1 - w) v0 + w v1 between
    the breakpoints around t, or v0 exactly where v0 = v1 (the sum can miss it).
    """
    t = np.asarray(t, dtype=float)
    if np.count_nonzero(~(t >= 0.0)):  # a NaN time is refused too
        raise ValueError("time must be nonnegative")
    (ts, vs), (temp_ts, temp_vs) = profile._knots
    # searchsorted's right side passes over equal knots, so t0 <= t < t1 between
    # them; outside them i0 = i1, which holds the end value
    n = np.searchsorted(ts, t, side="right")
    i0, i1 = np.maximum(n - 1, 0), np.minimum(n, ts.size - 1)
    t0, t1, v0, v1 = ts[i0], ts[i1], vs[i0], vs[i1]
    w = np.divide(t - t0, t1 - t0, out=np.zeros(t.shape), where=(n > 0) & (n < ts.size))
    irr = np.where(v0 == v1, v0, (1.0 - w) * v0 + w * v1)
    temp = temp_vs[np.maximum(np.searchsorted(temp_ts, t, side="right") - 1, 0)]
    if t.ndim == 0:
        return float(irr), float(temp)
    return irr, temp


# the certified map's cells on the operating band, and its tolerances: a cell
# whose bound reaches the best grid value within CERT_TOL of it could hold the
# maximum; a Newton step of at most STEP_TOL of the root is a settled one
CELLS = 16
CERT_TOL = 1e-12
STEP_TOL = 1e-8
# the rows solved at once: larger blocks' arrays get fresh pages on every call
BLOCK_ROWS = 128
_AROUND = np.array([[-1], [0], [1]])


@functools.lru_cache(maxsize=None)
def _bernstein(m: int, s_lo: float, s_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``CELLS`` + 1 grid points of [s_lo, s_hi], and the matrix that takes
    the m coefficients of p (ascending) to p's values at the grid points, p's
    Bernstein coefficients on each cell, their second differences (the sign of
    p'' there), and the coefficients of p', p'' and p''' on s^0 .. s^(m - 2),
    each one exact product.  The cell blocks run coefficient by coefficient.
    On a cell [g, g + h], p(g + h t) = sum_i a_i t^i with a_i = sum_j theta_j
    C(j, i) g^(j - i) h^i, and t^i = sum_k C(k, i) / C(m - 1, i) B_k(t).
    Both arrays are read-only, as they are shared.
    """
    grid, h, j = np.linspace(s_lo, s_hi, CELLS + 1), (s_hi - s_lo) / CELLS, np.arange(m)
    binom = np.array([[math.comb(b, a) for b in j] for a in j], dtype=float)  # C(col, row)
    gap = np.maximum(j[:, None] - j, 0)  # j - i where C(j, i) is not 0
    cells = np.stack([(binom.T * g ** gap * h ** j) @ (binom / binom[:, -1:])
                      for g in grid[:-1]], axis=-1)
    # the r-th derivative of p' at s^i: theta_(i + r + 1) (i + 1) ... (i + r + 1)
    derivs = np.zeros((m, 3, m - 1))
    for r, i in ((r, i) for r in range(3) for i in range(m - r - 1)):
        derivs[i + r + 1, r, i] = math.perm(i + r + 1, r + 1)
    second = cells[:, 2:] - 2.0 * cells[:, 1:-1] + cells[:, :-2]
    matrix = np.hstack([grid ** j[:, None], *(a.reshape(m, -1) for a in (cells, second, derivs))])
    grid.flags.writeable = matrix.flags.writeable = False
    return grid, matrix


def _certified_argmax_batch(thetas: np.ndarray, s_lo: float, s_hi: float, scale: float,
                            shift: float) -> np.ndarray:
    """Maximiser of each polynomial sum_j theta_j s^j over [s_lo, s_hi] as
    s * scale + shift, (N,), for ``thetas`` (N, degree + 1), degree >= 2.

    Bernstein coefficients bound a polynomial on an interval (Farouki & Rajan,
    CAGD 4, 1987).  A row is certified when, s_b its maximum on the grid of
    ``CELLS`` cells, only the cells beside s_b reach p(s_b) within ``CERT_TOL``.
    Then, if s_b is interior and p'' < 0 on both cells, one Halley and two
    Newton steps on p' from the vertex of the parabola through the three grid
    values around s_b find the maximiser, accepted when the last step is at
    most ``STEP_TOL`` (1 + |s|) and s stays within a cell of s_b.  An end s_b
    whose end cell stays at or below p(s_b) is the maximiser, exactly.  Other
    rows go to the eigenvalues (``_poly_argmax_batch``).  Each operation acts
    on every row on its own, so no row's result depends on the others'.
    """
    n, m = thetas.shape
    if n > BLOCK_ROWS:  # a row's result does not depend on its block
        return np.concatenate([_certified_argmax_batch(thetas[i:i + BLOCK_ROWS], s_lo, s_hi, scale,
                                                       shift) for i in range(0, n, BLOCK_ROWS)])
    grid, matrix = _bernstein(m, s_lo, s_hi)
    # a stacked matmul, one product per row, then one column per row, so each
    # operation runs along the batch
    out = np.ascontiguousarray((thetas[:, None, :] @ matrix)[:, 0].T)
    values, rest = out[:CELLS + 1], out[CELLS + 1:]
    cells = rest[:CELLS * m].reshape(m, CELLS, n)
    concave = np.maximum.reduce(rest[CELLS * m:CELLS * (2 * m - 2)].reshape(m - 2, CELLS, n)) < 0.0
    d = rest[CELLS * (2 * m - 2):].reshape(3, m - 1, n)  # p', p'' and p''' on s^0 .. s^(m - 2)
    cols = np.arange(n)
    b = values.argmax(axis=0)
    best = values[b, cols]
    # the cells that reach p(s_b): both cells beside s_b hold it as a coefficient
    count = np.add.reduce(np.maximum.reduce(cells) >= best - CERT_TOL * (1.0 + np.abs(best)))
    near = np.minimum(np.maximum(b, 1), CELLS - 1) + _AROUND  # an interior s_b and its neighbours
    y0, y1, y2 = values[near, cols]
    interior = (count == 2) & (b == near[1]) & np.logical_and.reduce(concave[near[:2], cols])
    h, centre = grid[1] - grid[0], grid[near[1]]
    with np.errstate(all="ignore"):  # a flat or stalled row turns inf or NaN, then fails
        s = centre + 0.5 * h * (y0 - y2) / ((y0 - y1) + (y2 - y1))
        pw = np.empty((m - 1, n))
        pw[0] = 1.0
        for sweep in range(3):  # Halley, then Newton twice
            pw[1:] = s
            np.multiply.accumulate(pw, out=pw)
            if sweep:
                slope, curv = np.add.reduce(d[:2] * pw, axis=1)
                step = slope / curv
            else:
                slope, curv, third = np.add.reduce(d * pw, axis=1)
                step = slope * curv / (curv * curv - 0.5 * slope * third)
            s = s - step
        found = interior & (np.abs(step) <= STEP_TOL * (1.0 + np.abs(s))) & (np.abs(s - centre) < h)
    ends = np.flatnonzero(b != near[1])  # s_b at an end of the interval
    if ends.size:
        upper = b[ends] == CELLS
        # the end cell alone reaches p(s_b), and its coefficients but p(s_b) stay at or below it
        end = np.where(upper, np.maximum.reduce(cells[:-1, -1, ends]),
                       np.maximum.reduce(cells[1:, 0, ends]))
        found[ends] = (count[ends] == 1) & (end <= best[ends])
        s[ends] = np.where(upper, s_hi, s_lo)
    optima = s * scale + shift
    if np.count_nonzero(found) < n:
        optima[~found] = _poly_argmax_batch(thetas[~found], s_lo, s_hi, scale, shift)
    return optima


def _companion_roots(monic: np.ndarray) -> np.ndarray:
    """All d roots (d, k) of k monic polynomials, ascending coefficients
    (d + 1, k), by batched companion-matrix eigenvalues."""
    d, k = monic.shape[0] - 1, monic.shape[1]
    comp = np.zeros((k, d, d))
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, :, -1] = -monic[:-1].T
    return np.linalg.eigvals(comp).T


def _poly_argmax_batch(thetas: np.ndarray, s_lo: float, s_hi: float, scale: float,
                       shift: float = 0.0) -> np.ndarray:
    """``_certified_argmax_batch`` by eigenvalues, its fallback.

    The candidates are the endpoints and the real parts of the stationary
    points, the roots of the derivative (``_companion_roots``, or np.roots
    where its leading coefficient is numerically zero), clipped into the
    interval; the one with the largest Horner value wins.  Every candidate is
    a point of the interval, so the real part of a complex stationary point
    cannot beat the maximum, which is an endpoint or a real one.
    """
    # one column per polynomial, so each operation runs along the batch
    coef = np.asarray(thetas, dtype=float).T
    m, n = coef.shape
    deriv = coef[1:] * np.arange(1.0, m)[:, None]
    size = np.abs(deriv)
    tiny = 1e-12 * np.maximum.reduce(size, initial=1.0)
    ok = size[-1] > tiny
    cand = np.full((m, n), s_lo)  # the two endpoints, then the m - 2 roots, s_lo where none
    cand[1] = s_hi
    roots = _companion_roots(deriv[:, ok] / deriv[-1, ok]).real
    cand[2:, ok] = np.minimum(np.maximum(roots, s_lo), s_hi)
    for idx in np.flatnonzero(~ok):
        # drop the negligible leading coefficients: a subnormal one
        # would overflow np.roots' companion matrix
        keep = np.flatnonzero(size[:, idx] > tiny[idx])
        rr = np.roots(deriv[:keep[-1] + 1, idx][::-1]).real if keep.size else []
        cand[2:2 + len(rr), idx] = np.minimum(np.maximum(rr, s_lo), s_hi)
    vals = coef[-1] * cand
    for c in coef[-2:0:-1]:
        vals += c
        vals *= cand
    vals += coef[0]
    return cand[vals.argmax(axis=0), np.arange(n)] * scale + shift


def pv_poly_reward(degree: int = 5, v_range: tuple[float, float] = (2.0, 43.0),
                   v_scale: float = 1.0, v_shift: float = 0.0) -> RewardModel:
    """Reward model whose unknown part is a polynomial power curve.

    The regressor is [1, s, ..., s^degree], s = (v - v_shift) / v_scale; the
    normalisation keeps it well conditioned over the operating range, and
    the estimated coefficients are simply reparameterised accordingly.  The
    basis and optimum-map jacobians are closed-form, so the exploration
    gradient needs no extra optimum-map solves.  ``optimum_map_batch`` is
    ``_certified_argmax_batch``, a pure function of each row; its rows must be
    finite.
    """
    if degree < 2:
        raise ValueError("polynomial degree must be at least 2")
    if not (0 < v_scale < math.inf and math.isfinite(v_shift)):
        raise ValueError("voltage scale must be finite and positive, shift finite")
    lo, hi = (float(v) for v in v_range)
    if not lo < hi:
        raise ValueError("v_range must be an interval with lo < hi")
    s_lo = (lo - v_shift) / v_scale
    s_hi = (hi - v_shift) / v_scale

    def known(y):
        return np.zeros(np.shape(y))

    # the exact voltages the argmax returns for an endpoint maximum (a
    # stationary point clipped into the interval lands there as well)
    v_lo = s_lo * v_scale + v_shift
    v_hi = s_hi * v_scale + v_shift
    j = np.arange(degree + 1.0)  # floats, as an int power is cast on every call
    j_less, j_slope, j_curv = np.maximum(j - 1, 0), j[1:, None], (j[2:] * j[1:-1])[:, None]

    def opt_batch(thetas):
        finite = np.isfinite(thetas)
        if np.count_nonzero(finite) != finite.size:
            raise DomainError("polynomial coefficients must be finite",
                              rows=~finite.all(axis=1))
        return _certified_argmax_batch(thetas, s_lo, s_hi, v_scale, v_shift)

    def basis(y):
        s = (np.asarray(y, dtype=float) - v_shift) / v_scale
        return s[..., None] ** j

    def dbasis(y):
        s = (np.asarray(y, dtype=float) - v_shift) / v_scale
        return j * s[..., None] ** j_less / v_scale

    def dopt(thetas, v):
        # implicit function theorem on p'(s) = 0 at an interior maximum v:
        # ds/dtheta_j = -j s^(j-1) / p''(s); an endpoint maximum stays put
        # one column per row, so each operation runs along the batch
        pw = np.empty((degree, v.size))  # s^0 .. s^(degree - 1), as np.vander makes them
        pw[0] = 1.0
        pw[1:] = (v - v_shift) / v_scale
        np.multiply.accumulate(pw, out=pw)
        curv = np.add.reduce(j_curv * thetas.T[2:] * pw[:-1])
        interior = (v > v_lo) & (v < v_hi) & (curv < 0.0)
        jac = np.zeros((v.size, degree + 1))
        np.divide(-v_scale * (j_slope * pw), curv, out=jac[:, 1:].T, where=interior)
        return jac

    return RewardModel(
        known_basis=known,
        unknown_basis=basis,
        dim=degree + 1,
        y_range=(lo, hi),
        optimum_map_batch=opt_batch,
        basis_jacobian=dbasis,
        optimum_jacobian=dopt,
    )
