import bisect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from dcee import (DomainError, EnvProfile, PvParams, mpp_oracle, open_circuit_voltage,
                  profile_eval, pv, pv_current, pv_poly_reward)
from dcee.harness import _MapMemory
from dcee.pv import _poly_argmax_batch, _thermal

REF = dict(irradiance=1000.0, temperature=25.0)


# --- reference diode solve and MPP oracle ---------------------------------
# The package solves the diode equation in closed form and the MPP by
# Newton on dP/dV.  The reference solves the implicit equation with a
# bracketed root finder at every voltage, and the MPP by a dense grid scan
# refined with a bounded scalar search.

def _reference_conditions(params, irradiance, temperature):
    return tuple(float(x) for x in _thermal(params, irradiance, temperature))


def _reference_current(params, v, irradiance, temperature):
    a, i_ph, i_0 = _reference_conditions(params, irradiance, temperature)
    if i_ph <= 0:
        return 0.0

    def f(i):
        vd = v + i * params.r_s
        return i_ph - i_0 * math.expm1(vd / a) - vd / params.r_sh - i

    if f(0.0) <= 0.0:
        return 0.0
    return brentq(f, 0.0, i_ph, xtol=1e-300, maxiter=1000)


def _reference_dpdv(params, v, irradiance, temperature):
    """dP/dV = I + V dI/dV, dI/dV by implicit differentiation at the reference I."""
    a, _, i_0 = _reference_conditions(params, irradiance, temperature)
    cur = _reference_current(params, v, irradiance, temperature)
    g = i_0 * math.exp((v + cur * params.r_s) / a) / a + 1.0 / params.r_sh
    return cur - v * g / (1.0 + params.r_s * g)


def _reference_voc(params, irradiance, temperature):
    a, i_ph, i_0 = _reference_conditions(params, irradiance, temperature)
    if i_ph <= 0:
        return 0.0

    def h(v):
        return i_ph - i_0 * math.expm1(v / a) - v / params.r_sh

    hi = params.v_oc_ref + abs(params.temp_coeff_v) * 100.0 + 10.0
    while h(hi) > 0:
        hi *= 2.0
    return brentq(h, 0.0, hi, xtol=1e-300, maxiter=1000)


def _reference_mpp(params, irradiance, temperature, points=200):
    """(v_ref, p_ref): the best of a grid on [0, V_oc] and of a bounded
    search over the grid cells around it."""
    voc = _reference_voc(params, irradiance, temperature)
    if voc <= 0:
        return 0.0, 0.0

    def power(v):
        return v * _reference_current(params, v, irradiance, temperature)

    grid = np.linspace(0.0, voc, points)
    i = int(np.argmax([power(v) for v in grid]))
    res = minimize_scalar(lambda v: -power(v), method="bounded",
                          bounds=(grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]),
                          options={"xatol": 1e-12})
    best = max((grid[i], res.x), key=power)
    return float(best), power(best)


@pytest.fixture(scope="module")
def params():
    return PvParams()


def test_short_circuit_current_ideal_panel():
    ideal = PvParams(r_s=0.0, r_sh=np.inf)
    assert pv_current(ideal, 0.0, 1000.0, 25.0) == pytest.approx(
        ideal.i_sc_ref, rel=1e-9)


def test_current_zero_at_open_circuit(params):
    voc = open_circuit_voltage(params, **REF)
    assert pv_current(params, voc, **REF) == pytest.approx(0.0, abs=1e-7)


def test_dark_panel_gives_no_current(params):
    assert pv_current(params, 10.0, 0.0, 25.0) == 0.0


def test_negative_voltage_rejected(params):
    with pytest.raises(ValueError):
        pv_current(params, -1.0, **REF)


@pytest.mark.parametrize("value", [-0.0, math.nan, -1.0], ids=["negative-zero", "nan", "negative"])
def test_one_clamp_rule_for_one_voltage_many_and_the_oracle(monkeypatch, params, value):
    # a negative current is 0.0, and a -0.0 or NaN from the diode passes as it is,
    # for one voltage, for several, and in the oracle's power at its voltage
    diode = pv._diode

    def patched(*args):
        cur, g = diode(*args)
        return (np.full(cur.shape, value) if isinstance(cur, np.ndarray) else np.float64(value)), g

    monkeypatch.setattr(pv, "_diode", patched)
    want = np.array([max(value, 0.0)])
    assert np.array([pv_current(params, 20.0, **REF)]).tobytes() == want.tobytes()
    assert pv_current(params, [20.0], **REF).tobytes() == want.tobytes()
    assert pv_current(params, [20.0, 30.0], **REF).tobytes() == np.tile(want, 2).tobytes()
    v_star, p_star = mpp_oracle(params, **REF)
    assert np.array([p_star]).tobytes() == (v_star * want).tobytes()


def test_power_zero_at_interval_ends(params):
    voc = open_circuit_voltage(params, **REF)
    assert 0.0 * pv_current(params, 0.0, **REF) == 0.0
    assert voc * pv_current(params, voc, **REF) == pytest.approx(0.0, abs=1e-5)


def test_power_peak_is_interior_and_unique(params):
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.0, voc, 2000)
    power = grid * pv_current(params, grid, **REF)
    i = int(np.argmax(power))
    assert 0 < i < grid.size - 1
    sign_changes = np.sum(np.diff(np.sign(np.diff(power))) != 0)
    assert sign_changes == 1  # unimodal


def test_current_strictly_decreasing(params):
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.0, voc * 0.999, 500)
    cur = pv_current(params, grid, **REF)
    assert np.all(np.diff(cur) < 0)


def test_lambertw_grid_matches_bracketed_solver(params):
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.0, voc, 40)
    fast = pv_current(params, grid, **REF)
    slow = np.array([_reference_current(params, v, **REF) for v in grid])
    assert np.abs(fast - slow).max() < 1e-8


def test_mpp_oracle_definition(params):
    v_star, p_star = mpp_oracle(params, **REF)
    assert type(v_star) is float and type(p_star) is float
    assert mpp_oracle(params, 0.0, 25.0) == (0.0, 0.0)
    voc = open_circuit_voltage(params, **REF)
    for v in np.linspace(0.0, voc, 200):
        assert p_star >= v * pv_current(params, v, **REF) - 1e-9


def test_mpp_oracle_monotone_in_irradiance(params):
    _, p_hi = mpp_oracle(params, 1000.0, 25.0)
    _, p_lo = mpp_oracle(params, 600.0, 25.0)
    assert p_lo < p_hi


def test_mpp_voltage_drops_with_temperature(params):
    v_cool, _ = mpp_oracle(params, 1000.0, 25.0)
    v_hot, _ = mpp_oracle(params, 1000.0, 35.0)
    assert v_hot < v_cool


def test_mpp_oracle_grid_refinement_accuracy(params):
    # the Newton solve lands within one cell of a 10,000-point grid scan
    v_star, _ = mpp_oracle(params, **REF)
    voc = open_circuit_voltage(params, **REF)
    fine = np.linspace(0.0, voc, 10_000)
    v_fine = fine[np.argmax(fine * pv_current(params, fine, **REF))]
    assert abs(v_star - v_fine) < 1e-2  # within one fine-grid cell


PANELS = st.builds(
    PvParams,
    i_sc_ref=st.floats(1.0, 10.0), v_oc_ref=st.floats(20.0, 60.0),
    n_cells=st.integers(36, 96), ideality=st.floats(1.0, 2.0),
    r_s=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    r_sh=st.one_of(st.just(math.inf), st.floats(100.0, 5000.0)),
    temp_coeff_i=st.floats(0.0, 0.005), temp_coeff_v=st.floats(-0.2, -0.05))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(params=PANELS, irradiance=st.floats(0.0, 1200.0), temperature=st.floats(-10.0, 60.0))
def test_mpp_oracle_matches_reference(params, irradiance, temperature):
    v_star, p_star = mpp_oracle(params, irradiance, temperature)
    v_ref, p_ref = _reference_mpp(params, irradiance, temperature)
    assert p_star >= p_ref - 1e-9 * (1.0 + p_ref)
    assert abs(v_star - v_ref) <= 1e-4
    assert p_star == pytest.approx(v_star * pv_current(params, v_star, irradiance, temperature),
                                   rel=1e-12, abs=1e-300)
    if p_ref > 1e-9:  # below the power tolerance every voltage is an optimum
        assert _reference_dpdv(params, v_star * (1.0 - 1e-6), irradiance, temperature) > 0.0
        assert _reference_dpdv(params, v_star * (1.0 + 1e-6), irradiance, temperature) < 0.0
    else:
        assert p_star <= 1e-9


def _diode_residual(params, g, temp):
    """The diode equation's relative residual at the oracle's maximum power point,
    |I_ph - I_0 (e^((V + I r_s) / a) - 1) - (V + I r_s) / r_sh - I| / I_ph, and
    whether that point lies in (0, V_oc)."""
    v, _ = mpp_oracle(params, g, temp)
    a, i_ph, i_0 = _thermal(params, g, temp)
    i = pv_current(params, v, g, temp)
    v_j = v + i * params.r_s
    inside = 0.0 < v < open_circuit_voltage(params, g, temp)
    return abs(i_ph - i_0 * np.expm1(v_j / a) - v_j / params.r_sh - i) / i_ph, inside


def _refused(params, g, temp) -> bool:
    try:
        params.check_conditions(np.zeros(1), np.array([g]), np.array([temp]))
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("i_sc_ref, g, refused", [
    (5.4, 300.0, False), (5.4, 1000.0, False), (5.4, 1e6, False), (5.4, 1e-3, False),
    (5.4, 1e20, True), (5.4, 1e30, True), (5.4, 1e-300, True), (5.4e300, 600.0, True)])
def test_refused_conditions_are_where_the_diode_equation_fails(i_sc_ref, g, refused):
    # the residual is at most 1.8e-16 on the shipped conditions; at 1e20 W/m^2
    # the current is the difference of two terms near 5e17 A and the residual
    # is 10; at 1e30 W/m^2, at 1e-300 W/m^2 and with i_sc_ref = 5.4e300 the
    # oracle falls to a voltage near 0 or on it, outside (0, V_oc)
    params = PvParams(i_sc_ref=i_sc_ref)
    with np.errstate(all="ignore"):
        resid, inside = _diode_residual(params, g, 25.0)
    assert (not inside or resid > 1e-8) == refused == _refused(params, g, 25.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(params=PANELS, log_g=st.floats(-20.0, 25.0), temperature=st.floats(-10.0, 60.0))
def test_conditions_the_panel_accepts_solve_the_diode_equation(params, log_g, temperature):
    # a lit condition inside the bounds of check_conditions has its maximum
    # power point in (0, V_oc), where the diode equation holds to the
    # README's relative residual of 1e-8
    g = 10.0 ** log_g
    if not _refused(params, g, temperature):
        resid, inside = _diode_residual(params, g, temperature)
        assert inside and resid <= 1e-8


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


CONDITIONS = st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1200.0)),
                                st.floats(-10.0, 60.0)), min_size=1, max_size=12)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(params=st.sampled_from([PvParams(), PvParams(r_s=0.0, r_sh=math.inf),
                               PvParams(r_s=1.5, r_sh=50.0)]),
       conditions=CONDITIONS, data=st.data())
def test_mpp_oracle_batch_gives_each_condition_its_own_bits(params, conditions, data):
    alone = [mpp_oracle(params, g, temp) for g, temp in conditions]
    assert all(type(v) is float and type(p) is float for v, p in alone)
    irradiance, temperature = np.array(conditions).T
    v_star, p_star = mpp_oracle(params, irradiance, temperature)
    assert v_star.shape == p_star.shape == irradiance.shape
    assert (_bits([v_star, p_star]) == _bits(np.array(alone).T)).all()
    # the batch a condition shares does not change its result
    order = data.draw(st.permutations(range(len(conditions))))
    v_mixed, p_mixed = mpp_oracle(params, irradiance[order], temperature[order])
    assert (_bits([v_mixed, p_mixed]) == _bits([v_star[order], p_star[order]])).all()
    part = order[:data.draw(st.integers(1, len(conditions)))]
    v_part, p_part = mpp_oracle(params, irradiance[part], temperature[part])
    assert (_bits([v_part, p_part]) == _bits([v_star[part], p_star[part]])).all()


def test_mpp_oracle_broadcasts_its_arguments(params):
    v_star, p_star = mpp_oracle(params, [[0.0], [500.0], [1000.0]], [25.0, 35.0])
    assert v_star.shape == p_star.shape == (3, 2)
    assert (v_star[0] == 0.0).all() and (p_star[0] == 0.0).all()
    assert (v_star[2, 0], p_star[2, 0]) == mpp_oracle(params, **REF)


def test_params_validation():
    with pytest.raises(ValueError):
        PvParams(i_sc_ref=-1.0)
    with pytest.raises(ValueError):
        PvParams(r_sh=0.0)
    with pytest.raises(ValueError, match="at 25.0 degC"):
        PvParams(r_sh=5.0)  # i_sc_ref below v_oc_ref / r_sh
    hot = PvParams(temp_coeff_v=-5.0)
    hot.check_temperatures([25.0, 30.0])
    with pytest.raises(ValueError, match="at 35.0 degC"):
        hot.check_temperatures([25.0, 35.0])
    with pytest.raises(ValueError, match="at 35.0 degC"):
        # negative open-circuit voltage and photocurrent: i_0 > 0, a panel dark at any irradiance
        PvParams(temp_coeff_v=-5.0, temp_coeff_i=-1.0).check_temperatures([35.0])


def test_profile_temperature_step():
    profile = EnvProfile(irradiance=[[0.0, 800.0]],
                         temperature=[[0.0, 25.0], [1.0, 35.0]])
    assert profile_eval(profile, 0.5)[1] == 25.0
    assert profile_eval(profile, 1.0)[1] == 35.0  # right-continuous
    assert profile_eval(profile, 1.5)[1] == 35.0


def test_profile_constant_irradiance():
    profile = EnvProfile(irradiance=[[0.0, 800.0]], temperature=[[0.0, 25.0]])
    for t in (0.0, 0.7, 3.0):
        assert profile_eval(profile, t)[0] == 800.0


def test_profile_step_breakpoint_right_continuous():
    profile = EnvProfile(
        irradiance=[[0.0, 700.0], [1.2, 700.0], [1.2, 950.0], [2.0, 950.0]],
        temperature=[[0.0, 25.0]])
    assert profile_eval(profile, 1.1999)[0] == pytest.approx(700.0)
    assert profile_eval(profile, 1.2)[0] == 950.0
    assert profile_eval(profile, 1.3)[0] == 950.0


def test_profile_linear_ramp():
    profile = EnvProfile(irradiance=[[0.0, 600.0], [0.3, 1000.0]],
                         temperature=[[0.0, 25.0]])
    assert profile_eval(profile, 0.15)[0] == pytest.approx(800.0)


def _array_eval(points, t, linear):
    """The breakpoint search as it was written with numpy arrays."""
    ts = np.array([p[0] for p in points])
    vs = np.array([p[1] for p in points])
    i = int(np.searchsorted(ts, t, side="right")) - 1
    if not linear:
        return float(vs[max(i, 0)])
    if i < 0:
        return float(vs[0])
    if i >= ts.size - 1:
        return float(vs[-1])
    t0, t1 = ts[i], ts[i + 1]
    if t1 == t0:
        return float(vs[i + 1])
    if vs[i] == vs[i + 1]:  # a held segment gives its level, not an interpolation of it
        return float(vs[i])
    w = (t - t0) / (t1 - t0)
    return float((1.0 - w) * vs[i] + w * vs[i + 1])


def test_profile_eval_matches_array_search():
    rng = np.random.default_rng(3)
    for _ in range(20):
        times = np.sort(rng.uniform(0.0, 2.0, 8)).round(3)
        times[3] = times[2]  # a step
        levels = rng.uniform(0.0, 1200.0, 8)
        levels[5], levels[7] = levels[4], levels[6]  # two held segments
        irradiance = [[t, v] for t, v in zip(times, levels)]
        temperature = [[t, v] for t, v in zip(times[::2], rng.uniform(-10.0, 60.0, 4))]
        profile = EnvProfile(irradiance=irradiance, temperature=temperature)
        ts = np.concatenate([times, rng.uniform(0.0, 2.5, 50), [0.0, 2.5]])
        for t in ts:
            got = profile_eval(profile, float(t))
            want = (_array_eval(profile.irradiance, t, True),
                    _array_eval(profile.temperature, t, False))
            assert got == want  # bit-identical, not approximately equal
            assert all(type(x) is float for x in got)
        # the whole time array in one call gives each time's own bits
        irradiance, temperature = profile_eval(profile, ts)
        one_by_one = np.array([profile_eval(profile, float(t)) for t in ts]).T
        assert (_bits([irradiance, temperature]) == _bits(one_by_one)).all()


LEVELS = st.floats(0.0, 1200.0)


@st.composite
def held_profiles(draw):
    """Irradiance knots whose level often repeats the one before, with
    duplicated times, and times to evaluate that include every knot."""
    n = draw(st.integers(1, 8))
    steps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0 / 3.0, 0.7]),
                          min_size=n - 1, max_size=n - 1))
    times = np.cumsum([draw(st.sampled_from([0.0, 0.05])), *steps]).tolist()
    levels = [draw(LEVELS)]
    for _ in range(n - 1):
        levels.append(levels[-1] if draw(st.booleans()) else draw(LEVELS))
    evals = draw(st.lists(st.floats(0.0, times[-1] + 0.5), max_size=30))
    return times, levels, times + evals


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=held_profiles())
def test_profile_eval_holds_a_level_exactly_and_keeps_ramp_bits(case):
    # a held segment (equal levels at its two knots) gives its level bit for
    # bit, where (1 - w) v0 + w v1 can miss it by an ulp; a ramp keeps the
    # bits of that interpolation, and times on or past the end knots hold them
    times, levels, ts = case
    profile = EnvProfile(irradiance=list(zip(times, levels)), temperature=[[0.0, 25.0]])
    irr = profile_eval(profile, np.array(ts))[0].tolist()
    for t, got in zip(ts, irr):
        i = bisect.bisect_right(times, t) - 1  # t0 <= t < t1 between knots i and i + 1
        if i < 0 or i == len(times) - 1:
            want = levels[max(i, 0)]
        elif levels[i] == levels[i + 1]:
            want = levels[i]
        else:
            w = (t - times[i]) / (times[i + 1] - times[i])
            want = (1.0 - w) * levels[i] + w * levels[i + 1]
        assert _bits(got) == _bits(want), (t, got, want)
        assert profile_eval(profile, t)[0] == got


@pytest.mark.parametrize("t", [-0.5, math.nan, [0.0, math.nan], [0.1, -1e-300]],
                         ids=["negative", "nan", "nan-in-array", "negative-in-array"])
def test_profile_eval_refuses_a_time_that_is_not_nonnegative(t):
    # a NaN time would otherwise search to the last breakpoint's value
    profile = EnvProfile(irradiance=[[0.0, 800.0], [1.0, 900.0]], temperature=[[0.0, 25.0]])
    with pytest.raises(ValueError, match="time must be nonnegative"):
        profile_eval(profile, t)


def test_profile_validation():
    with pytest.raises(ValueError):
        EnvProfile(irradiance=[[0.0, -5.0]], temperature=[[0.0, 25.0]])
    with pytest.raises(ValueError):
        EnvProfile(irradiance=[[1.0, 5.0], [0.0, 5.0]], temperature=[[0.0, 25.0]])


def test_poly_basis_regressor_values():
    basis = pv_poly_reward(degree=3).unknown_basis
    np.testing.assert_allclose(basis(2.0), [1.0, 2.0, 4.0, 8.0])
    np.testing.assert_allclose(basis([2.0, -1.0]), [[1.0, 2.0, 4.0, 8.0],
                                                    [1.0, -1.0, 1.0, -1.0]])
    # s = (v - shift) / scale
    np.testing.assert_allclose(pv_poly_reward(degree=2, v_scale=2.0, v_shift=1.0)
                               .unknown_basis(5.0), [1.0, 2.0, 4.0])
    for bad in (dict(degree=1), dict(v_scale=0.0), dict(v_scale=math.inf),
                dict(v_shift=math.nan)):
        with pytest.raises(ValueError):
            pv_poly_reward(**bad)


def test_poly_fit_represents_power_curve(params):
    # the claimed model class must actually fit the plant it abstracts
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.1 * voc, 0.95 * voc, 400)
    power = grid * pv_current(params, grid, **REF)
    s = (grid - 22.0) / 22.0
    fit = np.polyval(np.polyfit(s, power, 5), s)
    rel_rms = np.sqrt(np.mean((fit - power) ** 2) / np.mean(power ** 2))
    assert rel_rms < 0.01


def test_poly_argmax_matches_brute_force():
    rng = np.random.default_rng(0)
    s_lo, s_hi = -0.9, 0.95
    grid = np.linspace(s_lo, s_hi, 20_001)
    for _ in range(200):
        th = rng.uniform(-50.0, 50.0, size=6)
        got = _poly_argmax_batch(th[None, :], s_lo, s_hi, 22.0, 22.0)[0][0]
        vals = np.polyval(th[::-1], grid)
        best = vals.max()
        at_got = np.polyval(th[::-1], (got - 22.0) / 22.0)
        assert at_got >= best - 1e-9 * max(1.0, abs(best))


def test_warm_start_refuses_two_roots_collapsed_onto_one():
    # p'(s) = -(s - 0.1)(s - a)(s - b) with a close pair a, b: the maximum
    # on [-1, 1] is at 0.1.  Two starting roots on b both stay there, so every
    # Newton step is tiny and the root at 0.1 would be missed; the
    # roots' sum (Vieta) refuses the row and the eigenvalues find it.
    roots = np.array([0.1, 0.98619106, 0.98647133])
    deriv = -np.poly(roots)[::-1]
    thetas = np.concatenate([[0.0], deriv / np.arange(1, 5)])[None, :]
    start = np.array([0.98619106, 0.98647133, 0.98647133 + 1e-13j])[:, None]
    cold, cold_roots = _poly_argmax_batch(thetas, -1.0, 1.0, 1.0)
    warm, warm_roots = _poly_argmax_batch(thetas, -1.0, 1.0, 1.0, 0.0, start)
    assert warm[0] == cold[0] == pytest.approx(0.1)
    np.testing.assert_array_equal(warm_roots, cold_roots)


def test_warm_start_refuses_a_root_started_where_the_slope_vanishes():
    # p'(s) = 3 s^2 - 3 has p''(0) = 0: a root started at 0 takes an
    # infinite Newton step, which must refuse the row, not accept it with a
    # root at infinity and lose the maximum at -1
    thetas = np.array([[0.0, -3.0, 0.0, 1.0]])
    cold, cold_roots = _poly_argmax_batch(thetas, -2.0, 1.5, 1.0)
    for start in ([0.0, 0.0], [0.0, 0.9]):
        warm, warm_roots = _poly_argmax_batch(thetas, -2.0, 1.5, 1.0, 0.0,
                                              np.array(start, dtype=complex)[:, None])
        assert warm[0] == cold[0] == -1.0
        np.testing.assert_array_equal(warm_roots, cold_roots)


def test_warm_argmax_of_a_block_does_not_depend_on_the_rows_stacked_with_it():
    # two blocks of the shipped prior's polynomials, each started from the
    # roots of a perturbed copy: the near start settles in fewer Newton
    # sweeps than the far one, and stacking the blocks must not give the
    # near block the far block's extra sweeps
    from dcee import builtin_config
    prior = builtin_config("mppt")["ensemble"]
    rng = np.random.default_rng(3)
    blocks, starts = [], []
    for drift in (1e-9, 1e-3):
        thetas = rng.uniform(prior["prior_low"], prior["prior_high"], size=(50, 6))
        moved = thetas * (1.0 + drift * rng.standard_normal(thetas.shape))
        blocks.append(thetas)
        starts.append(_poly_argmax_batch(moved, -1.0, 1.0, 22.0, 22.0)[1])
    optima, roots = _poly_argmax_batch(np.vstack(blocks), -1.0, 1.0, 22.0, 22.0,
                                       np.hstack(starts))
    for b, (thetas, start) in enumerate(zip(blocks, starts)):
        alone = _poly_argmax_batch(thetas, -1.0, 1.0, 22.0, 22.0, start)
        rows = slice(50 * b, 50 * (b + 1))
        np.testing.assert_array_equal(optima[rows], alone[0])
        np.testing.assert_array_equal(roots[:, rows], alone[1])


def _warm_blocks(seed):
    """The shipped model, 50 prior draws A, and A drifted by 1e-6 relative (B)."""
    model, low, high = _shipped_model_and_prior()
    rng = np.random.default_rng(seed)
    a = rng.uniform(low, high, size=(50, 6))
    return model, a, a * (1.0 + 1e-6 * rng.standard_normal(a.shape))


def _solved_rows(monkeypatch):
    """Spy on ``_poly_argmax_batch``: the list of the row counts it solves."""
    argmax, solved = pv._poly_argmax_batch, []

    def spy(thetas, *args):
        solved.append(len(thetas))
        return argmax(thetas, *args)

    monkeypatch.setattr(pv, "_poly_argmax_batch", spy)
    return solved


def _memory(model, n_seeds=1):
    """A run's memory of the model's optimum map, as the tick loop makes it."""
    return _MapMemory(model.optimum_step, n_seeds, model.dim)


def test_optimum_step_is_pure():
    # the same rows and state give the same bits whatever was called before,
    # on this model or a fresh one, and no argument is written to
    model, a, b = _warm_blocks(10)
    cold = model.optimum_step(a, None, None)
    np.testing.assert_array_equal(cold[0], model.optimum_map_batch(a))
    np.testing.assert_array_equal(cold[2], cold[1])  # a cold solve starts the next from its roots
    args = (b, cold[1], cold[2])
    kept = [x.copy() for x in args]
    first = model.optimum_step(*args)
    model.optimum_step(2.0 * b - a, *first[1:])
    _memory(model)(b)
    for again in (model.optimum_step(*args),
                  pv_poly_reward(5, (2.0, 43.0), 22.0, 22.0).optimum_step(*args)):
        for x, y in zip(first, again):
            np.testing.assert_array_equal(x, y)
    for x, y in zip(args, kept):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(first[2], 2.0 * first[1] - cold[1])


def test_warm_map_repeated_call_leaves_the_next_call_as_it_was():
    # the calls A, A, B give B the bits that A, B give: the repeat of A
    # advances no root history (a first call P gives A a history, from
    # which B starts extrapolated)
    model, a, b = _warm_blocks(11)
    p = 2.0 * a - b
    memory, direct = _memory(model), _memory(model)
    for thetas in (p, a, a):
        memory(thetas)
    for thetas in (p, a):
        direct(thetas)
    np.testing.assert_array_equal(memory(b), direct(b))


def test_warm_map_repeated_call_returns_the_last_optimum_unsolved(monkeypatch):
    model, a, b = _warm_blocks(12)
    solved = _solved_rows(monkeypatch)
    memory = _memory(model)
    memory(b)
    first = memory(a)
    again = memory(a.copy())
    np.testing.assert_array_equal(again, first)
    again[:] = np.nan  # each call's array is its caller's own
    np.testing.assert_array_equal(memory(a), first)
    assert solved == [50, 50]


def test_warm_map_partly_repeated_block_solves_only_the_rows_that_moved(monkeypatch):
    # rows 0-24 repeat A's bits in the second call: they get A's optima, and
    # their history does not advance, so the third call gives them the bits
    # of a memory that never saw the second call
    model, a, b = _warm_blocks(13)
    mixed = np.vstack([a[:25], b[25:]])
    c = b * (1.0 + 1e-6 * np.random.default_rng(14).standard_normal(b.shape))
    solved = _solved_rows(monkeypatch)
    memory = _memory(model)
    first, second, third = memory(a), memory(mixed), memory(c)
    assert solved == [50, 25, 50]
    np.testing.assert_array_equal(second[:25], first[:25])
    memory = _memory(model)
    memory(a)
    np.testing.assert_array_equal(third[:25], memory(c)[:25])
    memory = _memory(model)  # the moved rows have the history of rows that moved
    memory(a)
    np.testing.assert_array_equal(second[25:], memory(b)[25:])


def test_warm_map_partly_repeated_block_after_all_real_roots():
    # a cold solve whose derivative roots are all real (every row of a
    # quadratic) gets a real array of roots from the eigenvalues, and the step
    # hands them back complex; a later call that solves only the moved row
    # still gives it the bits it gets when every row moves
    model = pv_poly_reward(2, (-1.0, 1.0))
    a = np.array([[0.0, 1.0, -1.0], [0.5, -0.3, -2.0]])
    b = a * (1.0 + 1e-6)
    assert np.isrealobj(pv._poly_argmax_batch(a, -1.0, 1.0, 1.0)[1])
    _, roots, ahead = model.optimum_step(a, None, None)
    assert roots.dtype == ahead.dtype == complex
    part, whole = _memory(model), _memory(model)
    part(a)
    whole(a)
    np.testing.assert_array_equal(part(np.vstack([a[:1], b[1:]]))[1], whole(b)[1])


def test_memory_takes_over_rows_solved_two_and_four_calls_back(monkeypatch):
    # a period-2 cycle A, B, A, B solves each row once; after four solves
    # A, B, C, D a repeat of A is taken over from four solves back, and the
    # solve of E that follows replaces A's entry, the oldest, not B's; a
    # taken-over row also takes over its state: A, B, A, C starts C from A's
    model, a, b = _warm_blocks(15)
    rng = np.random.default_rng(16)
    c, d, e = (b * (1.0 + 1e-6 * rng.standard_normal(b.shape)) for _ in range(3))
    solved = _solved_rows(monkeypatch)
    memory = _memory(model)
    cycle = [memory(x) for x in (a, b, a, b)]
    assert solved == [50, 50]
    for x, y in zip(cycle[:2], cycle[2:]):
        np.testing.assert_array_equal(x, y)
    solved.clear()
    memory = _memory(model)
    out = [memory(x) for x in (a, b, c, d, a, e, b)]
    assert solved == [50] * 5
    np.testing.assert_array_equal(out[4], out[0])
    np.testing.assert_array_equal(out[6], out[1])
    memory = _memory(model)
    after_a = model.optimum_step(a, None, None)
    for x in (a, b, a):
        memory(x)
    np.testing.assert_array_equal(memory(c), model.optimum_step(c, *after_a[1:])[0])


def test_memory_reach_stops_at_a_taken_over_row_a_later_solve_replaced():
    # A, B, C, D, A, E: the solve of E replaces the entry of A taken over one call
    # before, so computing A, E again would solve A anew: the memory reaches one
    # call back.  That next A is solved from E's state and kept, and then the
    # cycle A, E computed once more gives its bits and keeps nothing new
    model, a, b = _warm_blocks(17)
    rng = np.random.default_rng(18)
    c, d, e = (b * (1.0 + 1e-6 * rng.standard_normal(b.shape)) for _ in range(3))
    memory = _memory(model)
    out = [memory(x) for x in (a, b, c, d, a, e)]
    np.testing.assert_array_equal(out[4], out[0])
    assert memory.reach() == 1
    cycle = [memory(x) for x in (a, e)]
    assert memory.reach() >= 2
    kept = memory.rows.copy()
    for x, y in zip(cycle, [memory(x) for x in (a, e)]):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(memory.rows, kept)


def test_shipped_run_warm_starts_without_eigenvalue_fallbacks(monkeypatch):
    # every tick after the first refines the roots of the ticks before, over
    # the whole shipped horizon; the spy counts the rows sent to the
    # companion eigenvalues instead
    from dcee import builtin_config, config_from_dict, pv, run_scenario
    eig, rows = pv._companion_roots, []

    def counted(monic):
        rows.append(monic.shape[1])
        return eig(monic)

    monkeypatch.setattr(pv, "_companion_roots", counted)
    d = builtin_config("mppt")
    d["run"]["seed"] = 1
    run_scenario(config_from_dict(d))
    assert rows == [50]  # the first tick, cold


def test_pv_poly_reward_optimum_matches_fit(params):
    # the optimum map applied to fitted coefficients lands near the true MPP
    model = pv_poly_reward(degree=5, v_range=(2.0, 43.0), v_scale=22.0,
                           v_shift=22.0)
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.1 * voc, 0.95 * voc, 400)
    power = grid * pv_current(params, grid, **REF)
    coef = np.polyfit((grid - 22.0) / 22.0, power, 5)[::-1]
    v_star, _ = mpp_oracle(params, **REF)
    assert abs(model.optimum_map_batch(coef[None, :])[0] - v_star) < 0.5


def _shipped_model_and_prior():
    from dcee import builtin_config
    ens = builtin_config("mppt")["ensemble"]
    model = pv_poly_reward(degree=5, v_range=(2.0, 43.0), v_scale=22.0,
                           v_shift=22.0)
    return model, np.array(ens["prior_low"]), np.array(ens["prior_high"])


def test_pv_poly_basis_jacobian_matches_difference():
    model, _, _ = _shipped_model_and_prior()
    h = 1e-6
    for v in (4.0, 16.0, 22.0, 35.5, 42.0):
        fd = (model.unknown_basis([v + h]) - model.unknown_basis([v - h])) / (2 * h)
        np.testing.assert_allclose(model.basis_jacobian([v]), fd, rtol=1e-7, atol=1e-9)


def test_pv_poly_optimum_jacobian_matches_difference():
    model, low, high = _shipped_model_and_prior()
    thetas = np.random.default_rng(4).uniform(low, high, size=(40, 6))
    optima = model.optimum_map_batch(thetas)
    jac = model.optimum_jacobian(thetas, optima)
    assert jac.shape == (40, 6)
    h = 1e-6
    for j in range(6):
        step = np.zeros(6)
        step[j] = h
        fd = (model.optimum_map_batch(thetas + step)
              - model.optimum_map_batch(thetas - step)) / (2 * h)
        np.testing.assert_allclose(jac[:, j], fd, rtol=1e-5, atol=1e-8)


def test_pv_poly_optimum_jacobian_zero_at_endpoint_maximum():
    model, low, high = _shipped_model_and_prior()
    thetas = np.vstack([
        [0.0, 3.0, -1.0, 0.0, 0.0, 0.0],    # rising, concave: maximum at the top end
        [0.0, -3.0, -1.0, 0.0, 0.0, 0.0],   # falling, concave: maximum at the bottom end
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],     # convex: an endpoint, p'' > 0
        [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],    # -s^4: interior maximum with p'' = 0
        0.5 * (low + high),                 # interior maximum, p'' < 0
    ])
    optima = model.optimum_map_batch(thetas)
    assert optima[0] == 43.0 and optima[1] == 2.0 and optima[3] == 22.0
    jac = model.optimum_jacobian(thetas, optima)
    assert np.all(jac[:4] == 0.0)
    assert np.all(jac[4, 1:] != 0.0) and jac[4, 0] == 0.0


def test_pv_poly_optimum_jacobian_rows_do_not_depend_on_their_batch():
    # the endpoint, p'' > 0, p'' = 0 and interior rows stacked with prior
    # draws: each row's jacobian is that row's alone, and no masked-out row
    # divides by its curvature (a warning would be an error here)
    model, low, high = _shipped_model_and_prior()
    special = np.vstack([
        [0.0, 3.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, -3.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
        0.5 * (low + high),
    ])
    draws = np.random.default_rng(8).uniform(low, high, size=(40, 6))
    thetas = np.vstack([draws[:20], special, draws[20:]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jac = model.optimum_jacobian(thetas, model.optimum_map_batch(thetas))
        for i, row in enumerate(thetas):
            alone = model.optimum_jacobian(row[None], model.optimum_map_batch(row[None]))
            np.testing.assert_array_equal(jac[i], alone[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pv_poly_optimum_map_rejects_non_finite_coefficients(bad):
    model, low, high = _shipped_model_and_prior()
    thetas = np.random.default_rng(9).uniform(low, high, size=(50, 6))
    thetas[17, 3] = bad
    with pytest.raises(DomainError) as err:
        model.optimum_map_batch(thetas)
    assert np.flatnonzero(err.value.rows).tolist() == [17]  # the refused rows
    memory = _memory(model, n_seeds=2)  # a run's memory refuses them too, from any seed
    memory(np.where(np.isfinite(thetas), thetas, 0.0))
    with pytest.raises(DomainError) as err:  # a warm call, started from those roots
        memory(thetas[::-1])
    assert np.flatnonzero(err.value.rows).tolist() == [32]
