import numpy as np
import pytest

from dcee import (EnvProfile, PolyBasis, PvParams, mpp_oracle, optimum_of,
                  profile_eval, pv_current, pv_poly_reward, pv_power)
from dcee.pv import _current_grid, _poly_argmax_batch, open_circuit_voltage

REF = dict(irradiance=1000.0, temperature=25.0)


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


def test_power_zero_at_interval_ends(params):
    voc = open_circuit_voltage(params, **REF)
    assert pv_power(params, 0.0, **REF) == 0.0
    assert pv_power(params, voc, **REF) == pytest.approx(0.0, abs=1e-5)


def test_power_peak_is_interior_and_unique(params):
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.0, voc, 2000)
    power = grid * _current_grid(params, grid, **REF)
    i = int(np.argmax(power))
    assert 0 < i < grid.size - 1
    sign_changes = np.sum(np.diff(np.sign(np.diff(power))) != 0)
    assert sign_changes == 1  # unimodal


def test_current_strictly_decreasing(params):
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.0, voc * 0.999, 500)
    cur = _current_grid(params, grid, **REF)
    assert np.all(np.diff(cur) < 0)


def test_lambertw_grid_matches_bracketed_solver(params):
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.0, voc, 40)
    fast = _current_grid(params, grid, **REF)
    slow = np.array([pv_current(params, v, **REF) for v in grid])
    assert np.abs(fast - slow).max() < 1e-8


def test_mpp_oracle_definition(params):
    v_star, p_star = mpp_oracle(params, **REF)
    voc = open_circuit_voltage(params, **REF)
    for v in np.linspace(0.0, voc, 200):
        assert p_star >= pv_power(params, v, **REF) - 1e-9


def test_mpp_oracle_monotone_in_irradiance(params):
    _, p_hi = mpp_oracle(params, 1000.0, 25.0)
    _, p_lo = mpp_oracle(params, 600.0, 25.0)
    assert p_lo < p_hi


def test_mpp_voltage_drops_with_temperature(params):
    v_cool, _ = mpp_oracle(params, 1000.0, 25.0)
    v_hot, _ = mpp_oracle(params, 1000.0, 35.0)
    assert v_hot < v_cool


def test_mpp_oracle_grid_refinement_accuracy(params):
    # golden refinement is as good as a 10x finer grid scan
    v_star, _ = mpp_oracle(params, **REF)
    voc = open_circuit_voltage(params, **REF)
    fine = np.linspace(0.0, voc, 10_000)
    v_fine = fine[np.argmax(fine * _current_grid(params, fine, **REF))]
    assert abs(v_star - v_fine) < 1e-2  # within one fine-grid cell


def test_params_validation():
    with pytest.raises(ValueError):
        PvParams(i_sc_ref=-1.0)
    with pytest.raises(ValueError):
        PvParams(r_sh=0.0)


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


def test_profile_validation():
    with pytest.raises(ValueError):
        EnvProfile(irradiance=[[0.0, -5.0]], temperature=[[0.0, 25.0]])
    with pytest.raises(ValueError):
        EnvProfile(irradiance=[[1.0, 5.0], [0.0, 5.0]], temperature=[[0.0, 25.0]])


def test_poly_basis_regressor_values():
    basis = PolyBasis(degree=3)
    np.testing.assert_allclose(basis([2.0]), [1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError):
        PolyBasis(degree=1)


def test_poly_fit_represents_power_curve(params):
    # the claimed model class must actually fit the plant it abstracts
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.1 * voc, 0.95 * voc, 400)
    power = grid * _current_grid(params, grid, **REF)
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
        got = _poly_argmax_batch(th[None, :], s_lo, s_hi, 22.0, 22.0)[0, 0]
        vals = np.polyval(th[::-1], grid)
        best = vals.max()
        at_got = np.polyval(th[::-1], (got - 22.0) / 22.0)
        assert at_got >= best - 1e-9 * max(1.0, abs(best))


def test_pv_poly_reward_optimum_matches_fit(params):
    # the optimum map applied to fitted coefficients lands near the true MPP
    model = pv_poly_reward(degree=5, v_range=(2.0, 43.0), v_scale=22.0,
                           v_shift=22.0)
    voc = open_circuit_voltage(params, **REF)
    grid = np.linspace(0.1 * voc, 0.95 * voc, 400)
    power = grid * _current_grid(params, grid, **REF)
    coef = np.polyfit((grid - 22.0) / 22.0, power, 5)[::-1]
    v_star, _ = mpp_oracle(params, **REF)
    assert abs(optimum_of(model, coef)[0] - v_star) < 0.5


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
    assert jac.shape == (40, 1, 6)
    h = 1e-6
    for j in range(6):
        step = np.zeros(6)
        step[j] = h
        fd = (model.optimum_map_batch(thetas + step)
              - model.optimum_map_batch(thetas - step)) / (2 * h)
        np.testing.assert_allclose(jac[:, :, j], fd, rtol=1e-5, atol=1e-8)


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
    assert optima[0, 0] == 43.0 and optima[1, 0] == 2.0 and optima[3, 0] == 22.0
    jac = model.optimum_jacobian(thetas, optima)
    assert np.all(jac[:4] == 0.0)
    assert np.all(jac[4, 0, 1:] != 0.0) and jac[4, 0, 0] == 0.0
