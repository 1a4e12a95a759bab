import numpy as np
import pytest

import dcee.servo as servo_mod
from dcee import (Ensemble, LinearPlant, NoiseSpec, RegulationError, ServoGains,
                  ServoState, adapt, builtin_config, check_rank, config_from_dict,
                  design_gains, init_ensemble, quadratic_reward, run_scenario,
                  sample_noise, servo_step, solve_regulation, stabilizing_gain)
from dcee.harness import _spawn_rngs

A = np.array([[0.0, 1.0], [2.0, 1.0]])
B = np.array([[1.0], [1.0]])
C = np.array([[0.0, 1.0]])


def test_check_rank_examples():
    assert check_rank(A, B, C) is True
    assert check_rank([[1.0]], [[0.0]], [[1.0]]) is False
    assert check_rank([[0.0]], [[1.0]], [[1.0]]) is True


def test_solve_regulation_reference_system():
    Psi, G = solve_regulation(A, B, C)
    assert np.abs(Psi.ravel() - np.array([1.0 / 3.0, 1.0])).max() < 1e-12
    assert abs(G.ravel()[0] + 2.0 / 3.0) < 1e-12


def test_solve_regulation_scalar_cases():
    Psi, G = solve_regulation([[0.0]], [[1.0]], [[1.0]])
    assert Psi[0, 0] == pytest.approx(1.0) and G[0, 0] == pytest.approx(1.0)
    Psi, G = solve_regulation([[1.0]], [[1.0]], [[1.0]])
    assert Psi[0, 0] == pytest.approx(1.0) and G[0, 0] == pytest.approx(0.0)


def test_solve_regulation_rejects_rank_deficiency():
    with pytest.raises(RegulationError, match="rank"):
        solve_regulation([[1.0]], [[0.0]], [[1.0]])


def test_stabilizing_gain_reference_system():
    K = stabilizing_gain(A, B, [0.4, 0.7])
    assert np.abs(K.ravel() - np.array([-1.24, 1.14])).max() < 1e-2
    eig = np.sort(np.linalg.eigvals(A - B @ K).real)
    assert np.abs(eig - np.array([0.4, 0.7])).max() < 1e-8


def test_stabilizing_gain_scalar_cases():
    assert stabilizing_gain([[0.0]], [[1.0]], [0.0])[0, 0] == pytest.approx(0.0)
    assert stabilizing_gain([[2.0]], [[1.0]], [0.5])[0, 0] == pytest.approx(1.5)


def test_stabilizing_gain_rejections():
    with pytest.raises(ValueError):
        stabilizing_gain([[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]], [0.1, 0.2])
    with pytest.raises(ValueError, match="supply K directly"):
        stabilizing_gain(A, np.hstack([B, B + 1.0]), [0.1, 0.2])
    with pytest.raises(ValueError):
        stabilizing_gain(A, B, [0.4 + 0.1j, 0.7])


def test_design_gains_validates_stability():
    gains = design_gains(A, B, C, poles=[0.4, 0.7])
    assert np.max(np.abs(np.linalg.eigvals(A - B @ gains.K))) < 1.0
    with pytest.raises(RegulationError):
        design_gains(A, B, C, K=[[0.0, 0.0]])  # open loop is unstable here


def test_plant_validation():
    with pytest.raises(ValueError):
        LinearPlant(A=A, B=np.zeros((2, 1)), C=C, x=np.zeros(2))  # uncontrollable
    with pytest.raises(ValueError):
        LinearPlant(A=A, B=B, C=C, x=np.zeros(3))


def test_servo_step_equilibrium():
    model = quadratic_reward()
    gains = design_gains(A, B, C, poles=[0.4, 0.7])
    ens = Ensemble(thetas=np.full((5, 1), 1.0), rates=np.full(5, 0.005))
    plant = LinearPlant(A=A, B=B, C=C, x=gains.Psi[:, 0].copy())
    servo = ServoState(xi=[1.0])
    new_plant, new_servo, u, diag = servo_step(plant, servo, gains, ens, model,
                                               delta=0.5)
    assert diag.u[0] == 0.0
    assert u[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(new_plant.x, plant.x, atol=1e-12)
    assert new_servo.xi[0] == 1.0


def test_servo_step_zero_gains_run_open_loop():
    model = quadratic_reward()
    gains = ServoGains(Psi=np.zeros((2, 1)), G=np.zeros((1, 1)),
                       K=np.zeros((1, 2)))
    ens = Ensemble(thetas=np.full((3, 1), 1.0), rates=np.full(3, 0.005))
    x0 = np.array([0.3, -0.2])
    plant = LinearPlant(A=A, B=B, C=C, x=x0.copy())
    new_plant, _, u, _ = servo_step(plant, ServoState(xi=[1.0]), gains, ens,
                                    model, delta=0.5)
    assert u[0] == 0.0
    np.testing.assert_allclose(new_plant.x, A @ x0)


def test_equilibrium_tracking_constant_reference():
    # holding the internal reference constant drives the loop to x = Psi r
    gains = design_gains(A, B, C, poles=[0.4, 0.7])
    r = 1.7
    x = np.zeros(2)
    feed = gains.G + gains.K @ gains.Psi
    for _ in range(500):
        u = -(gains.K @ x) + feed @ np.array([r])
        x = A @ x + B @ u
    np.testing.assert_allclose(x, gains.Psi[:, 0] * r, atol=1e-8)
    assert abs((C @ x)[0] - r) < 1e-8


def test_noise_free_run_converges():
    d = builtin_config("quadratic-linear")
    d["noise"]["variance"] = 0.0
    d["run"]["horizon"] = 3500
    tr = run_scenario(config_from_dict(d))
    # measured convergence point of the noise-free simulation oracle
    assert abs(tr.column("y")[-1] - 1.0) < 1e-6
    assert abs(tr.column("theta_mean_0")[-1] - 1.0) < 1e-6


def test_tracking_error_vanishes_when_reference_settles():
    d = builtin_config("quadratic-linear")
    d["noise"]["variance"] = 0.0
    d["run"]["horizon"] = 4000
    tr = run_scenario(config_from_dict(d))
    err = np.abs(tr.column("err_track")[-400:])
    assert err.max() < 1e-6


def test_regulation_residual_invariants():
    rng = np.random.default_rng(17)
    accepted = 0
    while accepted < 20:
        n = int(rng.integers(1, 5))
        q = 1
        A_r = rng.normal(size=(n, n))
        B_r = rng.normal(size=(n, 1))
        C_r = rng.normal(size=(q, n))
        if not check_rank(A_r, B_r, C_r):
            continue
        Psi, G = solve_regulation(A_r, B_r, C_r)
        assert np.linalg.norm((A_r - np.eye(n)) @ Psi + B_r @ G) < 1e-10
        assert np.linalg.norm(C_r @ Psi - np.eye(q)) < 1e-10
        accepted += 1


def _servo_loop_columns(d: dict, horizon: int) -> dict:
    """Run adapt + servo_step on the harness's random streams for config d."""
    rng_init, rng_noise = _spawn_rngs(d["run"]["seed"])
    ens_cfg = d["ensemble"]
    ens = init_ensemble(ens_cfg["n"], ens_cfg["prior_low"], ens_cfg["prior_high"],
                        ens_cfg["rate"], rng_init)
    model = quadratic_reward(known_gain=2.0, y_range=(-4.0, 4.0))
    noise = NoiseSpec(d["noise"]["variance"])
    gains = design_gains(A, B, C, poles=[0.4, 0.7])
    plant = LinearPlant(A=A, B=B, C=C, x=d["plant"]["x0"])
    servo = ServoState(xi=d["controller"]["xi0"])
    xi_limits = (-4.0, 4.0)
    cols = {name: [] for name in ("y", "xi", "u", "theta_mean_0", "grad_explore_norm")}
    for _ in range(horizon):
        y = float(plant.output()[0])
        j = 2.0 * y - 1.0 * (y * y) + sample_noise(noise, rng_noise)
        ens = adapt(ens, [y], j, model)
        cols["y"].append(y)
        cols["xi"].append(servo.xi[0])
        cols["theta_mean_0"].append(ens.thetas.mean(axis=0)[0])
        plant, servo, u, diag = servo_step(plant, servo, gains, ens, model,
                                           delta=0.5, xi_limits=xi_limits)
        cols["u"].append(u[0])
        cols["grad_explore_norm"].append(abs(diag.explore_grad[0]))
    return {name: np.array(vals) for name, vals in cols.items()}


def test_servo_step_matches_scenario_loop():
    # the public adapt + servo_step ops reproduce the scenario loop's
    # inlined arithmetic bit for bit over the whole horizon
    horizon = 400
    for seed in (1, 7):
        d = builtin_config("quadratic-linear")
        d["run"].update(horizon=horizon, seed=seed)
        tr = run_scenario(config_from_dict(d))
        for name, got in _servo_loop_columns(d, horizon).items():
            assert np.array_equal(got, tr.column(name)[:horizon]), (seed, name)


def test_servo_step_matches_scenario_loop_with_floored_estimators():
    # slow learners drawn below theta_floor stay there, so predictions are
    # clamped and their gradient terms must be zeroed in both paths
    horizon = 100
    d = builtin_config("quadratic-linear")
    d["ensemble"].update(prior_low=[-2.0], rate=1e-5)
    d["run"].update(horizon=horizon)
    tr = run_scenario(config_from_dict(d))
    for name, got in _servo_loop_columns(d, horizon).items():
        assert np.array_equal(got, tr.column(name)[:horizon]), name


def test_servo_step_does_not_revalidate_plant(monkeypatch):
    model = quadratic_reward()
    gains = design_gains(A, B, C, poles=[0.4, 0.7])
    plant = LinearPlant(A=A, B=B, C=C, x=[1.2, 3.6])
    servo = ServoState(xi=[3.6])
    ens = Ensemble(thetas=np.linspace(0.5, 2.0, 10)[:, None], rates=np.full(10, 0.005))
    calls = []
    real = servo_mod._controllable
    monkeypatch.setattr(servo_mod, "_controllable",
                        lambda *a: calls.append(a) or real(*a))
    for _ in range(50):
        plant, servo, _, _ = servo_step(plant, servo, gains, ens, model, delta=0.5)
    assert calls == []
    assert np.array_equal(plant.A, A) and plant.x.shape == (2,)
