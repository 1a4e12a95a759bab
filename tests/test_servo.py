"""Regulation design, and the servo step the quadratic-linear loop takes.

The step (reference first, then  u = -K x + (G + K Psi) xi',  then the
plant) has no function of its own: ``dcee.harness`` runs it every tick,
so the step tests run short scenarios and read the trace.
"""

import numpy as np
import pytest

import dcee.servo as servo_mod
from dcee import (LinearPlant, NoiseSpec, RegulationError, ServoGains, builtin_config,
                  config_from_dict, design_gains, exploit_grad, harness, init_ensemble,
                  moments, quadratic_reward, run_scenario, run_seeds, sample_noise,
                  solve_regulation, stabilizing_gain)
from reference import adapt_at, predict_at

A = np.array([[0.0, 1.0], [2.0, 1.0]])
B = np.array([[1.0], [1.0]])
C = np.array([[0.0, 1.0]])


def test_check_rank_examples():
    # solve_regulation checks that [[A - I, B], [C, 0]] has full rank n + q
    solve_regulation(A, B, C)
    solve_regulation([[0.0]], [[1.0]], [[1.0]])
    with pytest.raises(RegulationError, match="full rank"):
        solve_regulation([[1.0]], [[0.0]], [[1.0]])


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


def test_plant_rejects_nearly_uncontrollable_pair():
    # B is 1e-11 off an eigenvector of A: the controllability matrix has
    # singular-value ratio 1.2e-12, under the RANK_RTOL every rank test uses
    with pytest.raises(ValueError, match="controllable"):
        LinearPlant(A, [[1.0], [2.0 + 1e-11]], C, [0.0, 0.0])


def _collapsed_at_truth(x0, xi0):
    """Noise-free quadratic config whose estimators start (and stay) at the
    true curvature 1."""
    d = builtin_config("quadratic-linear")
    d["plant"]["x0"] = list(x0)
    d["ensemble"].update(prior_low=[1.0], prior_high=[1.0])
    d["controller"]["xi0"] = [xi0]
    d["noise"]["variance"] = 0.0
    d["run"]["horizon"] = 1
    return d


def test_servo_step_equilibrium():
    gains = design_gains(A, B, C, poles=[0.4, 0.7])
    tr = run_scenario(config_from_dict(_collapsed_at_truth(gains.Psi[:, 0], 1.0)))
    assert tr.column("xi")[1] == 1.0
    assert tr.column("u")[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
    for name in ("x0", "x1"):
        assert tr.column(name)[1] == pytest.approx(tr.column(name)[0], abs=1e-12)


def test_servo_step_zero_gains_run_open_loop(monkeypatch):
    zero = ServoGains(Psi=np.zeros((2, 1)), G=np.zeros((1, 1)), K=np.zeros((1, 2)))
    monkeypatch.setattr(harness, "design_gains", lambda *args, **kwargs: zero)
    x0 = np.array([0.3, 1.0])
    tr = run_scenario(config_from_dict(_collapsed_at_truth(x0, 1.0)))
    assert tr.column("u")[0] == 0.0
    np.testing.assert_allclose([tr.column("x0")[1], tr.column("x1")[1]], A @ x0)


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
        try:
            Psi, G = solve_regulation(A_r, B_r, C_r)
        except RegulationError as exc:
            # skip a rank-deficient draw; a residual failure fails the test
            assert "full rank" in str(exc)
            continue
        assert np.linalg.norm((A_r - np.eye(n)) @ Psi + B_r @ G) < 1e-10
        assert np.linalg.norm(C_r @ Psi - np.eye(q)) < 1e-10
        accepted += 1


def _servo_loop_columns(d: dict, horizon: int) -> dict:
    """Replay the scenario loop's ticks for config d with the unbatched ops."""
    # a seed splits into one stream for the ensemble draw and one for the noise
    rng_init, rng_noise = map(np.random.default_rng,
                              np.random.SeedSequence(d["run"]["seed"]).spawn(2))
    ens_cfg = d["ensemble"]
    ens = init_ensemble(ens_cfg["n"], ens_cfg["prior_low"], ens_cfg["prior_high"],
                        ens_cfg["rate"], rng_init)
    model = quadratic_reward(known_gain=2.0, y_range=(-4.0, 4.0))
    noise = sample_noise(NoiseSpec(d["noise"]["variance"]), rng_noise, horizon)
    gains = design_gains(A, B, C, poles=[0.4, 0.7])
    feed = gains.G + gains.K @ gains.Psi
    x = np.array(d["plant"]["x0"])
    xi = np.array(d["controller"]["xi0"])
    cols = {name: [] for name in ("y", "xi", "u", "theta_mean_0", "grad_explore_norm",
                                  "x0", "x1")}
    for k in range(horizon):
        y = (C @ x)[0]
        j = 2.0 * y - 1.0 * (y * y) + noise[k]
        ens = adapt_at(ens, [y], j, model)
        ps = predict_at(ens, moments(ens.thetas)[1], xi, model)
        for name, value in (("y", y), ("xi", xi[0]), ("x0", x[0]), ("x1", x[1]),
                            ("theta_mean_0", ens.thetas.mean(axis=0)[0]),
                            ("grad_explore_norm", abs(ps.r_var_grad))):
            cols[name].append(value)
        xi = np.clip(xi - 0.5 * (exploit_grad(xi[0], ps.r_mean) + ps.r_var_grad), -4.0, 4.0)
        u = -(gains.K @ x) + feed @ xi
        cols["u"].append(u[0])
        x = A @ x + B @ u
    return {name: np.array(vals) for name, vals in cols.items()}


def test_servo_step_matches_scenario_loop():
    # the unbatched public ops, with the plant stepped one state vector at
    # a time, reproduce the seed-batched scenario loop bit for bit
    horizon = 400
    d = builtin_config("quadratic-linear")
    d["run"]["horizon"] = horizon
    seeds = (1, 7)
    for seed, tr in zip(seeds, run_seeds(config_from_dict(d), seeds)):
        d["run"]["seed"] = seed
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
    # no tick re-checks the plant or an ensemble: the plant is checked when
    # the config is built, and each seed's ensemble only where it is drawn
    d = builtin_config("quadratic-linear")
    d["run"]["horizon"] = 50
    cfg = config_from_dict(d)
    plant_checks, ensemble_draws = [], []
    # every rank test of the servo module, the plant's controllability among them
    full_rank = servo_mod._full_rank
    monkeypatch.setattr(servo_mod, "_full_rank",
                        lambda *a: plant_checks.append(1) or full_rank(*a))
    draw = harness.init_ensemble
    monkeypatch.setattr(harness, "init_ensemble",
                        lambda *a: ensemble_draws.append(1) or draw(*a))
    traces = run_seeds(cfg, [1, 2, 3])
    assert plant_checks == []
    assert len(ensemble_draws) == 3
    assert [tr.n_rows for tr in traces] == [51] * 3
    LinearPlant(cfg.plant.A, cfg.plant.B, cfg.plant.C, cfg.plant.x)  # the seam sees a check
    assert plant_checks == [1]
