"""The dual gradients, and the dual step the scenario loop takes with them.

The step  xi' = clip(xi - delta * (exploit_grad + r_var_grad))  has no
function of its own: the quadratic-linear loop in ``dcee.harness`` takes
it every tick, so the step tests run short scenarios and read the trace.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dcee import (Ensemble, adapt, builtin_config, config_from_dict, contraction_check,
                  exploit_grad, explore_grad, harness, init_ensemble, load_config, moments,
                  predict, quadratic_reward, run_scenario, run_seeds)
from dcee.dual import FD_EPS

REPO = Path(__file__).resolve().parents[1]


def collapsed(value, n=5, rate=0.005):
    return Ensemble(thetas=np.full((n, 1), float(value)), rates=np.full(n, rate))


def test_exploit_grad_values():
    assert exploit_grad([1.0], [1.0])[0] == 0.0
    assert exploit_grad([2.0], [1.0])[0] == pytest.approx(2.0)
    assert exploit_grad([0.0], [1.0])[0] == pytest.approx(-2.0)


def test_exploit_grad_rejects_mismatch():
    with pytest.raises(ValueError):
        exploit_grad([1.0, 2.0], [1.0])


def test_explore_grad_zero_for_collapsed_ensemble():
    model = quadratic_reward()
    g = explore_grad([1.0], collapsed(1.0), model)
    assert g[0] == 0.0


def test_explore_grad_analytic_matches_fd_two_point():
    model = quadratic_reward()
    ens = Ensemble(thetas=np.array([[0.5], [1.5]]), rates=np.full(2, 0.005))
    fd = explore_grad([1.0], ens, model)
    an = predict(ens, moments(ens.thetas)[1], [1.0], model).r_var_grad
    assert abs(fd[0] - an[0]) <= 1e-5 * max(abs(an[0]), 1e-12)


def test_explore_grad_analytic_matches_fd_randomized():
    model = quadratic_reward()
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        ens = Ensemble(thetas=rng.uniform(0.3, 15.0, (n, 1)),
                       rates=rng.uniform(0.001, 0.006, n))
        y = float(rng.uniform(0.5, 3.5) * rng.choice([-1.0, 1.0]))
        fd = explore_grad([y], ens, model)[0]
        an = predict(ens, moments(ens.thetas)[1], [y], model).r_var_grad[0]
        assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd), 1e-12)


def test_explore_grad_analytic_ignores_estimators_at_the_floor():
    # the first prediction stays below theta_floor at and around y, so its
    # optimum is pinned at 1/floor and it adds nothing to the gradient; the
    # tolerance is loose because that 1e6 optimum costs the difference
    # quotient about four digits
    model = quadratic_reward(theta_floor=1e-6)
    ens = Ensemble(thetas=np.array([[-1.0], [0.8], [2.0]]), rates=np.full(3, 0.005))
    fd = explore_grad([1.0], ens, model)[0]
    an = predict(ens, moments(ens.thetas)[1], [1.0], model).r_var_grad[0]
    assert abs(fd - an) <= 1e-3 * abs(an)


def test_explore_pushes_away_from_uninformative_origin():
    # predicted spread has a plateau of non-reduction at y = 0
    model = quadratic_reward()
    rng = np.random.default_rng(2)
    ens = init_ensemble(50, [0.5], [20.0], 0.005, rng)
    p0 = predict(ens, moments(ens.thetas)[1], [0.0], model).r_var
    p_off = predict(ens, moments(ens.thetas)[1], [0.5], model).r_var
    assert p0 > p_off
    assert explore_grad([0.1], ens, model)[0] < 0  # descent moves +
    assert explore_grad([-0.1], ens, model)[0] > 0  # descent moves -


@pytest.mark.parametrize("y", [4.0, -4.0], ids=["upper", "lower"])
def test_explore_grad_one_sided_at_boundary(caplog, y):
    model = quadratic_reward(y_range=(-4.0, 4.0))
    rng = np.random.default_rng(3)
    ens = init_ensemble(20, [0.5], [20.0], 0.005, rng)
    with caplog.at_level("WARNING"):
        g = explore_grad([y], ens, model)
    # the probe that would leave the interval is replaced by y itself
    hi_pt, lo_pt = ([y], [y - FD_EPS]) if y > 0 else ([y + FD_EPS], [y])
    dev = moments(ens.thetas)[1]
    expected = (predict(ens, dev, hi_pt, model).r_var
                - predict(ens, dev, lo_pt, model).r_var) / FD_EPS
    assert np.isfinite(g[0])
    assert g[0] == expected
    assert any("one-sided" in rec.message for rec in caplog.records)


def collapsed_run(xi0, y0, delta=0.5, horizon=1):
    """Noise-free quadratic scenario whose estimators all start at the true
    curvature 1; the first observation, at y0, leaves them there exactly."""
    d = builtin_config("quadratic-linear")
    d["plant"]["x0"] = [0.0, y0]
    d["ensemble"].update(prior_low=[1.0], prior_high=[1.0])
    d["controller"].update(xi0=[xi0], delta=delta)
    d["noise"]["variance"] = 0.0
    d["run"]["horizon"] = horizon
    return run_scenario(config_from_dict(d))


def test_dcee_step_equilibrium():
    tr = collapsed_run(xi0=1.0, y0=1.0, horizon=1)
    assert tr.column("grad_exploit_norm")[0] == 0.0
    assert tr.column("grad_explore_norm")[0] == 0.0
    assert tr.column("xi")[1] == 1.0


def test_dcee_step_pure_exploitation_hand_computed():
    tr = collapsed_run(xi0=2.0, y0=2.0, delta=0.25)
    assert tr.column("theta_mean_0")[0] == 1.0
    assert tr.column("xi")[1] == 1.5


def test_dcee_step_increment_identity():
    # the loop's first step is exactly the unbatched public ops' step
    d = builtin_config("quadratic-linear")
    d["run"].update(horizon=1, seed=5)
    cfg = config_from_dict(d)
    tr = run_scenario(cfg)
    model = cfg.model
    rng_init = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[0])
    ens = init_ensemble(100, [0.0], [20.0], 0.005, rng_init)
    ens = adapt(ens, tr.column("y")[:1], tr.column("j_obs")[0], model)
    xi = tr.column("xi")[:1]
    ps = predict(ens, moments(ens.thetas)[1], xi, model)
    moved = xi - 0.5 * (exploit_grad(xi, ps.r_mean) + ps.r_var_grad)
    assert tr.column("grad_explore_norm")[0] == abs(ps.r_var_grad[0])
    assert tr.column("xi")[1] == np.clip(moved, -4.0, 4.0)[0]


def test_dcee_step_solves_the_optimum_map_once(monkeypatch):
    # one solve per tick serves the belief and the exploration gradient of
    # every seed in the batch
    rows = []
    build = harness.quadratic_reward

    def counting_model(*args, **kwargs):
        model = build(*args, **kwargs)
        solve = model.optimum_map_batch

        def counted(thetas):
            rows.append(len(thetas))
            return solve(thetas)

        return dataclasses.replace(model, optimum_map_batch=counted)

    monkeypatch.setattr(harness, "quadratic_reward", counting_model)
    d = builtin_config("quadratic-linear")
    d["run"]["horizon"] = 30
    run_seeds(config_from_dict(d), [1, 2, 3])
    assert rows == [300] * 31


def test_collapsed_dcee_contracts_linearly():
    # with no uncertainty the dual law is plain gradient descent on the
    # squared tracking error: |xi' - r*| = |1 - 2 delta| |xi - r*| exactly
    for delta in (0.1, 0.3, 0.5, 0.8):
        tr = collapsed_run(xi0=3.0, y0=3.0, delta=delta)
        assert abs(abs(tr.column("xi")[1] - 1.0) - abs(1 - 2 * delta) * 2.0) < 1e-12


def test_dcee_step_monotone_convergence_after_collapse():
    # noise-free run from the broad prior; once the spread has collapsed
    # the reference's distance to the true optimum shrinks monotonically
    d = builtin_config("quadratic-linear")
    d["noise"]["variance"] = 0.0
    d["run"]["horizon"] = 7000
    tr = run_scenario(config_from_dict(d))
    collapsed = np.flatnonzero(tr.column("p_explore") < 1e-12)
    assert collapsed.size
    distances = np.abs(tr.column("xi")[collapsed[0]:] - 1.0)
    assert np.all(np.diff(distances) <= 1e-13)
    assert distances[-1] < 1e-6


def test_shipped_mppt_rests_only_where_the_dual_gradients_cancel():
    # u = -delta (g_exploit + g_explore) wherever u_max does not clip it, so
    # by the triangle inequality the two gradients' magnitudes differ by at
    # most |u| / delta: a reference at rest sits where they cancel
    cfg = load_config(REPO / "configs" / "mppt.json").with_updates(algo="dcee")
    ctl = cfg.section("controller")
    tr = run_scenario(cfg)
    v, u = tr.column("v"), tr.column("u")
    g_exploit, g_explore = tr.column("grad_exploit_norm"), tr.column("grad_explore_norm")
    assert np.array_equal(g_exploit, np.abs(2.0 * (v - tr.column("r_mean"))))
    # the terminal row applies no control; the shipped run comes to rest
    free = np.flatnonzero(np.abs(u[:-1]) < ctl["u_max"])
    assert np.any(np.abs(u[free]) <= 1e-8)
    excess = np.abs(g_exploit - g_explore)[free] - np.abs(u[free]) / ctl["delta"]
    assert np.all(excess <= 4 * np.spacing(np.maximum(g_exploit, g_explore)[free]))


def test_contraction_check_values():
    assert contraction_check(0.5) is True
    assert contraction_check(1.0) is False
    assert contraction_check(0.15) is True
    assert contraction_check(1e300) is False  # (1 - 2 delta)^2 would overflow
