import numpy as np
import pytest

import dataclasses

from dcee import (DualState, Ensemble, contraction_check, dcee_step,
                  exploit_grad, explore_grad, init_ensemble, predict,
                  quadratic_reward)
from dcee.ensemble import predicted_r_var


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
    g = explore_grad([1.0], collapsed(1.0), model, 1e-5)
    assert g[0] == 0.0


def test_explore_grad_analytic_matches_fd_two_point():
    model = quadratic_reward()
    ens = Ensemble(thetas=np.array([[0.5], [1.5]]), rates=np.full(2, 0.005))
    fd = explore_grad([1.0], ens, model, 1e-5)
    an = predict(ens, [1.0], model).r_var_grad
    assert abs(fd[0] - an[0]) <= 1e-5 * max(abs(an[0]), 1e-12)


def test_explore_grad_analytic_matches_fd_randomized():
    model = quadratic_reward()
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        ens = Ensemble(thetas=rng.uniform(0.3, 15.0, (n, 1)),
                       rates=rng.uniform(0.001, 0.006, n))
        y = float(rng.uniform(0.5, 3.5) * rng.choice([-1.0, 1.0]))
        fd = explore_grad([y], ens, model, 1e-5)[0]
        an = predict(ens, [y], model).r_var_grad[0]
        assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd), 1e-12)


def test_explore_grad_analytic_ignores_estimators_at_the_floor():
    # the first prediction stays below theta_floor at and around y, so its
    # optimum is pinned at 1/floor and it adds nothing to the gradient; the
    # tolerance is loose because that 1e6 optimum costs the difference
    # quotient about four digits
    model = quadratic_reward(theta_floor=1e-6)
    ens = Ensemble(thetas=np.array([[-1.0], [0.8], [2.0]]), rates=np.full(3, 0.005))
    fd = explore_grad([1.0], ens, model, 1e-5)[0]
    an = predict(ens, [1.0], model).r_var_grad[0]
    assert abs(fd - an) <= 1e-3 * abs(an)


def test_explore_pushes_away_from_uninformative_origin():
    # predicted spread has a plateau of non-reduction at y = 0
    model = quadratic_reward()
    rng = np.random.default_rng(2)
    ens = init_ensemble(50, [0.5], [20.0], 0.005, rng)
    p0 = predict(ens, [0.0], model).r_var
    p_off = predict(ens, [0.5], model).r_var
    assert p0 > p_off
    assert explore_grad([0.1], ens, model, 1e-5)[0] < 0  # descent moves +
    assert explore_grad([-0.1], ens, model, 1e-5)[0] > 0  # descent moves -


@pytest.mark.parametrize("y", [4.0, -4.0], ids=["upper", "lower"])
def test_explore_grad_one_sided_at_boundary(caplog, y):
    model = quadratic_reward(y_range=(-4.0, 4.0))
    rng = np.random.default_rng(3)
    ens = init_ensemble(20, [0.5], [20.0], 0.005, rng)
    eps = 1e-5
    with caplog.at_level("WARNING"):
        g = explore_grad([y], ens, model, eps)
    # the probe that would leave the interval is replaced by y itself
    hi_pt, lo_pt = ([y], [y - eps]) if y > 0 else ([y + eps], [y])
    expected = (predicted_r_var(ens, hi_pt, model)
                - predicted_r_var(ens, lo_pt, model)) / eps
    assert np.isfinite(g[0])
    assert g[0] == expected
    assert any("one-sided" in rec.message for rec in caplog.records)


def test_dcee_step_equilibrium():
    model = quadratic_reward()
    state = DualState(y=[1.0], step_size=0.5)
    new, diag = dcee_step(state, collapsed(1.0), model)
    assert diag.u[0] == 0.0
    assert new.y[0] == 1.0


def test_dcee_step_pure_exploitation_hand_computed():
    model = quadratic_reward()
    state = DualState(y=[2.0], step_size=0.25)
    new, diag = dcee_step(state, collapsed(1.0), model)
    assert new.y[0] == pytest.approx(1.5)


def test_dcee_step_increment_identity():
    model = quadratic_reward()
    rng = np.random.default_rng(5)
    ens = init_ensemble(30, [0.5], [20.0], 0.005, rng)
    state = DualState(y=[1.7], step_size=0.5)
    _, diag = dcee_step(state, ens, model)
    expect = -0.5 * (diag.exploit_grad + diag.explore_grad)
    assert np.array_equal(diag.u, expect)
    assert np.array_equal(diag.explore_grad, predict(ens, [1.7], model).r_var_grad)


def test_dcee_step_solves_the_optimum_map_once():
    base = quadratic_reward()
    rows = []

    def counted(thetas):
        rows.append(len(thetas))
        return base.optimum_map_batch(thetas)

    model = dataclasses.replace(base, optimum_map_batch=counted)
    ens = init_ensemble(30, [0.5], [20.0], 0.005, np.random.default_rng(5))
    dcee_step(DualState(y=[1.7], step_size=0.5), ens, model)
    assert rows == [30]


def test_collapsed_dcee_contracts_linearly():
    # with no uncertainty the dual law is plain gradient descent on the
    # squared tracking error: |y' - r*| = |1 - 2 delta| |y - r*| exactly
    model = quadratic_reward()
    for delta in (0.1, 0.3, 0.5, 0.8):
        state = DualState(y=[3.0], step_size=delta)
        new, _ = dcee_step(state, collapsed(1.0), model)
        assert abs(abs(new.y[0] - 1.0) - abs(1 - 2 * delta) * 2.0) < 1e-12


def test_dcee_step_monotone_convergence_after_collapse():
    # integrator run from the broad prior; once the spread has collapsed
    # the distance to the true optimum must shrink monotonically
    from dcee import adapt, stats

    model = quadratic_reward()
    rng = np.random.default_rng(1)
    ens = init_ensemble(100, [0.0], [20.0], 0.005, rng)
    state = DualState(y=[3.6], step_size=0.5)
    distances = []
    collapsed_at = None
    for k in range(7000):
        y = state.y
        ens = adapt(ens, y, 2.0 * y[0] - y[0] ** 2, model)
        state, _ = dcee_step(state, ens, model)
        state = DualState(y=np.clip(state.y, -3.9, 3.9), step_size=0.5)
        if collapsed_at is None and k % 50 == 0 \
                and stats(ens, model).r_var < 1e-12:
            collapsed_at = k
        if collapsed_at is not None:
            distances.append(abs(state.y[0] - 1.0))
    assert collapsed_at is not None
    diffs = np.diff(np.array(distances))
    assert np.all(diffs <= 1e-13)
    assert distances[-1] < 1e-6


def test_contraction_check_values():
    assert contraction_check(0.5, 2.0) is True
    assert contraction_check(1.0, 2.0) is False
    assert contraction_check(0.15, 2.0) is True
