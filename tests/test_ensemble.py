import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcee import (Ensemble, builtin_config, init_ensemble, moments, mse_bound, pv_poly_reward,
                  quadratic_reward, spread, stats)
from dcee.ensemble import _step
from dcee.reward import RewardModel
from reference import adapt_at, predict_at, reference_predict


def identity_model():
    """Reward with one parameter, unit regressor and identity optimum map (test double)."""
    return RewardModel(
        known_basis=lambda y: np.zeros(np.shape(y)),
        unknown_basis=lambda y: np.ones(np.shape(y) + (1,)),
        dim=1,
        y_range=(-1.0, 1.0),
        optimum_map_batch=lambda ths: np.asarray(ths, dtype=float)[:, 0],
        basis_jacobian=lambda y: np.zeros(np.shape(y) + (1,)),
        optimum_jacobian=lambda ths, r: np.ones((len(ths), 1)),
    )


def test_init_respects_bounds():
    rng = np.random.default_rng(0)
    ens = init_ensemble(100, [0.0], [20.0], 0.005, rng)
    assert ens.thetas.shape == (100, 1)
    assert np.all(ens.thetas >= 0.0) and np.all(ens.thetas <= 20.0)


def test_init_degenerate_interval():
    rng = np.random.default_rng(0)
    ens = init_ensemble(1, [3.0], [3.0], 0.1, rng)
    assert ens.thetas[0, 0] == 3.0


def test_init_monte_carlo_mean():
    rng = np.random.default_rng(5)
    ens = init_ensemble(10_000, [0.0], [20.0], 0.1, rng)
    assert abs(ens.thetas.mean() - 10.0) < 0.25


def test_init_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        init_ensemble(0, [0.0], [1.0], 0.1, rng)
    with pytest.raises(ValueError):
        init_ensemble(2, [1.0], [0.0], 0.1, rng)
    with pytest.raises(ValueError):
        init_ensemble(2, [], [], 0.1, rng)
    with pytest.raises(ValueError):
        init_ensemble(2, [0.0], [1.0], -0.1, rng)
    # one finite positive rate, or one per estimator
    for rate in (np.nan, np.inf, 0.0, [0.1, np.nan], [0.1, 0.1, 0.1], [[0.1, 0.1]]):
        with pytest.raises(ValueError, match="learning rate"):
            init_ensemble(2, [0.0], [1.0], rate, rng)
    # finite bounds with low <= high and a finite width
    for low, high in (([0.0], [np.inf]), ([-np.inf], [1.0]), ([np.nan], [1.0]),
                      ([0.0], [np.nan]), ([0.0, 0.0], [1.0, -np.inf]), ([-1e308], [1e308])):
        with pytest.raises(ValueError, match="prior bounds"):
            init_ensemble(2, low, high, 0.1, rng)


def test_adapt_single_step_hand_computed():
    # unit regressor, zero estimate, unit residual target, rate 1/2
    model = identity_model()
    ens = Ensemble(thetas=np.zeros((1, 1)), rates=np.array([0.5]))
    out = adapt_at(ens, [0.0], 1.0, model)
    assert out.thetas[0, 0] == pytest.approx(0.5)


def test_adapt_fixed_point_at_truth():
    model = quadratic_reward()
    ens = Ensemble(thetas=np.full((5, 1), 1.0), rates=np.full(5, 0.005))
    j = 2.0 * 1.3 - 1.0 * 1.3 ** 2  # noise-free reward at y = 1.3
    out = adapt_at(ens, [1.3], j, model)
    np.testing.assert_allclose(out.thetas, ens.thetas, atol=1e-15)


def test_adapt_converges_on_persistently_exciting_sequence():
    # noise-free regression oracle: the update law itself, run to steady state
    model = quadratic_reward()
    rng = np.random.default_rng(2)
    ens = init_ensemble(100, [0.0], [20.0], 0.005, rng)
    theta_true = 1.0
    ys = [1.0, 1.3]
    for k in range(2000):
        y = ys[k % 2]
        j = 2.0 * y - theta_true * y * y
        ens = adapt_at(ens, [y], j, model)
    assert abs(ens.thetas.mean() - theta_true) < 1e-3


def test_stats_two_point_example():
    model = identity_model()
    ens = Ensemble(thetas=np.array([[0.5], [1.5]]), rates=np.full(2, 0.1))
    s = stats(ens, model)
    # the identity optimum map makes r_mean the parameter mean
    assert s.r_mean == pytest.approx(1.0)
    assert s.r_var == pytest.approx(0.25)


def test_stats_collapsed_ensemble_has_zero_spread():
    model = identity_model()
    ens = Ensemble(thetas=np.full((7, 1), 4.2), rates=np.full(7, 0.1))
    assert stats(ens, model).r_var == 0.0


def test_stats_uniform_prior_variance():
    model = identity_model()
    rng = np.random.default_rng(9)
    ens = init_ensemble(100, [0.0], [20.0], 0.1, rng)
    s = stats(ens, model)
    assert abs(s.r_var - 400.0 / 12.0) < 0.2 * 400.0 / 12.0


def test_stats_permutation_invariant():
    model = quadratic_reward()
    rng = np.random.default_rng(3)
    ens = init_ensemble(30, [0.5], [20.0], 0.01, rng)
    shuffled = Ensemble(thetas=ens.thetas[::-1].copy(), rates=ens.rates.copy())
    assert stats(ens, model).r_var == pytest.approx(
        stats(shuffled, model).r_var, rel=1e-12)


def test_predict_is_identity_for_collapsed_ensemble():
    model = quadratic_reward()
    ens = Ensemble(thetas=np.full((5, 1), 1.0), rates=np.full(5, 0.005))
    cur = stats(ens, model)
    pred = predict_at(ens, moments(ens.thetas)[1], [1.5], model)
    assert pred.r_mean == cur.r_mean
    assert pred.r_var == cur.r_var == 0.0


def test_predict_gradient_matches_hand_derivation():
    ens = Ensemble(thetas=np.array([[0.5], [2.0]]), rates=np.full(2, 0.1))
    assert stats(ens, quadratic_reward()).r_var_grad is None
    # a constant regressor carries no information about where to probe
    assert predict_at(ens, moments(ens.thetas)[1], [0.5], identity_model()).r_var_grad == 0.0
    # quadratic, phi = -y^2: theta_i' = theta_i - eta y^4 d_i and r_i = 1/theta_i'
    model = quadratic_reward()
    y = 0.7
    dev = ens.thetas[:, 0] - 1.25
    pred = ens.thetas[:, 0] - 0.1 * y ** 4 * dev
    dpred = -0.4 * y ** 3 * dev
    r = 1.0 / pred
    dr = -dpred / pred ** 2
    expect = 2.0 * np.mean((r - r.mean()) * dr)
    got = predict_at(ens, moments(ens.thetas)[1], [y], model).r_var_grad
    assert got == pytest.approx(expect, rel=1e-12)


def test_predict_zero_regressor_changes_nothing():
    # the quadratic regressor vanishes at y = 0: no information there
    model = quadratic_reward()
    ens = Ensemble(thetas=np.array([[0.5], [2.0]]), rates=np.full(2, 0.1))
    cur = stats(ens, model)
    pred = predict_at(ens, moments(ens.thetas)[1], [0.0], model)
    assert pred.r_var == pytest.approx(cur.r_var, rel=1e-14)
    assert pred.r_mean == pytest.approx(cur.r_mean, rel=1e-14)
    phi = model.unknown_basis(0.0)
    dev = moments(ens.thetas)[1]
    assert np.array_equal(_step(ens, dev @ phi[:, None], phi[None, :]), ens.thetas)


def test_predict_informative_point_shrinks_spread():
    model = quadratic_reward()
    rng = np.random.default_rng(4)
    ens = init_ensemble(100, [0.0], [20.0], 0.005, rng)
    at_zero = predict_at(ens, moments(ens.thetas)[1], [0.0], model).r_var
    at_one = predict_at(ens, moments(ens.thetas)[1], [1.0], model).r_var
    assert at_one <= at_zero


_SHIPPED_PRIOR = builtin_config("mppt")["ensemble"]


@pytest.mark.parametrize("model, low, high, max_rate", [
    # eta * y^4 <= 1 on (-4, 4): every update stays a convex mix of the
    # estimate and the mean, so no estimate crosses the floor
    (quadratic_reward(), [0.5], [20.0], 1.0 / 256.0),
    (pv_poly_reward(degree=5, v_range=(2.0, 43.0), v_scale=22.0, v_shift=22.0),
     _SHIPPED_PRIOR["prior_low"], _SHIPPED_PRIOR["prior_high"], 0.2),
], ids=["quadratic", "pv-poly"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 59), at=st.floats(0.0, 1.0))
def test_predict_is_adapt_under_the_believed_reward(model, low, high, max_rate, seed, n, at):
    # the one-step-ahead belief is adapt's update fed the noise-free reward
    # the mean estimate implies, J = known(y) + phi(y) . mean
    rng = np.random.default_rng(seed)
    ens = init_ensemble(n, low, high, rng.uniform(1e-3 * max_rate, max_rate, n), rng)
    lo, hi = model.y_range
    y = lo + at * (hi - lo)
    centre, dev = moments(ens.thetas)
    believed = model.known_basis(y) + model.unknown_basis(y) @ centre[0]
    want = stats(adapt_at(ens, [y], believed, model), model)
    got = predict_at(ens, dev, [y], model)
    assert got.r_mean == pytest.approx(want.r_mean, rel=1e-11, abs=0.0)
    assert got.r_var == pytest.approx(want.r_var, rel=1e-11, abs=0.0)


def test_variance_decomposition_identity():
    # total squared distance splits exactly into tracking + spread parts
    model = quadratic_reward()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 40))
        ens = Ensemble(thetas=rng.uniform(0.1, 20.0, (n, 1)),
                       rates=np.full(n, 0.01))
        y = rng.uniform(-5.0, 5.0)
        s = stats(ens, model)
        r = model.optimum_map_batch(ens.thetas)
        lhs = np.mean((y - r) ** 2)
        rhs = (y - s.r_mean) ** 2 + s.r_var
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_collapsed_ensemble_stays_collapsed_under_adapt():
    model = quadratic_reward()
    ens = Ensemble(thetas=np.full((6, 1), 7.0), rates=np.full(6, 0.005))
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.uniform(-2.0, 2.0)
        ens = adapt_at(ens, [y], rng.normal(), model)
        assert np.all(ens.thetas == ens.thetas[0, 0])


def test_adapt_noise_free_is_contraction():
    model = quadratic_reward()
    theta_true = 1.0
    rng = np.random.default_rng(8)
    for _ in range(100):
        theta = rng.uniform(0.0, 20.0)
        rate = rng.uniform(1e-4, 0.05)
        y = rng.uniform(-2.0, 2.0)
        if rate * y ** 4 >= 1.0:
            continue
        ens = Ensemble(thetas=np.array([[theta]]), rates=np.array([rate]))
        j = 2.0 * y - theta_true * y * y
        out = adapt_at(ens, [y], j, model)
        assert abs(out.thetas[0, 0] - theta_true) <= abs(theta - theta_true) + 1e-15


def test_mse_bound_values_and_rejection():
    assert mse_bound(0.1, 1.0, 0.0, 0.5) == 0.0
    assert mse_bound(0.1, 1.0, 2.0, 0.5) == pytest.approx(0.04)
    with pytest.raises(ValueError):
        mse_bound(0.1, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        mse_bound(0.1, 1.0, 2.0, -0.2)


@pytest.mark.parametrize("model, low, high", [
    (quadratic_reward(), [0.0], [20.0]),
    (pv_poly_reward(degree=5, v_range=(2.0, 43.0), v_scale=22.0, v_shift=22.0),
     [88.9, 83.8, 12.1, 35.2, -151.1, -218.4], [143.8, 137.0, 39.8, 71.2, -94.3, -144.0]),
], ids=["quadratic", "pv-poly"])
def test_batched_ops_match_each_ensemble_alone(model, low, high):
    # a batch entry's numbers are the bits its ensemble gives on its own
    rng = np.random.default_rng(9)
    alone = [init_ensemble(30, low, high, 0.01, rng) for _ in range(4)]
    batch = Ensemble(np.stack([e.thetas for e in alone]), alone[0].rates)
    lo, hi = model.y_range
    y = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 4)
    j = rng.normal(size=4)
    moved = adapt_at(batch, y, j, model)
    centre, dev = moments(moved.thetas)
    belief = predict_at(moved, dev, y, model)
    # one value per row from the map, one per batch entry in the belief
    optima = model.optimum_map_batch(alone[0].thetas)
    assert optima.shape == (30,)
    assert model.optimum_jacobian(alone[0].thetas, optima).shape == (30, model.dim)
    assert belief.r_mean.shape == belief.r_var.shape == belief.r_var_grad.shape == (4,)
    for i, ens in enumerate(alone):
        ens = adapt_at(ens, [y[i]], j[i], model)
        assert np.array_equal(moved.thetas[i], ens.thetas)
        one_centre, one_dev = moments(ens.thetas)
        assert np.array_equal(centre[i], one_centre)
        assert np.array_equal(dev[i], one_dev)
        assert np.array_equal(spread(dev)[i], spread(one_dev))
        one = predict_at(ens, one_dev, [y[i]], model)
        assert np.shape(one.r_mean) == np.shape(one.r_var) == np.shape(one.r_var_grad) == ()
        assert np.array_equal(belief.r_mean[i], one.r_mean)
        assert belief.r_var[i] == one.r_var
        assert np.array_equal(belief.r_var_grad[i], one.r_var_grad)


@pytest.mark.parametrize("model, low, high", [
    (quadratic_reward(), [0.0], [20.0]),
    (pv_poly_reward(degree=5, v_range=(2.0, 43.0), v_scale=22.0, v_shift=22.0),
     [88.9, 83.8, 12.1, 35.2, -151.1, -218.4], [143.8, 137.0, 39.8, 71.2, -94.3, -144.0]),
], ids=["quadratic", "pv-poly"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_any_batch_entry_is_its_ensemble_alone(model, low, high, data):
    # adapt, moments and predict give every entry of any batch the bits of
    # its ensemble on its own, whatever the batch and ensemble sizes
    n_batch, n = data.draw(st.integers(1, 5), "S"), data.draw(st.integers(1, 40), "N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
    lo, hi = model.y_range
    y = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n_batch, max_size=n_batch)))
    batch = Ensemble(rng.uniform(low, high, (n_batch, n, len(low))), rng.uniform(1e-3, 0.1, n))
    j = rng.normal(size=n_batch)
    moved = adapt_at(batch, y, j, model)
    centre, dev = moments(moved.thetas)
    belief = predict_at(moved, dev, y, model)
    for i in range(n_batch):
        ens = adapt_at(Ensemble(batch.thetas[i], batch.rates), y[i:i + 1], j[i], model)
        assert np.array_equal(moved.thetas[i], ens.thetas)
        one_centre, one_dev = moments(ens.thetas)
        assert np.array_equal(centre[i], one_centre) and np.array_equal(dev[i], one_dev)
        one = predict_at(ens, one_dev, y[i:i + 1], model)
        assert np.array_equal(belief.r_mean[i], one.r_mean)
        assert belief.r_var[i] == one.r_var
        assert np.array_equal(belief.r_var_grad[i], one.r_var_grad)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_predict_gives_the_bits_of_the_reference(data):
    # one reduction for r_var and the gradient's sum, and the derivative's sign
    # in the final factor, give the bits of the separate reductions.  Only a
    # zero gradient changes sign: numpy sums from +0, so a sum that comes to
    # zero is +0 whatever the signs of its terms, and the factor -2 makes it -0
    degree = data.draw(st.integers(1, 6), "degree (1: quadratic)")
    if degree == 1:
        model, low, high = quadratic_reward(), [-1.0], [20.0]  # some estimates pinned
    else:
        model = pv_poly_reward(degree=degree, v_range=(2.0, 43.0), v_scale=22.0, v_shift=22.0)
        low, high = [-200.0] * (degree + 1), [200.0] * (degree + 1)
    n_batch, n = data.draw(st.integers(1, 4), "S"), data.draw(st.integers(1, 60), "N")
    batched = n_batch > 1 or data.draw(st.booleans(), "batched")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), "seed"))
    shape = (n_batch, n, len(low)) if batched else (n, len(low))
    ens = Ensemble(rng.uniform(low, high, shape), rng.uniform(1e-3, 0.2, n))
    lo, hi = model.y_range
    y = data.draw(st.lists(st.floats(lo, hi), min_size=n_batch, max_size=n_batch), "y")
    dev = moments(ens.thetas)[1]
    got, want = predict_at(ens, dev, y, model), reference_predict(ens, dev, y, model)
    for name in ("r_mean", "r_var", "r_var_grad"):
        a, b = (np.asarray(getattr(belief, name)) for belief in (got, want))
        if name == "r_var_grad":
            a, b = a + 0.0, b + 0.0  # -0 + 0 is +0; any other value keeps its bits
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
