import math

import numpy as np
import pytest

from dcee import Ensemble, NoiseSpec, quadratic_reward, sample_noise, stats
from dcee.reward import scan_regressor_bound


@pytest.fixture
def model():
    return quadratic_reward()


def optimum(model, theta):
    """The optimum map at one parameter value, a batch of one row."""
    return model.optimum_map_batch(np.array([[theta]], dtype=float))[0]


def reward(model, theta, y):
    """Noise-free reward J = known(y) + phi(y) . theta at the outputs y."""
    return model.known_basis(y) + model.unknown_basis(y) @ np.asarray(theta, dtype=float)


def test_reward_true_quadratic_values(model):
    assert reward(model, [1.0], 1.0) == pytest.approx(1.0)
    assert reward(model, [1.0], 0.0) == pytest.approx(0.0)
    assert reward(model, [2.0], 0.5) == pytest.approx(0.5)
    np.testing.assert_allclose(reward(model, [1.0], [1.0, 0.0, 2.0]), [1.0, 0.0, 0.0])


def test_observe_noise_free_equals_reward(model):
    # zero-variance noise is exactly 0.0, so an observation is the reward
    noise = sample_noise(NoiseSpec(0.0), np.random.default_rng(0), 5)
    assert np.all(noise == 0.0)
    assert np.array_equal(reward(model, [1.0], 1.0) + noise, np.full(5, 1.0))


def test_observe_deterministic_given_seed():
    a = sample_noise(NoiseSpec(2.0), np.random.default_rng(7), 10)
    b = sample_noise(NoiseSpec(2.0), np.random.default_rng(7), 10)
    assert np.array_equal(a, b)


def test_observe_monte_carlo_mean(model):
    n = 100_000
    obs = reward(model, [1.0], 1.0) + sample_noise(NoiseSpec(2.0), np.random.default_rng(3), n)
    assert abs(obs.mean() - 1.0) < 0.06


def test_noise_spec_rejects_negative_variance():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0)


def test_noise_samples_zero_mean():
    n = 100_000
    draws = sample_noise(NoiseSpec(2.0), np.random.default_rng(11), n)
    assert abs(draws.mean()) < 4.0 * math.sqrt(2.0) / math.sqrt(n)


def test_noise_drawn_at_once_equals_single_draws():
    # the loops draw a run's noise up front; it is the per-tick sequence
    rng = np.random.default_rng(5)
    single = [rng.normal(0.0, math.sqrt(2.0)) for _ in range(1000)]
    assert np.array_equal(sample_noise(NoiseSpec(2.0), np.random.default_rng(5), 1000),
                          single)


def test_optimum_of_values(model):
    assert optimum(model, 1.0) == pytest.approx(1.0)
    assert optimum(model, 2.0) == pytest.approx(0.5)


@pytest.mark.parametrize("floor", [None, 0.0, -1e-6, math.nan, math.inf, "1e-6"])
def test_quadratic_floor_must_be_finite_and_positive(floor):
    # the map is singular at theta = 0, so every model needs a finite positive floor
    with pytest.raises(ValueError, match="theta_floor"):
        quadratic_reward(theta_floor=floor)


@pytest.mark.parametrize("theta", [-1.0, 0.0, 1e-6, 1e-3, 2.0])
def test_floored_optimum_map_and_jacobian(theta):
    # at or below the floor the optimum is pinned and the jacobian is zero;
    # above it the map is known_gain / (2 theta) with jacobian -r / theta
    floor, gain = 1e-6, 3.0
    model = quadratic_reward(known_gain=gain, theta_floor=floor)
    thetas = np.array([[theta]])
    r = model.optimum_map_batch(thetas)
    jac = model.optimum_jacobian(thetas, r)
    if theta <= floor:
        assert r[0] == gain / (2.0 * floor)
        assert jac[0, 0] == 0.0
    else:
        assert r[0] == gain / (2.0 * theta)
        assert jac[0, 0] == -r[0] / theta
    # a single row and the ensemble statistics see the same floored map
    ens = Ensemble(thetas=np.array([[theta], [0.5], [2.0]]), rates=np.full(3, 0.1))
    optima = [optimum(model, row[0]) for row in ens.thetas]
    assert optima[0] == r[0]
    assert stats(ens, model).r_mean == np.mean(optima)


def test_optimum_is_global_maximum_on_grid(model):
    grid = np.linspace(-4.0, 4.0, 801)
    for theta in (0.25, 1.0, 3.0, 17.5):
        best = reward(model, [theta], optimum(model, theta))
        assert np.all(best >= reward(model, [theta], grid) - 1e-12)


def test_reward_concave_in_output(model):
    # strictly negative second difference for positive curvature parameter
    grid = np.linspace(-4.0, 4.0, 401)
    h = grid[1] - grid[0]
    for theta in (0.1, 1.0, 5.0):
        vals = reward(model, [theta], grid)
        second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h ** 2
        assert np.all(second < 0)


def test_regressor_bound_from_grid_scan():
    model = quadratic_reward(y_range=(-4.0, 4.0))
    bound = scan_regressor_bound(model.unknown_basis, model.y_range)
    assert bound == pytest.approx(16.0, rel=1e-12)
    model = quadratic_reward(y_range=(-2.0, 3.0))
    bound = scan_regressor_bound(model.unknown_basis, model.y_range)
    assert bound == pytest.approx(9.0, rel=1e-12)
