import math

import numpy as np
import pytest

from dcee import (DomainError, NoiseSpec, observe, optimum_of, quadratic_reward,
                  reward_true, sample_noise)
from dcee.reward import scan_regressor_bound


@pytest.fixture
def model():
    return quadratic_reward()


def test_reward_true_quadratic_values(model):
    assert reward_true(model, [1.0], [1.0]) == pytest.approx(1.0)
    assert reward_true(model, [1.0], [0.0]) == pytest.approx(0.0)
    assert reward_true(model, [2.0], [0.5]) == pytest.approx(0.5)


def test_reward_true_rejects_dimension_mismatch(model):
    with pytest.raises(ValueError):
        reward_true(model, [1.0, 2.0], [1.0])


def test_observe_noise_free_equals_reward(model):
    rng = np.random.default_rng(0)
    obs = observe(model, [1.0], [1.0], NoiseSpec(0.0), rng)
    assert obs.j_obs == reward_true(model, [1.0], [1.0])


def test_observe_deterministic_given_seed(model):
    a = observe(model, [1.0], [1.0], NoiseSpec(2.0), np.random.default_rng(7))
    b = observe(model, [1.0], [1.0], NoiseSpec(2.0), np.random.default_rng(7))
    assert a.j_obs == b.j_obs


def test_observe_monte_carlo_mean(model):
    rng = np.random.default_rng(3)
    noise = NoiseSpec(2.0)
    n = 100_000
    vals = [observe(model, [1.0], [1.0], noise, rng).j_obs for _ in range(n)]
    assert abs(np.mean(vals) - 1.0) < 0.06


def test_noise_spec_rejects_negative_variance():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0)


def test_noise_samples_zero_mean():
    rng = np.random.default_rng(11)
    noise = NoiseSpec(2.0)
    n = 100_000
    draws = np.array([sample_noise(noise, rng) for _ in range(n)])
    assert abs(draws.mean()) < 4.0 * math.sqrt(2.0) / math.sqrt(n)


def test_optimum_of_values(model):
    assert optimum_of(model, [1.0])[0] == pytest.approx(1.0)
    assert optimum_of(model, [2.0])[0] == pytest.approx(0.5)


def test_optimum_of_singularity_rejected(model):
    with pytest.raises(DomainError):
        optimum_of(model, [0.0])


def test_optimum_is_global_maximum_on_grid(model):
    grid = np.linspace(-4.0, 4.0, 801)
    for theta in (0.25, 1.0, 3.0, 17.5):
        best = reward_true(model, [theta], optimum_of(model, [theta]))
        for y in grid:
            assert best >= reward_true(model, [theta], [y]) - 1e-12


def test_reward_concave_in_output(model):
    # strictly negative second difference for positive curvature parameter
    grid = np.linspace(-4.0, 4.0, 401)
    h = grid[1] - grid[0]
    for theta in (0.1, 1.0, 5.0):
        vals = np.array([reward_true(model, [theta], [y]) for y in grid])
        second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h ** 2
        assert np.all(second < 0)


def test_regressor_bound_from_grid_scan():
    model = quadratic_reward(y_range=(-4.0, 4.0))
    bound = scan_regressor_bound(model.unknown_basis, model.y_range)
    assert bound == pytest.approx(16.0, rel=1e-12)
    model = quadratic_reward(y_range=(-2.0, 3.0))
    bound = scan_regressor_bound(model.unknown_basis, model.y_range)
    assert bound == pytest.approx(9.0, rel=1e-12)
