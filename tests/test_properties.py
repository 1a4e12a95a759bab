"""Property tests of the pv-poly optimum map and its closed-form gradient.

Hypothesis runs derandomised, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcee import builtin_config, explore_grad, init_ensemble, moments, predict, pv_poly_reward
from dcee.pv import _poly_argmax_batch

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

_SHIPPED = builtin_config("mppt")
PRIOR_LOW = _SHIPPED["ensemble"]["prior_low"]
PRIOR_HIGH = _SHIPPED["ensemble"]["prior_high"]
MODEL = pv_poly_reward(degree=5, v_range=(2.0, 43.0), v_scale=22.0, v_shift=22.0)


@PROPERTY
@given(thetas=arrays(float, st.tuples(st.integers(1, 6), st.integers(3, 7)),
                     elements=st.floats(-100.0, 100.0)),
       s_lo=st.floats(-2.0, 0.0), width=st.floats(0.1, 3.0))
def test_poly_argmax_never_below_grid_maximum(thetas, s_lo, width):
    s_hi = s_lo + width
    got = _poly_argmax_batch(thetas, s_lo, s_hi, 1.0)[0][:, 0]
    grid = np.linspace(s_lo, s_hi, 20_001)
    for th, s in zip(thetas, got):
        assert s_lo <= s <= s_hi
        best = np.polynomial.polynomial.polyval(grid, th).max()
        at_got = np.polynomial.polynomial.polyval(s, th)
        assert at_got >= best - 1e-9 * max(1.0, abs(best))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 59),
       v=st.floats(4.0, 42.0))
def test_pv_poly_closed_form_gradient_matches_fd(seed, n, v):
    # random ensembles from the shipped prior box; the absolute floor in
    # the bound absorbs finite-difference cancellation at tiny gradients
    rng = np.random.default_rng(seed)
    ens = init_ensemble(n, PRIOR_LOW, PRIOR_HIGH, rng.uniform(0.01, 0.2, n), rng)
    fd = explore_grad([v], ens, MODEL)[0]
    an = predict(ens, moments(ens.thetas)[1], [v], MODEL).r_var_grad[0]
    assert abs(fd - an) <= 1e-5 * (abs(an) + 1e-3)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 7), n=st.integers(1, 6),
       drift=st.sampled_from([1e-10, 1e-7, 1e-4, None]), resize=st.integers(1, 6),
       s_lo=st.floats(-2.0, 0.0), width=st.floats(0.1, 3.0))
def test_warm_poly_argmax_matches_cold(seed, m, n, drift, resize, s_lo, width):
    # six calls in one warm_start scope: polynomials drifting by a relative
    # step of ``drift``, as in a run, or unrelated draws (drift None) that
    # send rows back to the eigenvalues; call ``resize`` gets a row more
    s_hi = s_lo + width
    model = pv_poly_reward(degree=m - 1, v_range=(s_lo, s_hi))
    rng = np.random.default_rng(seed)
    grid = np.linspace(s_lo, s_hi, 20_001)
    thetas = rng.uniform(-100.0, 100.0, (n, m))
    with model.warm_start():
        for k in range(6):
            if k and drift is None:
                thetas = rng.uniform(-100.0, 100.0, (n, m))
            elif k:
                thetas = thetas * (1.0 + drift * rng.uniform(-1.0, 1.0, (n, m)))
            batch = np.vstack([thetas, thetas[:1]]) if k == resize else thetas
            warm = model.optimum_map_batch(batch)[:, 0]
            cold = _poly_argmax_batch(batch, s_lo, s_hi, 1.0)[0][:, 0]
            if k == resize:  # another row count starts cold
                assert np.array_equal(warm, cold)
            for th, s, s_cold in zip(batch, warm, cold):
                assert s_lo <= s <= s_hi
                best = np.polynomial.polynomial.polyval(grid, th).max()
                at_s, at_cold = np.polynomial.polynomial.polyval([s, s_cold], th)
                assert at_s >= best - 1e-9 * max(1.0, abs(best))
                assert abs(at_s - at_cold) <= 1e-12 * max(1.0, abs(at_cold))
