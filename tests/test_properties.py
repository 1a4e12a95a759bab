"""Property tests of the pv-poly optimum map and its closed-form gradient.

Hypothesis runs derandomised, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcee import builtin_config, explore_grad, init_ensemble, moments, pv_poly_reward
from dcee.harness import _MapMemory
from dcee.pv import _companion_roots, _newton, _poly_argmax_batch
from reference import predict_at

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
    got = _poly_argmax_batch(thetas, s_lo, s_hi, 1.0)[0]
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
    fd = explore_grad([v], ens, MODEL)
    an = predict_at(ens, moments(ens.thetas)[1], [v], MODEL).r_var_grad
    assert abs(fd - an) <= 1e-5 * (abs(an) + 1e-3)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 7), n=st.integers(1, 6),
       drift=st.sampled_from([1e-10, 1e-7, 1e-4, None]), repeat=st.integers(1, 5),
       back=st.integers(1, 4), s_lo=st.floats(-2.0, 0.0), width=st.floats(0.1, 3.0))
def test_warm_poly_argmax_matches_cold(seed, m, n, drift, repeat, back, s_lo, width):
    # six calls of one run's memory of the map: polynomials drifting by a
    # relative step of ``drift``, as in a run, or unrelated draws (drift None)
    # that send rows back to the eigenvalues; call ``repeat`` repeats the
    # call ``back`` calls before it and gets its bits
    s_hi = s_lo + width
    model = pv_poly_reward(degree=m - 1, v_range=(s_lo, s_hi))
    memory = _MapMemory(model.optimum_step, 1, model.dim)
    rng = np.random.default_rng(seed)
    grid = np.linspace(s_lo, s_hi, 20_001)
    thetas, calls = rng.uniform(-100.0, 100.0, (n, m)), []
    for k in range(6):
        if k == repeat and back <= k:
            thetas = calls[k - back][0]
        elif k and drift is None:
            thetas = rng.uniform(-100.0, 100.0, (n, m))
        elif k:
            thetas = thetas * (1.0 + drift * rng.uniform(-1.0, 1.0, (n, m)))
        warm = memory(thetas)
        calls.append((thetas, warm))
        if k == repeat and back <= k:
            assert np.array_equal(warm, calls[k - back][1])
        cold = _poly_argmax_batch(thetas, s_lo, s_hi, 1.0)[0]
        for th, s, s_cold in zip(thetas, warm, cold):
            assert s_lo <= s <= s_hi
            best = np.polynomial.polynomial.polyval(grid, th).max()
            at_s, at_cold = np.polynomial.polynomial.polyval([s, s_cold], th)
            assert at_s >= best - 1e-9 * max(1.0, abs(best))
            assert abs(at_s - at_cold) <= 1e-12 * max(1.0, abs(at_cold))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50),
       drift=st.floats(-7.0, -3.0).map(lambda e: 10.0 ** e))
def test_warm_refined_roots_match_the_eigenvalues(seed, n, drift):
    # shipped-prior polynomials drifting by a relative step of ``drift``
    # per call, each call started as a run starts it from the roots of the
    # calls before: every root of a row the refinement accepts is one of
    # that row's companion eigenvalues, and each eigenvalue is matched
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(PRIOR_LOW, PRIOR_HIGH, (n, 6))
    last, before = _poly_argmax_batch(thetas, -1.0, 1.0, 22.0, 22.0)[1], None
    for _ in range(4):
        thetas = thetas * (1.0 + drift * rng.uniform(-1.0, 1.0, thetas.shape))
        deriv = thetas[:, 1:] * np.arange(1.0, 6.0)
        monic = (deriv / deriv[:, -1:]).T
        start = last if before is None else 2.0 * last - before
        found, fine = _newton(monic, start)
        eig = _companion_roots(monic)
        for row in np.flatnonzero(fine):
            gap = np.abs(found[:, row, None] - eig[None, :, row])
            bound = 1e-10 * (1.0 + np.abs(eig[:, row]))
            assert np.all(gap.min(axis=1) <= bound[gap.argmin(axis=1)])
            assert np.all(gap.min(axis=0) <= bound)
        last, before = np.where(fine, found, eig), last
