"""Property tests of the pv-poly optimum map and its closed-form gradient.

The map certifies each row by Bernstein bounds and settles it by Newton
steps (``_certified_argmax_batch``); rows that fail go to the roots of their
derivatives, one row at a time (``_poly_argmax_batch``).  Both are checked
against a dense grid, against each other, and for rows that keep their bits
in any batch.

Hypothesis runs derandomised, so every run draws the same examples.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dcee import builtin_config, explore_grad, init_ensemble, moments, pv_poly_reward
from dcee.pv import _certified_argmax_batch, _poly_argmax_batch
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
    _assert_never_below_grid_maximum(thetas, s_lo, s_lo + width, _poly_argmax_batch)


def _assert_never_below_grid_maximum(thetas, s_lo, s_hi, argmax):
    got = argmax(thetas, s_lo, s_hi, 1.0, 0.0)
    grid = np.linspace(s_lo, s_hi, 20_001)
    for th, s in zip(thetas, got):
        assert s_lo <= s <= s_hi
        best = np.polynomial.polynomial.polyval(grid, th).max()
        at_got = np.polynomial.polynomial.polyval(s, th)
        assert at_got >= best - 1e-9 * max(1.0, abs(best))


@st.composite
def polynomials(draw, rows=st.integers(1, 6)):
    """An interval [s_lo, s_hi] and rows (N, m) of polynomials on it, each one
    of: coefficients drawn at random; a derivative with two roots 1e-9 .. 1e-3
    apart in the interval (a near-double stationary point); a derivative with
    no root in it (an endpoint maximum); a maximum at a triple root of the
    derivative, where p'' = 0, as for -s^4; or two maxima whose heights differ
    by 1e-8 .. 1e-2 of their depth, a quartic tilted by a slope, where the
    grid's best point can sit beside the lower one."""
    s_lo = draw(st.floats(-2.0, 0.0))
    s_hi = s_lo + draw(st.floats(0.1, 3.0))
    m = draw(st.integers(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def beyond(k):  # k points outside the interval
        return np.where(rng.random(k) < 0.5, s_lo - rng.uniform(0.1, 2.0, k),
                        s_hi + rng.uniform(0.1, 2.0, k))

    out = []
    kinds = st.sampled_from(["random", "double", "end", "flat", "twin"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=draw(rows))):
        if kind == "random" or kind == "double" and m < 4 or kind in ("flat", "twin") and m < 5:
            out.append(rng.uniform(-100.0, 100.0, m))
            continue
        scale = rng.uniform(1.0, 50.0)
        if kind == "twin":  # maxima at a and b, tilted apart; the degrees past 4 are 0
            a, b = np.sort(rng.uniform(s_lo, s_hi, 2))
            deriv = np.zeros(m - 1)
            deriv[:4] = -scale * np.poly([a, 0.5 * (a + b), b])[::-1]
            deriv[0] += scale * (0.5 * (b - a)) ** 3 * rng.choice([-1.0, 1.0]) \
                * 10.0 ** rng.uniform(-8.0, -2.0)
        else:
            if kind == "double":
                roots = rng.uniform(s_lo, s_hi, m - 2)
                roots[1] = roots[0] + 10.0 ** rng.uniform(-9.0, -3.0)
            elif kind == "end":
                roots = beyond(m - 2)
            else:
                roots = np.concatenate([np.full(3, rng.uniform(s_lo, s_hi)), beyond(m - 5)])
            deriv = scale * rng.choice([-1.0, 1.0]) * np.poly(roots)[::-1]
            if kind == "flat":  # p' falls through the triple root: a maximum there
                deriv *= -np.sign(deriv[-1] * np.prod(roots[0] - roots[3:]))
        out.append(np.concatenate([[rng.uniform(-10.0, 10.0)], deriv / np.arange(1, m)]))
    return s_lo, s_hi, np.array(out)


# the rows of test_pv_poly_optimum_jacobian_zero_at_endpoint_maximum on the
# shipped band: two endpoint maxima, a convex row, -s^4 and the prior's midpoint
SPECIAL = (-20.0 / 22.0, 21.0 / 22.0, np.vstack([
    [0.0, 3.0, -1.0, 0.0, 0.0, 0.0], [0.0, -3.0, -1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
    0.5 * (np.array(PRIOR_LOW) + np.array(PRIOR_HIGH))]))


@PROPERTY
@given(case=polynomials())
@example(case=SPECIAL)
def test_certified_argmax_never_below_grid_maximum(case):
    s_lo, s_hi, thetas = case
    _assert_never_below_grid_maximum(thetas, s_lo, s_hi, _certified_argmax_batch)


def test_certified_argmax_matches_the_eigenvalues(capsys):
    # at each row's maximiser the two maps' polynomial values agree; the
    # maximisers themselves may differ where the maximum is flat
    worst = {"value": 0.0, "maximiser": 0.0}

    @PROPERTY
    @given(case=polynomials())
    @example(case=SPECIAL)
    def check(case):
        s_lo, s_hi, thetas = case
        got = _certified_argmax_batch(thetas, s_lo, s_hi, 1.0, 0.0)
        cold = _poly_argmax_batch(thetas, s_lo, s_hi, 1.0, 0.0)
        for th, s, s_cold in zip(thetas, got, cold):
            at_s, at_cold = np.polynomial.polynomial.polyval([s, s_cold], th)
            gap = abs(at_s - at_cold) / max(1.0, abs(at_cold))
            worst["value"] = max(worst["value"], gap)
            worst["maximiser"] = max(worst["maximiser"], abs(s - s_cold))
            assert gap <= 1e-12

    check()
    with capsys.disabled():
        print("\nlargest gap of the certified map from the per-row root solve: "
              f"value {worst['value']:.2g} (relative), maximiser {worst['maximiser']:.2g}")


@PROPERTY
@given(case=polynomials(rows=st.integers(1, 12)), shipped=st.booleans())
def test_certified_argmax_of_a_row_does_not_depend_on_its_batch(case, shipped):
    # every row solved alone gives the bits it gets in stacked batches of
    # 1 .. N rows; ``shipped`` solves shipped-prior draws on the shipped band
    s_lo, s_hi, thetas = case
    if shipped:
        rng = np.random.default_rng(len(thetas))
        s_lo, s_hi = -20.0 / 22.0, 21.0 / 22.0
        thetas = rng.uniform(PRIOR_LOW, PRIOR_HIGH, (len(thetas), 6))
    alone = [_certified_argmax_batch(row[None], s_lo, s_hi, 22.0, 22.0)[0] for row in thetas]
    for size in range(1, len(thetas) + 1):
        for start in range(0, len(thetas), size):
            block = _certified_argmax_batch(thetas[start:start + size], s_lo, s_hi, 22.0, 22.0)
            assert block.tolist() == alone[start:start + size]


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
