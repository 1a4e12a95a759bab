"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from dcee import (Ensemble, builtin_config, compare, compute_metrics, config_from_dict,
                  explore_grad, init_ensemble, load_config, moments, mse_bound,
                  quadratic_reward, run_scenario, run_seeds, solve_regulation,
                  stabilizing_gain, stats)
from dcee.reward import scan_regressor_bound
from reference import adapt_at, predict_at

A = [[0.0, 1.0], [2.0, 1.0]]
B = [[1.0], [1.0]]
C = [[0.0, 1.0]]
REPO = Path(__file__).resolve().parents[1]
_trapz = getattr(np, "trapezoid", None) or np.trapz


def _report(num, name, elapsed, detail=""):
    print(f"PASS criterion {num:2d} ({name}) [{elapsed:.3f} s] {detail}")


def test_criterion_1_regulation_gains():
    solve_regulation(A, B, C)  # warm-up outside the timed window
    t0 = time.perf_counter()
    Psi, G = solve_regulation(A, B, C)
    elapsed = time.perf_counter() - t0
    err = max(np.abs(Psi.ravel() - np.array([1.0 / 3.0, 1.0])).max(),
              abs(G.ravel()[0] + 2.0 / 3.0))
    assert err < 1e-12
    assert elapsed < 0.010
    _report(1, "regulation gains", elapsed, f"max-abs err {err:.2e}")


def test_criterion_2_pole_placement():
    stabilizing_gain(A, B, [0.4, 0.7])  # warm-up
    t0 = time.perf_counter()
    K = stabilizing_gain(A, B, [0.4, 0.7])
    elapsed = time.perf_counter() - t0
    assert np.abs(K.ravel() - np.array([-1.24, 1.14])).max() < 1e-2
    eig = np.sort(np.linalg.eigvals(np.array(A) - np.array(B) @ K).real)
    assert np.abs(eig - np.array([0.4, 0.7])).max() < 1e-8
    assert elapsed < 0.010
    _report(2, "pole placement", elapsed, f"K = {K.ravel()}")


def test_criterion_3_noise_free_convergence():
    d = builtin_config("quadratic-linear")
    d["noise"]["variance"] = 0.0
    d["run"]["horizon"] = 5000
    cfg = config_from_dict(d)
    t0 = time.perf_counter()
    tr = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    theta_err = abs(tr.column("theta_mean_0")[-1] - 1.0)
    y_err = abs(tr.column("y")[-1] - 1.0)
    assert theta_err < 1e-3 and y_err < 1e-3
    assert elapsed < 1.0
    _report(3, "noise-free convergence", elapsed,
            f"|theta-1| {theta_err:.2e}, |y-1| {y_err:.2e}")


def test_criterion_4_noisy_band_over_seeds():
    cfg = config_from_dict(builtin_config("quadratic-linear"))
    seeds = list(range(1, 11))
    t0 = time.perf_counter()
    traces = run_seeds(cfg, seeds)
    elapsed = time.perf_counter() - t0
    for seed, tr in zip(seeds, traces):
        theta_avg = tr.column("theta_mean_0")[-1000:].mean()
        y_avg = tr.column("y")[-1000:].mean()
        assert 0.85 <= theta_avg <= 1.15, (seed, theta_avg)
        assert 0.85 <= y_avg <= 1.15, (seed, y_avg)
    assert elapsed < 10.0
    _report(4, "noisy steady band, 10 seeds", elapsed)


def test_criterion_5_variance_decomposition():
    model = quadratic_reward()
    rng = np.random.default_rng(123)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        ens = Ensemble(thetas=rng.uniform(0.1, 20.0, (n, 1)),
                       rates=np.full(n, 0.005))
        y = rng.uniform(-5.0, 5.0)
        s = stats(ens, model)
        r = model.optimum_map_batch(ens.thetas)
        lhs = float(np.mean((y - r) ** 2))
        rhs = (y - s.r_mean) ** 2 + s.r_var
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    _report(5, "variance decomposition", elapsed, f"max-abs {worst:.2e}")


def test_criterion_6_exploration_gradient_cross_check():
    model = quadratic_reward()
    rng = np.random.default_rng(321)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        ens = Ensemble(thetas=rng.uniform(0.3, 15.0, (n, 1)),
                       rates=rng.uniform(0.001, 0.006, n))
        y = float(rng.uniform(0.5, 3.5) * rng.choice([-1.0, 1.0]))
        fd = explore_grad([y], ens, model)
        an = predict_at(ens, moments(ens.thetas)[1], [y], model).r_var_grad
        rel = abs(fd - an) / max(abs(an), abs(fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 1.0
    _report(6, "exploration gradient cross-check", elapsed,
            f"max rel err {worst:.2e}")


def test_criterion_7_estimator_mse_bound():
    window = 1000
    t0 = time.perf_counter()
    seeds = range(1, 6)
    traces = run_seeds(config_from_dict(builtin_config("quadratic-linear")), seeds)
    for seed, tr in zip(seeds, traces):
        model = quadratic_reward(known_gain=2.0, y_range=(-4.0, 4.0))
        # the run's first seed stream draws the ensemble
        rng_init = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        ens = init_ensemble(100, [0.0], [20.0], 0.005, rng_init)
        ys = tr.column("y")
        js = tr.column("j_obs")
        sq_err = np.zeros(100)
        max_a = 0.0
        start = tr.n_rows - window
        for k in range(tr.n_rows):
            ens = adapt_at(ens, [ys[k]], js[k], model)
            if k >= start:
                sq_err += (ens.thetas[:, 0] - 1.0) ** 2
                max_a = max(max_a, abs(1.0 - 0.005 * ys[k] ** 4))
        mse = sq_err / window
        bound = mse_bound(0.005, scan_regressor_bound(model.unknown_basis, model.y_range),
                          2.0, max_a)
        assert np.all(mse <= bound), (seed, mse.max(), bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(7, "estimator MSE bound, 5 seeds", elapsed,
            f"last run: max MSE {mse.max():.2e} <= bound {bound:.2e}")


def test_criterion_8_tracking_error_limit():
    d = builtin_config("quadratic-linear")
    d["noise"]["variance"] = 0.0
    d["run"]["horizon"] = 5000
    cfg = config_from_dict(d)
    t0 = time.perf_counter()
    tr = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    window = max(1, tr.n_rows // 10)
    worst = np.abs(tr.column("err_track")[-window:]).max()
    assert worst < 1e-6
    assert elapsed < 1.0
    _report(8, "reference tracking limit", elapsed, f"max |y-xi| {worst:.2e}")


def test_criterion_9_mppt_ordering():
    cfg = config_from_dict(builtin_config("mppt"))
    t0 = time.perf_counter()
    rows = compare([cfg.with_updates(algo=a) for a in ("dcee", "hc", "ic")])
    elapsed = time.perf_counter() - t0
    eff = {label: met.efficiency for label, met in rows}
    band = {label: met.steady_state_band for label, met in rows}
    assert eff["dcee"] >= eff["hc"] >= eff["ic"], eff
    assert eff["dcee"] >= 0.96
    # final-window band sits inside the constant-conditions tail
    assert band["hc"] > band["dcee"]
    assert elapsed < 30.0
    _report(9, "MPPT efficiency ordering", elapsed,
            f"dcee {eff['dcee']:.4f} >= hc {eff['hc']:.4f} >= ic {eff['ic']:.4f}")


def test_criterion_9_mppt_ordering_over_seeds():
    # the shipped scenario under seeds 0-19, one batch per algorithm: the
    # ordering holds for every seed, not only for the configured one
    cfg = load_config(REPO / "configs" / "mppt.json")
    seeds = range(20)
    t0 = time.perf_counter()
    traces = {algo: run_seeds(cfg.with_updates(algo=algo), seeds)
              for algo in ("dcee", "hc", "ic")}
    elapsed = time.perf_counter() - t0
    eff = {algo: np.array([compute_metrics(tr, tr.column("p_max_oracle")).efficiency
                           for tr in trs])
           for algo, trs in traces.items()}
    for seed, d, h, i in zip(seeds, eff["dcee"], eff["hc"], eff["ic"]):
        assert d >= h >= i and d >= 0.96, (seed, d, h, i)

    def summary(x, fmt=".2e"):
        lo, hi = x.argmin(), x.argmax()
        return (f"min {x[lo]:{fmt}} (seed {seeds[lo]}), median {np.median(x):{fmt}}, "
                f"max {x[hi]:{fmt}} (seed {seeds[hi]})")

    _report(9, "MPPT ordering over seeds 0-19", elapsed,
            f"dcee - hc {summary(eff['dcee'] - eff['hc'])}")
    # the same margin before and after the +10 degC step at t = 1 s (reported,
    # not asserted): each segment's trapezoid energy of p against p_max_oracle
    for ticks, part in ((slice(0, 1000), "0-999"), (slice(999, None), "999-2000")):
        seg = {algo: np.array([_trapz(tr.column("p")[ticks], tr.column("t")[ticks])
                               / _trapz(tr.column("p_max_oracle")[ticks], tr.column("t")[ticks])
                               for tr in traces[algo]])
               for algo in ("dcee", "hc")}
        print(f"    ticks {part}: dcee - hc {summary(seg['dcee'] - seg['hc'])}")
    # the stall after the step (reported, not asserted): how many of those
    # ticks dcee's reference stands still, and how far its belief ends from the MPP
    dcee = traces["dcee"]
    rest = np.array([np.count_nonzero(np.abs(tr.column("u")[999:]) <= 1e-8) for tr in dcee])
    miss = np.array([abs(tr.column("r_mean")[-1] - tr.column("v_mpp_oracle")[-1]) for tr in dcee])
    print(f"    ticks 999-2000, dcee at rest (|u| <= 1e-8 V): {summary(rest, 'g')} ticks")
    print(f"    tick 2000, dcee |r_mean - v_mpp_oracle|: {summary(miss, '.3f')} V")


def test_criterion_10_baseline_sanity():
    from dcee import HcState, IcState, hc_step, ic_step
    from dcee.pv import PvParams, mpp_oracle, pv_current

    params = PvParams()
    g, temp = 950.0, 35.0
    t0 = time.perf_counter()
    v_star, _ = mpp_oracle(params, g, temp)

    v = 16.0
    ic = IcState(step=0.1, deadband=0.02)
    held_at = None
    for k in range(1500):
        dv, ic = ic_step(ic, v, pv_current(params, v, g, temp))
        if held_at is None and dv == 0.0:
            held_at = k
        if held_at is not None:
            assert dv == 0.0
        v += dv
    assert held_at is not None

    step = 1.6
    v = 16.0
    hc = HcState(step=step)
    worst = 0.0
    for k in range(1200):
        p = v * pv_current(params, v, g, temp)
        dv, hc = hc_step(hc, p)
        v += dv
        if k > 300:
            worst = max(worst, abs(v - v_star))
    assert worst <= 2.0 * step
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(10, "baseline sanity", elapsed,
            f"IC holds from step {held_at}; HC cycle within {worst:.2f} V")
