import copy
import csv
import dataclasses
import functools
import gc
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcee import (ConfigError, NumericalError, Trace, builtin_config, compare,
                  compute_metrics, config_from_dict, emit_csv, load_config,
                  read_trace_csv, render_comparison, run_scenario, run_seeds)
import dcee
from dcee import harness, pv
from dcee.cli import main as cli_main
from dcee.harness import write_plot_script
import reference
from reference import reference_mppt_run, reference_quadratic_run

REPO = Path(__file__).resolve().parents[1]


def quad_config(**run_updates):
    d = builtin_config("quadratic-linear")
    d["run"].update(run_updates)
    return config_from_dict(d)


def short_mppt(horizon=40, **ctl):
    d = builtin_config("mppt")
    del d["run"]["duration"]
    d["run"]["horizon"] = horizon
    d["controller"].update(ctl)
    return config_from_dict(d)


def test_unknown_top_level_key_rejected():
    d = builtin_config("quadratic-linear")
    d["plantt"] = {}
    with pytest.raises(ConfigError, match="plantt"):
        config_from_dict(d)


def test_unknown_section_key_rejected():
    d = builtin_config("quadratic-linear")
    d["controller"]["detla"] = 0.5
    with pytest.raises(ConfigError, match="detla"):
        config_from_dict(d)


def test_bad_kind_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "unknown"})


def test_horizon_and_duration_conflict():
    d = builtin_config("mppt")
    d["run"]["horizon"] = 100
    with pytest.raises(ConfigError, match="not both"):
        config_from_dict(d)


@pytest.mark.parametrize("kind, section, key, value", [
    ("mppt", "run", "horizon", 1e30),
    ("quadratic-linear", "run", "horizon", harness.MAX_TICKS + 1),
    ("mppt", "run", "duration", 1e30),
    ("mppt", "run", "duration", (harness.MAX_TICKS + 1) * 1e-3),  # dt 1 ms
    ("mppt", "ensemble", "n", 1e30),
    ("quadratic-linear", "ensemble", "n", harness.MAX_ESTIMATORS + 1),
])
def test_run_sizes_above_the_bounds_are_refused(kind, section, key, value):
    # refused by the config, before anything is allocated per tick; these
    # configs are never run
    d = builtin_config(kind)
    if key in ("horizon", "duration"):
        d["run"].pop("duration", None)
        d["run"].pop("horizon", None)
    d[section][key] = value
    with pytest.raises(ConfigError, match="at most"):
        config_from_dict(d)
    # the bounds themselves are accepted
    bound = {"n": harness.MAX_ESTIMATORS, "horizon": harness.MAX_TICKS,
             "duration": harness.MAX_TICKS * float(d["run"]["dt"])}
    d[section][key] = bound[key]
    assert config_from_dict(d).horizon <= harness.MAX_TICKS


@pytest.mark.parametrize("key, value", [
    ("duration", 1e308), ("duration", float("inf")), ("duration", float("nan")),
    ("dt", 1e-320),  # 2 s / 1e-320 s overflows
])
def test_a_duration_of_no_finite_tick_count_is_refused(key, value):
    # refused by name, before the tick count is rounded to an integer
    d = builtin_config("mppt")
    d["run"][key] = value
    with pytest.raises(ConfigError, match=r"run\.duration"):
        config_from_dict(d)


def test_a_panel_that_overflows_is_refused_without_a_warning(tmp_path, capsys):
    # the saturation current's expm1 overflows; under the suite's
    # filterwarnings = error a numpy warning would escape as an exception
    d = builtin_config("mppt")
    d["plant"]["v_oc_ref"] = 4.4e31
    with pytest.raises(ConfigError, match="saturation current"):
        config_from_dict(d)
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(d))
    assert cli_main(["mppt", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_a_profile_without_a_finite_maximum_power_point_is_refused(tmp_path, capsys):
    # at 1e308 W/m^2 the open-circuit voltage overflows: the oracle would read
    # inf V and NaN W, which no run may write into its trace; the config
    # refuses the photocurrent first (with r_s = 0 the panel refuses the oracle)
    d = builtin_config("mppt")
    d["controller"]["algo"] = "hc"
    d["run"] = {"horizon": 10}
    d["profile"] = {"irradiance": [[0.0, 800.0], [0.004, 800.0], [0.004, 1e308]],
                    "temperature": [[0.0, 25.0]]}
    cfg_path = tmp_path / "bright.json"
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "bright.csv"
    assert cli_main(["mppt", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "profile" in err and "t = 0.004 s" in err and "1e+308 W/m^2, 25.0 degC" in err
    assert not out.exists()


@pytest.mark.parametrize("algo, plant, irradiance, message", [
    ("hc", {}, 1e20, "does not resolve the panel's current"),
    ("dcee", {}, 1e20, "does not resolve the panel's current"),
    ("hc", {}, 1e30, "does not resolve the panel's current"),
    ("dcee", {}, 1e30, "does not resolve the panel's current"),
    ("hc", {"i_sc_ref": 5.4e300}, 600.0, "does not resolve the panel's current"),
    # with r_s = 0 the current resolves; at 1e308 W/m^2 the oracle overflows
    ("hc", {"r_s": 0.0}, 1e308, "no finite maximum power point"),
])
def test_a_profile_the_diode_model_cannot_resolve_exits_2(tmp_path, capsys, algo, plant,
                                                          irradiance, message):
    # these used to run to exit 0: at 1e20 W/m^2 the oracle read 80 V, outside
    # v_range, and the current a constant 192 A; at 1e30 W/m^2 and with
    # i_sc_ref = 5.4e300 it read about 1e-28 V
    d = builtin_config("mppt")
    d["controller"]["algo"] = algo
    d["plant"].update(plant)
    d["run"] = {"horizon": 10}
    d["profile"] = {"irradiance": [[0.0, 600.0], [0.004, 600.0], [0.004, irradiance]],
                    "temperature": [[0.0, 25.0]]}
    cfg_path = tmp_path / "meaningless.json"
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "meaningless.csv"
    assert cli_main(["mppt", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "profile" in err and message in err
    t = 0.0 if irradiance == 600.0 else 0.004
    assert f"t = {t} s ({irradiance} W/m^2, 25.0 degC)" in err
    assert not out.exists()


def test_mppt_validation_rules():
    d = builtin_config("mppt")
    d["controller"]["algo"] = "sweep"
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d = builtin_config("mppt")
    d["controller"]["v_init"] = 1.0  # outside v_limits
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d = builtin_config("mppt")
    d["ensemble"]["prior_low"] = [0.0] * 5  # degree+1 mismatch
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d = builtin_config("mppt")
    d["controller"]["fd_eps"] = 1e-5  # the PV gradient is closed-form
    with pytest.raises(ConfigError, match="fd_eps"):
        config_from_dict(d)
    d = builtin_config("mppt")
    d["controller"]["v_limits"] = d["reward"]["v_range"]  # no probe margin needed
    config_from_dict(d)


def test_quadratic_rejects_fd_eps():
    d = builtin_config("quadratic-linear")
    d["controller"]["fd_eps"] = 1e-5  # the quadratic gradient is closed-form too
    with pytest.raises(ConfigError, match="fd_eps"):
        config_from_dict(d)


def test_horizon_zero_gives_single_record(tmp_path):
    cfg = quad_config(horizon=0)
    tr = run_scenario(cfg)
    assert tr.n_rows == 1
    for col in tr.columns:
        assert np.all(np.isfinite(tr.values[col]))
    path = tmp_path / "single.csv"
    emit_csv(tr, path)
    assert len(path.read_text().strip().splitlines()) == 2  # header + 1 row


def test_trace_length_and_finiteness():
    cfg = quad_config(horizon=50)
    tr = run_scenario(cfg)
    assert tr.n_rows == 51
    for col in tr.columns:
        assert np.all(np.isfinite(tr.values[col])), col
    assert np.all(np.diff(tr.column("k")) == 1)


@pytest.mark.parametrize("make", [lambda: quad_config(horizon=200),
                                  lambda: short_mppt(horizon=200, algo="dcee")],
                         ids=["quadratic", "mppt-dcee"])
def test_bit_identical_reruns(make):
    # nothing of a run may carry over into the next run of the same config
    cfg = make()
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    for col in a.columns:
        assert np.array_equal(a.values[col], b.values[col]), col


@pytest.mark.parametrize("rate, variance, horizon, seeds, blocks", [
    pytest.param(None, 0.0, 100, [1], [50], id="returns"),
    pytest.param(50.0, 0.0, 100, [1], [50], id="raises"),
    # seed 0 diverges first, at step 317: seed 3 runs again alone and
    # diverges at step 318
    pytest.param(4.0, 1.0, 400, [3, 0], [100, 50], id="re-runs-the-seeds-before"),
])
def test_optimum_map_is_cold_again_after_a_run(monkeypatch, rate, variance, horizon,
                                               seeds, blocks):
    # the map keeps nothing of a run that returns, raises, or re-runs the
    # seeds before a failing one: the model's map gives the rows of the run's
    # last call the bits the run got, as a fresh model's map does
    d = builtin_config("mppt")
    d["run"] = {"horizon": horizon, "seed": 1}
    d["noise"]["variance"] = variance
    if rate is not None:
        d["ensemble"]["rate"] = rate  # the estimates diverge: the run raises
    cfg = config_from_dict(d)
    argmax, calls = pv._certified_argmax_batch, []

    def spy(thetas, *args):
        calls.append((np.array(thetas), argmax(thetas, *args)))
        return calls[-1][1].copy()

    monkeypatch.setattr(pv, "_certified_argmax_batch", spy)
    if rate is None:
        run_seeds(cfg, seeds)
    else:
        with pytest.raises(NumericalError):
            run_seeds(cfg, seeds)
    # the batch's calls, then those of the seeds run again on their own
    sizes = [len(thetas) for thetas, _ in calls]
    assert [n for i, n in enumerate(sizes) if not i or n != sizes[i - 1]] == blocks
    thetas, got = calls[-1]
    fresh = config_from_dict(d).model
    for out in (cfg.model.optimum_map_batch(thetas), cfg.model.optimum_map_batch(thetas),
                fresh.optimum_map_batch(thetas)):
        assert np.array_equal(out, got)


def test_noise_stream_independent_of_ensemble_size():
    # same seed, different N: the measurement noise sequence is unchanged
    theta_true = 1.0
    traces = []
    for n in (5, 50):
        d = builtin_config("quadratic-linear")
        d["ensemble"]["n"] = n
        d["run"]["horizon"] = 30
        traces.append(run_scenario(config_from_dict(d)))
    for tr_a, tr_b in [traces[:2]]:
        for tr in (tr_a, tr_b):
            y = tr.column("y")
            assert tr.n_rows == 31
        noise_a = tr_a.column("j_obs") - (2.0 * tr_a.column("y")
                                          - theta_true * tr_a.column("y") ** 2)
        noise_b = tr_b.column("j_obs") - (2.0 * tr_b.column("y")
                                          - theta_true * tr_b.column("y") ** 2)
        np.testing.assert_allclose(noise_a, noise_b, atol=1e-12)


def test_seed_changes_trace():
    a = run_scenario(quad_config(horizon=50, seed=1))
    b = run_scenario(quad_config(horizon=50, seed=2))
    assert not np.array_equal(a.column("j_obs"), b.column("j_obs"))


def test_run_seeds_matches_single_runs_in_seed_order():
    cfg = quad_config(horizon=80)
    seeds = [5, 3, 4]
    traces = run_seeds(cfg, seeds)
    assert len(traces) == len(seeds)
    for seed, tr in zip(seeds, traces):
        ref = run_scenario(cfg.with_updates(seed=seed))
        assert tr.columns == ref.columns
        for col in ref.columns:
            assert np.array_equal(tr.values[col], ref.values[col])


def _computed_ticks(monkeypatch) -> list:
    """The ticks the loop computes from here on, one entry per observation."""
    ticks, observe = [], harness._Panel.observe

    def counted(panel, k, noise):
        ticks.append(k)
        return observe(panel, k, noise)

    monkeypatch.setattr(harness._Panel, "observe", counted)
    return ticks


def test_resting_seeds_trace_does_not_depend_on_their_batch(monkeypatch):
    # the noise-free run comes to rest on an exact fixed point, from which a
    # seed alone fast-forwards to the next change of input; seed 9 keeps one
    # estimator in a period-2 cycle of its last bits, which the run
    # copies too, so the batch rests on the orbit of period 2 its seeds form,
    # and the optimum map gets blocks whose rows only partly repeat; each seed
    # must still get the bits of its run alone.  With the irradiance stepped
    # from 950 to 1000 W/m2 at t = 1.7 s, seed 1 alone rests, resumes at the
    # step and rests again
    ticks, step, seeds = _computed_ticks(monkeypatch), 1700, [1, 12345, 9, 5]
    for stepped in (False, True):
        d = builtin_config("mppt")
        if stepped:
            d["profile"]["irradiance"][-1:] = [[1.7, 950.0], [1.7, 1000.0], [2.0, 1000.0]]
        cfg = config_from_dict(d)
        ticks.clear()
        batch = run_seeds(cfg, seeds)
        computed = {"batch": set(ticks)}
        for seed, tr in zip(seeds, batch):
            ticks.clear()
            ref = run_scenario(cfg.with_updates(seed=seed))
            for col in ref.columns:
                assert np.array_equal(tr.values[col], ref.values[col]), (stepped, seed, col)
            computed[seed] = set(ticks)
        # the batch, too, rests on some of ticks 1200..step - 1 (a one-deep rest
        # computed them all); seed 1 alone rests before the step and at the end
        assert set(range(1200, step)) - computed["batch"]
        rested = set(range(cfg.horizon + 1)) - computed[1]
        assert {step - 1, cfg.horizon - 1} <= rested and (step in computed[1]) == stepped


def _noisy_mppt(algo):
    d = builtin_config("mppt")
    d["run"] = {"horizon": 60, "seed": 1}
    d["controller"]["algo"] = algo
    d["noise"]["variance"] = 1.0
    return config_from_dict(d)


_BATCH_CFGS = {"quadratic": quad_config(horizon=60),
               **{f"mppt-{algo}": _noisy_mppt(algo) for algo in ("dcee", "hc", "ic")}}


@functools.cache
def _alone(case, seed):
    """The seed's trace when it runs by itself."""
    return run_seeds(_BATCH_CFGS[case], [seed])[0]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=st.sampled_from(sorted(_BATCH_CFGS)),
       seeds=st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
# the batch that once gave the dcee seeds the warm argmax sweeps of their neighbours
@example(case="mppt-dcee", seeds=[7, 0, 5, 9, 11])
@example(case="mppt-hc", seeds=[7, 0, 5, 9, 11])
@example(case="mppt-ic", seeds=[7, 0, 5, 9, 11])
def test_seed_trace_does_not_depend_on_its_batch(case, seeds):
    # any subset of seeds, in any order, of either kind and every mppt
    # algorithm, gives each seed its own bits
    for seed, tr in zip(seeds, run_seeds(_BATCH_CFGS[case], seeds)):
        ref = _alone(case, seed)
        assert tr.columns == ref.columns
        for col in ref.columns:
            assert tr.values[col].dtype == ref.values[col].dtype
            assert np.array_equal(tr.values[col], ref.values[col]), (seeds, seed, col)


def test_run_seeds_rejects_negative_seeds():
    with pytest.raises(ConfigError, match="seed"):
        run_seeds(quad_config(horizon=5), [1, -1])


def test_with_updates_checks_what_it_sets_and_shares_the_build():
    cfg = short_mppt(horizon=40)
    for bad, message in (({"seed": -1}, "nonnegative"), ({"seed": 1.5}, "integer"),
                         ({"algo": "sweep"}, "dcee, hc or ic")):
        with pytest.raises(ConfigError, match=message):
            cfg.with_updates(**bad)
    with pytest.raises(ConfigError, match="algo"):  # a quadratic scenario has no algo
        quad_config(horizon=5).with_updates(algo="hc")
    ic = cfg.with_updates(seed=7, algo="ic")
    assert (ic.seed, ic.section("run")["seed"], ic.section("controller")["algo"]) == (7, 7, "ic")
    assert ic.model is cfg.model and ic.plant is cfg.plant and ic.env is cfg.env
    assert (cfg.seed, cfg.section("controller")["algo"]) == (1, "dcee")


def test_seeds_given_in_code_are_integers_too():
    cfg = quad_config(horizon=5)
    for seed in (1.9, True):
        with pytest.raises(ConfigError, match="run.seed must be an integer"):
            run_seeds(cfg, [1, seed])
        with pytest.raises(ConfigError, match="run.seed must be an integer"):
            cfg.with_updates(seed=seed)
    assert cfg.with_updates(seed=3.0).seed == 3 and len(run_seeds(cfg, [2.0])) == 1


# the estimates stay finite at step 0 but the predicted ones overflow: the
# pv-poly map refuses them, the quadratic gradient turns NaN
_MPPT_MID = [116.35, 110.4, 25.95, 53.2, -122.7, -181.2]  # the shipped prior box's midpoint
PREDICTED_OVERFLOW = {
    "mppt": {"ensemble": dict(prior_low=[m - 1e-3 for m in _MPPT_MID],
                              prior_high=[m + 1e-3 for m in _MPPT_MID], rate=1e156)},
    "quadratic-linear": {"ensemble": dict(prior_low=[0.999], prior_high=[1.001], rate=1e154),
                         "noise": {"variance": 0.0}},
}


def _updated(kind, sections):
    d = builtin_config(kind)
    for name, body in sections.items():
        d[name].update(body)
    return d


def _rate(rate, variance):
    return {"ensemble": {"rate": rate}, "noise": {"variance": variance}}


@pytest.mark.parametrize("kind, sections, horizon, seeds", [
    pytest.param("quadratic-linear", _rate(0.02, 2.0), 300, [1, 5, 6], id="seeds0"),
    pytest.param("quadratic-linear", _rate(0.02, 2.0), 300, [5, 2], id="seeds1"),
    pytest.param("quadratic-linear", _rate(0.02, 2.0), 300, [3, 6], id="seeds2"),
    pytest.param("mppt", _rate(3.0, 0.0), 600, [4, 1, 2], id="mppt"),
    pytest.param("mppt", _rate(4.0, 1.0), 400, [3, 0], id="mppt-after-a-cut"),
    pytest.param("mppt", PREDICTED_OVERFLOW["mppt"], 50, [2, 1], id="mppt-predicted-overflow"),
    pytest.param("quadratic-linear", PREDICTED_OVERFLOW["quadratic-linear"], 50, [2, 1],
                 id="quadratic-predicted-overflow"),
    pytest.param("mppt", {"ensemble": dict(prior_low=[m - 1.0 for m in _MPPT_MID],
                                           prior_high=[m + 1.0 for m in _MPPT_MID],
                                           rate=3e153)}, 50, [3, 0],
                 id="mppt-refused-after-a-cut"),
])
def test_run_seeds_reports_the_first_failing_seed_in_list_order(kind, sections, horizon, seeds):
    # quadratic at rate 0.02: seeds 2, 5 and 6 diverge at steps 259, 267 and
    # 249 and seeds 1 and 3 do not.  mppt at rate 3.0: every seed diverges
    # at step 502; at rate 4.0 with noise, seed 0 at step 317 and seed 3 at
    # step 318, so after seed 0 fails seed 3 runs again alone and its step
    # 318 is the failure reported.  The error is the one running the seeds
    # in turn meets first, also when a later seed diverges earlier.  The
    # predicted overflow fails every seed at step 0.  Over the wider prior at
    # rate 3e153 seed 0's estimates overflow at step 0, while seed 3's survive
    # it and its predicted ones are refused by the optimum map at step 1
    d = _updated(kind, sections)
    d["run"].pop("duration", None)
    d["run"]["horizon"] = horizon
    cfg = config_from_dict(d)
    with pytest.raises(NumericalError) as batched:
        run_seeds(cfg, seeds)
    for seed in seeds:
        try:
            run_scenario(cfg.with_updates(seed=seed))
        except NumericalError as exc:
            serial = exc
            break
    assert (str(batched.value), batched.value.step) == (str(serial), serial.step)
    got, want = batched.value.trace, serial.trace
    assert got.columns == want.columns
    for col in want.columns:
        assert got.values[col].dtype == want.values[col].dtype
        assert np.array_equal(got.values[col], want.values[col]), col


def _refuse_writes_from_the_loop(monkeypatch):
    def emit_csv(*args):
        raise AssertionError("the simulation wrote a trace file")
    monkeypatch.setattr(harness, "emit_csv", emit_csv)


def test_numerical_failure_persists_partial_trace(tmp_path, monkeypatch):
    d = builtin_config("quadratic-linear")
    d["ensemble"]["rate"] = 1e308  # blows the estimates up immediately
    d["run"]["horizon"] = 50
    cfg = config_from_dict(d)
    _refuse_writes_from_the_loop(monkeypatch)
    with pytest.raises(NumericalError) as err:
        run_scenario(cfg)
    assert err.value.step == 0
    # no row is complete at step 0: the partial trace is the header alone
    emit_csv(err.value.trace, tmp_path / "partial.csv")
    back = read_trace_csv(tmp_path / "partial.csv")
    assert back.n_rows == 0
    assert back.columns == run_scenario(quad_config(horizon=0)).columns
    for name in back.columns:
        kind = "i" if name in ("k", "contraction_ok") else "f"
        assert back.column(name).dtype.kind == kind and back.column(name).shape == (0,)


def _prior_low_above_high(d):
    d["ensemble"]["prior_low"][0] = d["ensemble"]["prior_high"][0] + 1.0


def _two_entry_prior(d):
    d["ensemble"].update(prior_low=[0.0, 0.0], prior_high=[20.0, 20.0])


@pytest.mark.parametrize("kind, mutate", [
    ("mppt", lambda d: d["ensemble"].update(rate=-1.0)),
    ("mppt", _prior_low_above_high),
    ("mppt", lambda d: d["plant"].update(r_s=-1.0)),
    ("quadratic-linear", lambda d: d["plant"].update(B=[[0.0], [0.0]])),
    ("quadratic-linear", lambda d: d["controller"].update(poles=[1.2, 0.5])),
    ("quadratic-linear", lambda d: d["controller"].update(poles=[0.5])),
    ("quadratic-linear", lambda d: d["plant"].update(B=[[1.0, 0.0], [1.0, 1.0]])),
    ("quadratic-linear", lambda d: d["controller"].update(xi0=[9.0])),
    ("mppt", lambda d: (d["reward"].update(degree=1), _two_entry_prior(d))),
    ("mppt", lambda d: d["reward"].update(v_scale=0.0)),
    ("mppt", lambda d: d["controller"].update(hc_step=0.0)),
    ("mppt", lambda d: d["controller"].update(ic_deadband=-1.0)),
    ("quadratic-linear", lambda d: d["plant"].update(x0=[1.2])),
    ("quadratic-linear", lambda d: d["run"].update(dt="x")),
    ("quadratic-linear",
     lambda d: (d["reward"].update(theta_true=[1.0, 1.0]), _two_entry_prior(d))),
    ("mppt", lambda d: d["controller"].update(u_max=-1.0)),
    ("mppt", lambda d: d["controller"].update(delta=float("nan"))),
    ("mppt", lambda d: d["plant"].update(g_ref=0.0)),
    ("mppt", lambda d: d["controller"].update(hc_step=float("nan"))),
    ("mppt", lambda d: d["controller"].update(ic_deadband=float("nan"))),
    ("mppt", lambda d: d["reward"].update(v_shift=float("nan"))),
    ("mppt", lambda d: d["noise"].update(variance=float("nan"))),
    ("quadratic-linear", lambda d: d["ensemble"].update(prior_high=[float("inf")])),
    ("quadratic-linear", lambda d: d["run"].update(seed=-1)),
    ("quadratic-linear", lambda d: d["run"].update(horizon=float("inf"))),
    ("quadratic-linear", lambda d: d["plant"].update(x0=[float("nan"), 3.6])),
    ("quadratic-linear", lambda d: d["plant"].update(A=[[float("inf"), 1.0], [2.0, 1.0]])),
    ("mppt", lambda d: d["plant"].update(r_sh=5.0)),
    ("mppt", lambda d: d["plant"].update(temp_coeff_i=-0.6, r_s=0.0)),
    ("quadratic-linear", lambda d: d["reward"].update(theta_floor=None)),
    ("quadratic-linear", lambda d: d["ensemble"].update(n=5.7)),
    ("quadratic-linear", lambda d: d["ensemble"].update(n=True)),
    ("quadratic-linear", lambda d: d["run"].update(seed=1.9)),
    ("quadratic-linear", lambda d: d["run"].update(horizon=10.5)),
    ("mppt", lambda d: d["reward"].update(degree=5.5)),
    ("mppt", lambda d: d["plant"].update(n_cells=72.5)),
    ("mppt", lambda d: (d["reward"].update(v_range=[-5.0, 43.0]),
                        d["controller"].update(v_limits=[-1.0, 42.0], v_init=-1.0))),
    ("quadratic-linear", lambda d: d["run"].update(out="trace.csv")),
    ("quadratic-linear", lambda d: d["reward"].update(theta_true=[float("nan")])),
    ("quadratic-linear", lambda d: d["reward"].update(theta_true=[float("inf")])),
    ("mppt", lambda d: d["controller"].update(ic_step=0.0)),
    ("mppt", lambda d: d["controller"].update(ic_step=float("inf"))),
    ("mppt", lambda d: d["controller"].update(ic_step=float("nan"))),
    ("mppt", lambda d: d["controller"].update(hc_step=float("inf"))),
    ("mppt", lambda d: d["controller"].update(ic_deadband=float("inf"))),
    ("quadratic-linear", lambda d: d["ensemble"].update(prior_low=[-1e308], prior_high=[1e308])),
    ("mppt", lambda d: d["ensemble"].update(prior_low=[-1e308] * 6, prior_high=[1e308] * 6)),
], ids=["negative-rate", "prior-low-above-high", "negative-r_s", "rank-deficient-B",
        "unstable-poles", "wrong-pole-count", "two-input-B-without-K",
        "xi0-outside-y_range", "degree-1", "v_scale-0", "hc_step-0",
        "ic_deadband-negative", "x0-wrong-length", "dt-not-a-number",
        "theta_true-two-entries", "u_max-negative", "delta-nan", "g_ref-0",
        "hc_step-nan", "ic_deadband-nan", "v_shift-nan", "noise-nan",
        "prior-infinite", "seed-negative", "horizon-infinite", "x0-nan", "A-inf",
        "r_sh-below-v_oc-over-i_sc", "no-photocurrent-at-35-degC", "theta_floor-null",
        "n-fraction", "n-bool", "seed-fraction", "horizon-fraction", "degree-fraction",
        "n_cells-fraction", "v_limits-negative", "run-out", "theta_true-nan",
        "theta_true-inf", "ic_step-0", "ic_step-inf", "ic_step-nan", "hc_step-inf",
        "ic_deadband-inf", "prior-width-overflow", "prior-width-overflow-mppt"])
def test_cli_bad_config_exits_2(tmp_path, capsys, kind, mutate):
    d = builtin_config(kind)
    mutate(d)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(d))
    commands = ["run", "gains"] if kind == "quadratic-linear" else ["run"]
    for command in commands:
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("kind, command", [
    ("quadratic-linear", ["run"]),
    ("mppt", ["mppt", "--algo", "dcee"]),
    ("mppt", ["compare"]),
], ids=["run", "mppt-dcee", "compare"])
def test_cli_huge_delta_runs_without_a_warning(tmp_path, capsys, kind, command):
    # (1 - 2 delta)^2 overflows beyond delta ~ 6.7e153, so contraction_check must not square it
    d = builtin_config(kind)
    d["run"].pop("duration", None)
    d["run"]["horizon"] = 50
    d["controller"]["delta"] = 1e300
    cfg_path = tmp_path / "huge_delta.json"
    cfg_path.write_text(json.dumps(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main([*command, "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""


def test_negative_zero_noise_variance_is_zero_variance(tmp_path, capsys):
    # sqrt(-0.0) is -0.0, a scale numpy's normal refuses
    out = {}
    for variance in (-0.0, 0.0):
        d = builtin_config("mppt")
        d["noise"]["variance"] = variance
        cfg_path, out[variance] = tmp_path / f"{variance}.json", tmp_path / f"{variance}.csv"
        cfg_path.write_text(json.dumps(d))
        assert cli_main(["mppt", "--algo", "hc", "--config", str(cfg_path),
                         "--out", str(out[variance])]) == 0
    assert capsys.readouterr().err == ""
    assert out[-0.0].read_bytes() == out[0.0].read_bytes()


def test_overflowing_pole_placement_is_one_config_error(tmp_path):
    # the placed poles' characteristic polynomial overflows inside the gain design;
    # the non-finite gains are refused, with no numpy warning before the message
    d = builtin_config("quadratic-linear")
    d["controller"]["poles"] = [p * 1e300 for p in d["controller"]["poles"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            config_from_dict(d)
    cfg_path = tmp_path / "poles.json"
    cfg_path.write_text(json.dumps(d))
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    cli = "import sys; from dcee.cli import main; sys.exit(main())"
    out = subprocess.run([sys.executable, "-c", cli, "run", "--config", str(cfg_path)],
                         capture_output=True, text=True, cwd=REPO, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 2
    assert out.stderr.startswith("configuration error") and len(out.stderr.splitlines()) == 1


def test_integer_keys_take_integral_floats():
    d = builtin_config("mppt")
    d["ensemble"]["n"], d["reward"]["degree"], d["plant"]["n_cells"] = 5.0, 5.0, 72.0
    d["run"].update(seed=3.0, horizon=20.0)
    del d["run"]["duration"]
    cfg = config_from_dict(d)
    assert (cfg.seed, cfg.horizon, cfg.model.dim, cfg.plant.n_cells) == (3, 20, 6, 72)
    assert run_scenario(cfg).n_rows == 21


@pytest.mark.parametrize("kind, algo", [
    ("quadratic-linear", None), ("mppt", "dcee"), ("mppt", "hc"), ("mppt", "ic"),
])
def test_a_run_leaves_no_reference_cycles(kind, algo):
    # a finished run's plant (its env list, oracle columns and tracker states)
    # must go with its last reference; in a cycle it waits for a full gc, so
    # many short runs in one process pile up in memory
    d = builtin_config(kind)
    d["run"].pop("duration", None)
    d["run"]["horizon"] = 20
    if algo:
        d["controller"]["algo"] = algo
    cfg = config_from_dict(d)
    run_scenario(cfg)
    gc.collect()
    gc.disable()
    try:
        run_scenario(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind, sections, command, at_once", [
    pytest.param("mppt", _rate(5.0, 0.0), ["run"], False, id="5.0"),
    pytest.param("mppt", _rate(50.0, 0.0), ["run"], False, id="50.0"),
    pytest.param("mppt", _rate(5.0, 0.0), ["mppt", "--algo", "dcee"], False, id="5.0-mppt-dcee"),
    pytest.param("mppt", _rate(50.0, 0.0), ["mppt", "--algo", "dcee"], False,
                 id="50.0-mppt-dcee"),
    pytest.param("mppt", PREDICTED_OVERFLOW["mppt"], ["mppt"], True,
                 id="mppt-predicted-overflow"),
    pytest.param("quadratic-linear", PREDICTED_OVERFLOW["quadratic-linear"], ["run"], True,
                 id="quadratic-predicted-overflow"),
])
def test_cli_estimator_divergence_exits_3_with_partial_trace(tmp_path, capsys, kind, sections,
                                                             command, at_once):
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(_updated(kind, sections)))
    out = tmp_path / "diverge.csv"
    # no np.errstate here: the run keeps numpy's warnings off stderr itself
    assert cli_main([*command, "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    step = int(re.search(r"estimator ensemble diverged at step (\d+)$", err.strip()).group(1))
    # the rows before the failing step; at step 0 the header alone
    tr = read_trace_csv(out)
    assert tr.n_rows == step < 2001 and (step == 0) == at_once
    for col in tr.columns:
        assert np.all(np.isfinite(tr.values[col])), col


@pytest.mark.parametrize("r_s", [0.5, 0.0])
def test_mppt_profile_temperature_outside_diode_model_exits_2(tmp_path, capsys, r_s):
    # at the profile's 35 degC step the open-circuit voltage turns negative
    # and the saturation current with it; r_s = 0 would give a finite but
    # meaningless current and r_s > 0 a NaN, so the config is refused first
    d = builtin_config("mppt")
    d["plant"].update(temp_coeff_v=-5.0, r_s=r_s)
    cfg_path = tmp_path / "hot.json"
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "hot.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "at 35.0 degC" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x0, what, n_rows", [
    # y = 1e200: the reward's y * y overflows before any estimate exists
    pytest.param([1e200, 1e200], "reward observation became non-finite", 0, id="observation"),
    # y = 0 is finite, but A x overflows: the row of step 0 is complete
    pytest.param([1e308, 0.0], "state became non-finite", 1, id="state"),
])
def test_quadratic_plant_overflow_names_what_went_non_finite(x0, what, n_rows):
    d = builtin_config("quadratic-linear")
    d["plant"]["x0"] = x0
    with pytest.raises(NumericalError, match=f"^{what} at step 0$") as err:
        run_scenario(config_from_dict(d))
    assert err.value.step == 0 and err.value.trace.n_rows == n_rows


def test_quadratic_estimator_divergence_stops_before_non_finite_rows(monkeypatch):
    # rate 0.05 overshoots: theta_std_0 overflows long before the plant does
    d = builtin_config("quadratic-linear")
    d["ensemble"]["rate"] = 0.05
    _refuse_writes_from_the_loop(monkeypatch)
    with pytest.raises(NumericalError, match="estimator ensemble diverged") as err:
        run_scenario(config_from_dict(d))
    tr = err.value.trace
    assert 0 < tr.n_rows == err.value.step < d["run"]["horizon"]
    for col in tr.columns:
        assert np.all(np.isfinite(tr.values[col])), col


def test_design_gains_runs_once_per_validation(tmp_path, monkeypatch):
    design = harness.design_gains
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return design(*args, **kwargs)

    cfg = quad_config(horizon=5)
    monkeypatch.setattr(harness, "design_gains", counting)
    cfg_path = tmp_path / "quad.json"
    cfg_path.write_text(json.dumps(cfg.data))
    assert cli_main(["run", "--config", str(cfg_path), "--seed", "3"]) == 0
    assert len(calls) == 1  # load_config; --seed checks the seed alone
    calls.clear()
    run_seeds(cfg, range(1, 11))
    assert calls == []  # the seeds share the config's gains; nothing is re-validated


def test_the_profile_is_evaluated_once_per_config_build(monkeypatch):
    # the build evaluates the environment at every tick time to check it and
    # keeps it; runs slice it, so no run evaluates the profile again, and a
    # config under another seed or algorithm shares it, so the one build is all
    calls = _count_calls(monkeypatch, "profile_eval")
    cfg = short_mppt(horizon=40)
    hc = cfg.with_updates(algo="hc")
    assert calls["profile_eval"] == 1
    run_scenario(cfg)
    run_seeds(hc, [1, 2])
    compare([cfg, hc, cfg.with_updates(seed=3, algo="ic")])
    assert calls["profile_eval"] == 1
    # a replace that shortens the horizon runs on the kept arrays' first ticks,
    # as a config built for it does; one that lengthens it, or changes dt, is refused
    short = run_scenario(dataclasses.replace(hc, horizon=10))
    assert calls["profile_eval"] == 1
    built = run_scenario(short_mppt(horizon=10, algo="hc"))
    for col in built.columns:
        assert np.array_equal(short.values[col], built.values[col]), col
    for change in ({"horizon": 41}, {"dt": 0.002}):
        with pytest.raises(ConfigError, match="at 41 ticks of 0.001 s"):
            run_scenario(dataclasses.replace(hc, **change))


def test_mppt_dcee_solves_the_optimum_map_once_per_tick(monkeypatch):
    # each computed tick solves the model's map once, for every estimator; a
    # 30-tick run computes every tick; the shipped run's seeds 1, 5 and 7, and
    # seed 9, where one estimator cycles with period 2, rest on about a
    # quarter of their ticks
    solved = []
    build = harness.pv_poly_reward

    def counting_model(*args, **kwargs):
        model = build(*args, **kwargs)
        solve = model.optimum_map_batch

        def counted(thetas):
            solved.append(len(thetas))
            return solve(thetas)

        return dataclasses.replace(model, optimum_map_batch=counted)

    monkeypatch.setattr(harness, "pv_poly_reward", counting_model)
    calls = _count_calls(monkeypatch, "predict")
    run_scenario(short_mppt(horizon=30))
    assert solved == [50] * 31 and calls["predict"] == 31
    for seed, computed in ((1, 1419), (5, 1422), (7, 1424), (9, 1420)):
        solved.clear()
        calls["predict"] = 0
        run_scenario(config_from_dict(builtin_config("mppt")).with_updates(seed=seed))
        assert calls["predict"] == computed and solved == [50] * computed


def _count_calls(monkeypatch, *names) -> dict:
    """Calls of the named harness functions from here on, by name."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        call = getattr(harness, name)

        def wrapper(*args):
            calls[name] += 1
            return call(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, counted(name))
    return calls


@pytest.mark.parametrize("kind, algo, ticks, computed", [
    ("mppt", "dcee", 1419, 1419),
    ("mppt", "ic", 632, 0),
    ("mppt", "hc", 629, 0),
    ("quadratic-linear", None, 0, 5001),
])
def test_a_run_fast_forwards_over_its_fixed_points(monkeypatch, kind, algo, ticks, computed):
    # the loop ticks once per panel observation (one pv_current call) and a
    # dual tick adapts and predicts once; the shipped mppt run (seed 1) rests
    # under dcee and ic holds on most of its ticks, hc's dither is copied a
    # whole cycle at a time wherever the environment holds, and the noisy
    # quadratic run never repeats its inputs
    calls = _count_calls(monkeypatch, "pv_current", "adapt", "predict")
    d = builtin_config(kind)
    if algo:
        d["controller"]["algo"] = algo
    cfg = config_from_dict(d)
    assert run_scenario(cfg).n_rows == cfg.horizon + 1
    assert calls == {"pv_current": ticks, "adapt": computed, "predict": computed}


_PROFILES = {
    "held": {"irradiance": [[0.0, 800.0]], "temperature": [[0.0, 25.0]]},
    "step": {"irradiance": [[0.0, 600.0], [1.0, 600.0], [1.0, 900.0]],
             "temperature": [[0.0, 25.0], [1.5, 30.0]]},
    "ramp": {"irradiance": [[0.0, 400.0], [2.0, 1000.0]], "temperature": [[0.0, 25.0]]},
    # a long hold that a temperature step crosses: the dither forms again after it
    "held-temperature-step": {"irradiance": [[0.0, 800.0]],
                              "temperature": [[0.0, 25.0], [1.0, 35.0]]},
}


@pytest.mark.parametrize("profile, v_limits, period, ticks", [
    ("held", None, 4, 17),  # v, v + s, v, v - s around the MPP
    ("held", [4.0, 20.0], 3, 9),  # below the MPP, one step of each three clipped at 20 V
    ("held-temperature-step", None, 4, 25),  # the dither forms again after the step
], ids=["interior", "clipped", "temperature-step"])
def test_hc_dither_under_a_held_environment_is_copied(monkeypatch, profile, v_limits, period,
                                                      ticks):
    # the loop finds a dither up to four ticks deep; a rule that looked only at
    # the last tick would compute all 2001
    d = builtin_config("mppt")
    d["controller"]["algo"] = "hc"
    d["profile"] = _PROFILES[profile]
    if v_limits:
        d["controller"]["v_limits"] = v_limits
    calls = _count_calls(monkeypatch, "pv_current")
    v = run_scenario(config_from_dict(d)).column("v")[-101:-1]
    assert calls == {"pv_current": ticks}
    assert np.array_equal(v[period:], v[:-period])
    assert all(not np.array_equal(v[q:], v[:-q]) for q in range(1, period))


@pytest.mark.parametrize("profile", ["shipped", "clipped", *_PROFILES])
@pytest.mark.parametrize("algo", ["hc", "ic"])
def test_tracker_runs_give_the_bits_of_a_plain_tick_loop(algo, profile):
    # the fast-forward over fixed points and periodic orbits changes no bit of any column.
    # "clipped" caps the voltage below the MPP: ic's step there leaves v as it
    # was but not its tracker, and the tick after it holds with u = 0
    d = builtin_config("mppt")
    d["controller"]["algo"] = algo
    if profile == "clipped":
        d["controller"]["v_limits"] = [4.0, 20.0]
    elif profile != "shipped":
        d["profile"] = _PROFILES[profile]
    cfg = config_from_dict(d)
    tr, ref = run_scenario(cfg), reference_mppt_run(cfg)
    assert set(ref) <= set(tr.columns)
    for name, col in ref.items():
        assert tr.column(name).astype(float).tobytes() == col.tobytes(), name


def test_an_orbit_does_not_run_across_an_input_change(monkeypatch):
    # hc dithers over 33.6, 35.2, 36.8 and 35.2 V here.  The patched current
    # drops by 1 % above 36 V after the irradiance step, and only there, so
    # the starts after the step repeat some from before it while the row at
    # 36.8 V does not: an orbit stored before the step must not be copied
    # after it.  A step at each of the dither's four phases
    real = pv.pv_current

    def current(params, v, g, temp):
        i = real(params, v, 600.0, 25.0)
        return np.where((g != 600.0) & (v > 36.0), 0.99 * i, i)

    monkeypatch.setattr(harness, "pv_current", current)
    monkeypatch.setattr(reference, "pv_current", current)
    d = builtin_config("mppt")
    d["controller"]["algo"] = "hc"
    d["run"] = {"duration": 0.2, "dt": 0.001, "seed": 1}
    for step in (0.0965, 0.0975, 0.0985, 0.0995):
        d["profile"] = {"irradiance": [[0.0, 600.0], [step, 600.0], [step, 900.0]],
                        "temperature": [[0.0, 25.0]]}
        cfg = config_from_dict(d)
        tr, ref = run_scenario(cfg), reference_mppt_run(cfg)
        for name, col in ref.items():
            assert tr.column(name).astype(float).tobytes() == col.tobytes(), (step, name)


def _dcee_case(horizon=None, variance=None, degree=None) -> "harness.ScenarioConfig":
    """The shipped mppt dcee scenario, shortened, noisy or of another degree;
    a degree takes the shipped prior's first bounds, the last repeated."""
    d = builtin_config("mppt")
    if horizon is not None:
        d["run"] = {"horizon": horizon}
    if variance is not None:
        d["noise"]["variance"] = variance
    if degree is not None:
        d["reward"]["degree"] = degree
        for key in ("prior_low", "prior_high"):
            bounds = d["ensemble"][key]
            d["ensemble"][key] = (bounds + bounds[-1:] * degree)[:degree + 1]
    return config_from_dict(d)


@functools.cache
def _reference_dcee(case, seed):
    return reference_mppt_run(_DCEE_CASES[case].with_updates(seed=seed))


_DCEE_CASES = {"shipped": _dcee_case(), "noisy": _dcee_case(300, 1.0),
               "degree-4": _dcee_case(200, degree=4), "degree-6": _dcee_case(200, degree=6)}


def test_dcee_runs_match_a_plain_tick_loop():
    # the batched loop and its fast-forward over periodic orbits give the bits of
    # a plain per-seed loop: seed 5, the period-2 seed 9, a batch, a noisy run
    # and two other degrees
    for case, seeds in (("shipped", [1]), ("shipped", [5]), ("shipped", [9]),
                        ("shipped", [1, 5, 9, 13]),
                        ("noisy", [1]), ("degree-4", [1]), ("degree-6", [1])):
        for seed, tr in zip(seeds, run_seeds(_DCEE_CASES[case], seeds)):
            ref = _reference_dcee(case, seed)
            assert set(ref) == set(tr.columns)
            for name, col in ref.items():
                assert tr.column(name).astype(float).tobytes() == col.tobytes(), (case, seed, name)


def test_quadratic_runs_match_a_plain_tick_loop():
    # the batched loop gives the bits of a plain per-seed loop on the shipped
    # scenario, two seeds in one batch, and on a noise-free run
    d = builtin_config("quadratic-linear")
    d["noise"]["variance"] = 0.0
    for cfg, seeds in ((quad_config(), [1, 7]), (config_from_dict(d), [3])):
        for seed, tr in zip(seeds, run_seeds(cfg, seeds)):
            ref = reference_quadratic_run(cfg.with_updates(seed=seed))
            assert set(ref) == set(tr.columns)
            for name, col in ref.items():
                assert tr.column(name).astype(float).tobytes() == col.tobytes(), (seed, name)


@pytest.mark.parametrize("kind, horizon, per_tick", [("quadratic-linear", 300, 2), ("mppt", None, 1)])
def test_the_regressor_is_evaluated_once_per_tick_point(monkeypatch, kind, horizon, per_tick):
    # the servo's observation and adapt share the regressor at y, and predict
    # takes it at the reference; the panel's output is its reference, so one
    # regressor serves a computed tick.  The shipped mppt run rests, so the
    # count is per computed tick, not per tick
    d = builtin_config(kind)
    if horizon is not None:
        d["run"]["horizon"] = horizon
    cfg = config_from_dict(d)
    calls = {"unknown_basis": 0, "adapt": 0}
    basis, adapt = cfg.model.unknown_basis, harness.adapt

    def counted_basis(y):
        calls["unknown_basis"] += 1
        return basis(y)

    def counted_adapt(*args):
        calls["adapt"] += 1
        return adapt(*args)

    cfg.model = dataclasses.replace(cfg.model, unknown_basis=counted_basis)
    monkeypatch.setattr(harness, "adapt", counted_adapt)
    run_scenario(cfg)
    assert calls["unknown_basis"] == per_tick * calls["adapt"]
    assert (calls["adapt"] < cfg.horizon + 1) == (kind == "mppt")


def test_emit_csv_round_trip(tmp_path):
    cfg = quad_config(horizon=25)
    tr = run_scenario(cfg)
    path = tmp_path / "trace.csv"
    emit_csv(tr, path)
    back = read_trace_csv(path)
    assert back.columns == tr.columns
    for col in tr.columns:
        np.testing.assert_array_equal(back.values[col], tr.values[col])


@pytest.mark.parametrize("bad_row", ["0,1", "0,1,2,3", pytest.param("", id="empty-file")])
def test_read_trace_csv_rejects_ragged_rows(tmp_path, bad_row):
    # the empty bad row stands for a file without even a header line
    path = tmp_path / "ragged.csv"
    path.write_text(f"k,t,v\n0,0.0,1.5\n{bad_row}\n" if bad_row else "")
    with pytest.raises(ValueError, match=None if bad_row else "ragged.csv"):
        read_trace_csv(path)


@pytest.mark.parametrize("body", [
    pytest.param("0,0.0,1.5\r\n\r\n1,0.001,1.5\r\n", id="blank-line-between-rows"),
    pytest.param("0,0.0,1.5\r\n\r\n", id="blank-last-line"),
    pytest.param("\r\n", id="blank-line-alone"),
    pytest.param("# a comment\r\n0,0.0,1.5\r\n", id="comment-line"),
    pytest.param("0,0.0,1.5\r\n1.5,0.001,1.5\r\n", id="fractional-k"),
    pytest.param("0,0.0,1.5\r\n1e3,0.001,1.5\r\n", id="exponent-k"),
])
def test_read_trace_csv_refuses_what_emit_csv_never_writes(tmp_path, body):
    path = tmp_path / "odd.csv"
    path.write_bytes(f"k,t,v\r\n{body}".encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="odd.csv"):
            read_trace_csv(path)
    assert caught == []


@pytest.mark.parametrize("body", ["0,1.5,2.5\r\n", ""], ids=["rows", "header-only"])
def test_read_trace_csv_refuses_a_column_named_twice(tmp_path, body):
    # keeping one of the two columns would lose the other's values unseen
    path = tmp_path / "twice.csv"
    path.write_bytes(f"k,t,t\r\n{body}".encode())
    with pytest.raises(ValueError, match="'t' is named twice"):
        read_trace_csv(path)


def test_emit_csv_round_trips_extreme_floats_bit_for_bit(tmp_path):
    extremes = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308])
    tr = Trace(columns=("k", "v"), values={"k": np.array([0, -1, 1, 2**53 + 1, 2**63 - 1, -2**63]),
                                           "v": extremes})
    emit_csv(tr, tmp_path / "extremes.csv")
    back = read_trace_csv(tmp_path / "extremes.csv")
    assert back.columns == tr.columns
    for col in tr.columns:
        assert back.values[col].dtype == tr.values[col].dtype
        assert back.values[col].tobytes() == tr.values[col].tobytes(), col


def test_trace_schema_quadratic():
    tr = run_scenario(quad_config(horizon=1))
    assert tr.columns == ("k", "t", "x0", "x1", "y", "xi", "u", "j_obs",
                          "theta_mean_0", "theta_std_0", "r_mean", "p_explore",
                          "grad_exploit_norm", "grad_explore_norm",
                          "err_track", "contraction_ok")


def test_trace_schema_mppt():
    tr = run_scenario(short_mppt(horizon=1))
    assert tr.columns[:11] == ("k", "t", "v", "u", "i", "p", "j_obs",
                               "irradiance", "temperature", "v_mpp_oracle",
                               "p_max_oracle")
    assert "theta_mean_5" in tr.columns and "p_explore" in tr.columns


def test_metrics_perfect_and_half_power():
    t = np.linspace(0.0, 1.0, 11)
    p = np.full(11, 100.0)
    tr = Trace(columns=("t", "p", "v"),
               values={"t": t, "p": p, "v": np.full(11, 35.0)})
    met = compute_metrics(tr, p)
    assert met.efficiency == pytest.approx(1.0)
    assert met.power_loss == pytest.approx(0.0)
    met = compute_metrics(Trace(columns=("t", "p", "v"),
                                values={"t": t, "p": 0.5 * p,
                                        "v": np.full(11, 35.0)}), p)
    assert met.efficiency == pytest.approx(0.5)


def test_metrics_rejects_length_mismatch():
    t = np.linspace(0.0, 1.0, 11)
    tr = Trace(columns=("t", "p", "v"),
               values={"t": t, "p": np.ones(11), "v": np.ones(11)})
    with pytest.raises(ValueError):
        compute_metrics(tr, np.ones(7))


def test_compare_single_and_repeated():
    cfg = short_mppt(horizon=30)
    rows = compare([cfg])
    assert len(rows) == 1 and rows[0][0] == "dcee"
    rows = compare([cfg, copy.deepcopy(cfg)])
    assert rows[0][1] == rows[1][1]
    text = render_comparison(rows)
    assert "dcee" in text and "efficiency" in text


def test_compare_rejects_inconsistent_scenarios():
    a = short_mppt(horizon=30)
    d = builtin_config("mppt")
    del d["run"]["duration"]
    d["run"]["horizon"] = 30
    d["plant"]["r_s"] = 0.9
    b = config_from_dict(d)
    with pytest.raises(ConfigError):
        compare([a, b])


def test_builtin_config_returns_an_independent_dict_on_every_call():
    for kind in ("quadratic-linear", "mppt"):
        first = builtin_config(kind)
        pristine = copy.deepcopy(first)
        first["kind"] = "changed"
        first["plant"].clear()
        first["ensemble"]["prior_low"].append(0.0)
        assert builtin_config(kind) == pristine


@pytest.mark.parametrize("kind", ["unknown", "quadratic_linear", "", None, ["mppt"]])
def test_builtin_config_refuses_an_unknown_kind(kind):
    with pytest.raises(ConfigError, match="scenario kind must be one of"):
        builtin_config(kind)


def test_configs_dir_links_to_the_package_scenarios():
    # one copy of each shipped scenario: configs/ at the top of the tree is a
    # link to the package data that builtin_config reads
    scenarios = Path(harness.__file__).resolve().parent / "scenarios"
    assert (REPO / "configs").is_symlink()
    for kind, name in [("quadratic-linear", "quadratic_linear"), ("mppt", "mppt")]:
        path = REPO / "configs" / f"{name}.json"
        assert path.resolve() == scenarios / f"{name}.json"
        assert json.loads(path.read_text()) == builtin_config(kind)


def test_load_config_reads_shipped_files():
    cfg = load_config(REPO / "configs" / "quadratic_linear.json")
    assert cfg.kind == "quadratic-linear"
    assert cfg.horizon == 5000
    cfg = load_config(REPO / "configs" / "mppt.json")
    assert cfg.kind == "mppt" and cfg.horizon == 2000


def _plot_script_text(tmp_path, plant=None, poles=(0.4, 0.7)) -> str:
    d = builtin_config("quadratic-linear")
    d["plant"].update(plant or {})
    d["controller"]["poles"] = list(poles)
    d["run"]["horizon"] = 5
    path = tmp_path / "t.csv"
    emit_csv(run_scenario(config_from_dict(d)), path)
    script = write_plot_script(path, "quadratic-linear")
    assert Path(script).exists()
    return Path(script).read_text()


def test_write_plot_script(tmp_path):
    text = _plot_script_text(tmp_path)
    assert "set datafile separator" in text
    assert ('"t.csv" using 2:5 with lines title "y", "t.csv" using 2:6 with lines '
            'title "xi", "t.csv" using 2:9 with lines title "theta mean"') in text


def test_write_plot_script_reads_column_numbers_from_the_header(tmp_path):
    # a third state moves y, xi and theta_mean_0 one column to the right
    text = _plot_script_text(
        tmp_path, plant=dict(A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.1, 0.2, 0.3]],
                             B=[[0.0], [0.0], [1.0]], C=[[1.0, 1.0, 0.0]],
                             x0=[1.8, 1.8, 0.0]),
        poles=(0.4, 0.5, 0.7))
    assert ('"t.csv" using 2:6 with lines title "y", "t.csv" using 2:7 with lines '
            'title "xi", "t.csv" using 2:10 with lines title "theta mean"') in text


def test_write_plot_script_rejects_a_header_without_its_columns(tmp_path):
    empty, no_p = tmp_path / "empty.csv", tmp_path / "no_p.csv"
    empty.write_text("")
    no_p.write_text("k,t,v\n0,0.0,16.0\n")
    for path, kind, missing in ((empty, "quadratic-linear", "'t', 'y', 'xi'"),
                                (no_p, "mppt", "'p', 'p_max_oracle'")):
        with pytest.raises(ValueError, match=str(path)) as err:
            write_plot_script(path, kind)
        assert missing in str(err.value)
        assert not path.with_suffix(".gp").exists()


def test_package_exports_exactly_its_modules_all():
    # the library modules each declare their public names; the package
    # exports those and nothing else (the command line is not re-exported)
    modules = [importlib.import_module(f"dcee.{info.name}")
               for info in pkgutil.iter_modules(dcee.__path__) if info.name != "cli"]
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == []
    names = set().union(*(m.__all__ for m in modules))
    exported = {name for name, value in vars(dcee).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == names


def test_cli_gains_and_exit_codes(tmp_path, capsys):
    rc = cli_main(["gains", "--config",
                   str(REPO / "configs" / "quadratic_linear.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.333333333333" in out and "-1.24" in out
    # config error category
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}')
    assert cli_main(["gains", "--config", str(bad)]) == 2
    # unreadable JSON: not UTF-8, or nested past the parser's recursion limit
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    capsys.readouterr()
    for path in (not_utf8, deep):
        for command in ("run", "mppt", "compare", "gains"):
            assert cli_main([command, "--config", str(path)]) == 2
            assert "configuration error" in capsys.readouterr().err
    # i/o error category
    assert cli_main(["gains", "--config", str(tmp_path / "missing.json")]) == 4
    # wrong scenario kind for compare, gains and mppt, with or without --algo
    quadratic = str(REPO / "configs" / "quadratic_linear.json")
    assert cli_main(["compare", "--config", quadratic]) == 2
    assert cli_main(["gains", "--config", str(REPO / "configs" / "mppt.json")]) == 2
    assert "gains requires a quadratic-linear scenario" in capsys.readouterr().err
    for extra in ([], ["--algo", "hc"]):
        assert cli_main(["mppt", "--config", quadratic, *extra]) == 2
        assert "mppt requires an mppt scenario" in capsys.readouterr().err


def test_cli_compare_writes_the_ranked_table(tmp_path, capsys):
    d = builtin_config("mppt")
    del d["run"]["duration"]
    d["run"]["horizon"] = 60
    cfg_path = tmp_path / "m.json"
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "table.csv"
    assert cli_main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert f"comparison written to {out}" in capsys.readouterr().out
    cfg = config_from_dict(d)
    ranked = compare([cfg.with_updates(algo=a) for a in ("dcee", "hc", "ic")])
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["algo", "efficiency", "energy_extracted", "energy_max", "power_loss",
                      "steady_state_band"]
    assert [(label, *map(float, cells)) for label, *cells in rows] == [
        (label, met.efficiency, met.energy_extracted, met.energy_max, met.power_loss,
         met.steady_state_band) for label, met in ranked]


def test_cli_run_writes_trace(tmp_path, capsys):
    d = builtin_config("quadratic-linear")
    d["run"]["horizon"] = 20
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(d))
    out_path = tmp_path / "trace.csv"
    rc = cli_main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 0
    assert out_path.exists() and (tmp_path / "trace.gp").exists()
    tr = read_trace_csv(out_path)
    assert tr.n_rows == 21


def test_cli_mppt_algo_override(tmp_path):
    d = builtin_config("mppt")
    del d["run"]["duration"]
    d["run"]["horizon"] = 25
    cfg_path = tmp_path / "m.json"
    cfg_path.write_text(json.dumps(d))
    out_path = tmp_path / "m.csv"
    rc = cli_main(["mppt", "--config", str(cfg_path), "--algo", "hc",
                   "--out", str(out_path)])
    assert rc == 0
    tr = read_trace_csv(out_path)
    assert "theta_mean_0" not in tr.columns  # baseline trace has no ensemble


def test_cli_ic_with_zero_deadband_runs(tmp_path, capsys):
    # the first +step is clipped at v_limits, so the second tick sees dV = 0,
    # which a zero deadband must count as small rather than divide by
    d = json.loads((REPO / "configs" / "mppt.json").read_text())
    d["controller"].update(algo="ic", ic_deadband=0.0, v_init=42.0)
    d["run"] = {"horizon": 20, "dt": 0.001, "seed": 1}
    cfg_path = tmp_path / "ic0.json"
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "ic0.csv"
    assert cli_main(["mppt", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_trace_csv(out).n_rows == 21


def test_cli_out_ending_in_gp_keeps_the_trace(tmp_path, capsys):
    # the plot script would be named t.gp too; it goes to t.gp.gp instead
    out = tmp_path / "t.gp"
    rc = cli_main(["mppt", "--config", str(REPO / "configs" / "mppt.json"), "--algo", "hc",
                   "--out", str(out)])
    assert rc == 0
    assert f"plot script {out}.gp" in capsys.readouterr().out
    assert read_trace_csv(out).n_rows == 2001
    assert '"t.gp" using' in (tmp_path / "t.gp.gp").read_text()


_SCIPY_LOADS = """
import contextlib, io, json, sys
import numpy as np
import dcee, dcee.cli
from dcee import harness, pv

def loaded():
    return [m in sys.modules for m in ("scipy.optimize", "scipy.special")]

out = {"import": loaded()}
d = harness.builtin_config("quadratic-linear")
d["run"]["horizon"] = 19
out["ticks"] = harness.run_scenario(harness.config_from_dict(d)).n_rows
with contextlib.redirect_stdout(io.StringIO()):
    out["gains_exit"] = dcee.cli.main(["gains", "--config", "configs/quadratic_linear.json"])
out["quadratic"] = loaded()
harness.load_config("configs/mppt.json").with_updates(algo="hc")
out["mppt_config"] = loaded()
v = np.linspace(0.0, 45.0, 10)
first = pv.pv_current(pv.PvParams(), v, 1000.0, 25.0)
out["diode"] = loaded()
import scipy.special
out["ufunc"] = pv.wrightomega is scipy.special.wrightomega
out["same_bits"] = pv.pv_current(pv.PvParams(), v, 1000.0, 25.0).tobytes() == first.tobytes()
print(json.dumps(out))
"""


def test_import_does_not_load_scipy_optimize():
    # the package uses no scipy.optimize, and only the diode needs scipy.special,
    # most of the package's import time: a quadratic run and `dcee gains` load
    # neither, and nor does building an mppt config, which evaluates no diode
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _SCIPY_LOADS], capture_output=True, text=True,
                         check=True, cwd=REPO, env={**os.environ, "PYTHONPATH": path},
                         timeout=60)
    got = json.loads(out.stdout)
    assert got["import"] == got["quadratic"] == got["mppt_config"] == [False, False]
    assert got["ticks"] == 20 and got["gains_exit"] == 0
    # the first diode evaluation imports scipy's ufunc, and later ones call it directly
    assert got["diode"] == [False, True]
    assert got["ufunc"] and got["same_bits"]


def test_benchmark_tracer_names_exist(monkeypatch, tmp_path, capsys):
    # perfbench/tracer.py patches these module attributes by name; an import
    # that looks unused here (explore_grad in harness) is one of them.  Traced
    # runs, a 20-tick dcee run built under the tracer, a quadratic one (whose
    # loop calls the tracer's wrapper of the map) and a 20-tick hc run through
    # the CLI, give the bits of untraced ones
    path = REPO / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert [n for n in tracer.HARNESS_NAMES if not hasattr(harness, n)] == []
    assert [n for n in tracer.CLI_NAMES if not hasattr(dcee.cli, n)] == []
    mppt, quad = builtin_config("mppt"), builtin_config("quadratic-linear")
    mppt["run"], quad["run"]["horizon"] = {"horizon": 20}, 20
    hc = dict(mppt, controller={**mppt["controller"], "algo": "hc"})
    cfg_path = tmp_path / "hc.json"
    cfg_path.write_text(json.dumps(hc))
    traces = []
    for traced in (True, False):
        spans = tracer.Tracer()
        if traced:
            spans.install()
        try:
            runs = [harness.run_scenario(harness.config_from_dict(d))
                    for d in (mppt, quad)]
            out = tmp_path / f"hc-{traced}.csv"
            assert dcee.cli.main(["mppt", "--config", str(cfg_path), "--out", str(out)]) == 0
        finally:
            spans.restore()
        names = {name for name, *_ in spans.spans}
        assert (tracer.OPTIMUM_MAP in names) == traced
        traces.append((*runs, read_trace_csv(out)))
    capsys.readouterr()
    for traced, untraced in zip(*traces):
        assert traced.columns == untraced.columns
        for col in traced.columns:
            assert np.array_equal(traced.values[col], untraced.values[col]), col
