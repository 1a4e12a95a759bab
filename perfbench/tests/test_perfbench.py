"""Tests of the benchmark itself: inputs, checks, tracer and the command.

    python3 -m pytest -q perfbench/tests
"""

import json
import logging
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import dcee  # noqa: E402
import dcee.cli as cli  # noqa: E402
import dcee.harness as harness  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

SHIPPED = ROOT / "configs" / "mppt.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced(fn):
    tracer = tr.Tracer()
    tracer.install()
    try:
        out = fn()
    finally:
        tracer.restore()
    return out, tracer.take()


def _calls(spans):
    return {name: agg["calls"] for name, agg in tr.summarise(spans).items()}


def test_same_seed_same_inputs(tmp_path):
    built = {}
    for tag, seed in (("a", 11), ("b", 11), ("c", 12)):
        work = tmp_path / tag
        work.mkdir()
        wl = wls.build("mppt-baselines", seed, ROOT, work)
        built[tag] = (wl.inputs, [(work / f"mppt_{p}{k}.json").read_text()
                                  for k in range(wls.PROFILE_SETS) for p in ("steps", "ramps")])
    assert built["a"] == built["b"]
    assert built["a"] != built["c"]
    for name in ("quad-sweep", "mppt-dcee"):
        assert (wls.build(name, 11, ROOT, tmp_path).inputs
                == wls.build(name, 11, ROOT, tmp_path).inputs
                != wls.build(name, 12, ROOT, tmp_path).inputs)


def test_generated_profiles_are_valid_scenarios():
    for seed in range(20):
        for profile in wls.generate_profiles(seed, seed % wls.PROFILE_SETS).values():
            d = harness.builtin_config("mppt")
            d["profile"] = profile
            cfg = harness.config_from_dict(d)
            env = dcee.EnvProfile(**cfg.section("profile"))
            irr = [dcee.profile_eval(env, k * cfg.dt)[0] for k in range(cfg.horizon + 1)]
            assert 300.0 <= min(irr) and max(irr) <= 1000.0


def test_traced_dcee_counts_repeat_and_digests_match():
    d = harness.builtin_config("mppt")
    d["run"] = {"horizon": 200, "seed": 5}
    cfg = harness.config_from_dict(d)
    plain = wls.trace_digest(harness.run_scenario(cfg))
    runs = [_traced(lambda: harness.run_scenario(cfg)) for _ in range(2)]
    assert [wls.trace_digest(trace) for trace, _ in runs] == [plain, plain]
    (_, (spans, at_end, optima)), (_, (spans2, at_end2, optima2)) = runs
    assert _calls(spans) == _calls(spans2)
    assert (at_end, optima) == (at_end2, optima2)
    ticks = cfg.horizon + 1
    calls = _calls(spans)
    assert calls["reward.optimum_map"] / ticks == 3.0  # predict + 2 FD probes
    assert calls["ensemble.adapt"] == calls["ensemble.predict"] == ticks
    assert optima == 50 * calls["reward.optimum_map"]
    assert tr.subtree_gap(spans) < 1e-9


def test_shipped_profile_oracle_calls_and_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "hc.csv"
    code, (spans, _, _) = _traced(lambda: cli.main(
        ["mppt", "--config", str(SHIPPED), "--algo", "hc", "--out", str(out)]))
    assert code == 0
    calls = _calls(spans)
    assert calls["pv.mpp_oracle"] == 555
    assert calls["pv.profile_eval"] == calls["pv.pv_current"] == 2001
    assert calls["cli.main"] == calls["harness.run_scenario"] == calls["harness.emit_csv"] == 1
    assert tr.subtree_gap(spans) < 1e-9
    ref = harness.run_scenario(harness.load_config(SHIPPED).with_updates(algo="hc"))
    assert wls.trace_digest(harness.read_trace_csv(out)) == wls.trace_digest(ref)


def test_restore_puts_every_name_back():
    sites = [(m, a) for m, names in ((harness, tr.HARNESS_NAMES), (cli, tr.CLI_NAMES))
             for a in names]
    before = [getattr(m, a) for m, a in sites]
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for (m, a), f in zip(sites, before))
    finally:
        tracer.restore()
    assert all(getattr(m, a) is f for (m, a), f in zip(sites, before))


def test_event_counter_counts_package_warnings():
    model = dcee.quadratic_reward()
    ens = dcee.Ensemble(thetas=np.linspace(0.5, 2.0, 5)[:, None], rates=np.full(5, 0.005))
    with tr.EventCounter() as counter:
        dcee.explore_grad([model.y_range[1]], ens, model)
        dcee.ic_step(dcee.IcState(v_prev=1.0, i_prev=1.0), 0.0, 1.0)
    assert counter.snapshot() == (1, 1, 0)
    assert counter not in logging.getLogger("dcee").handlers


def test_output_checks_reject_bad_traces():
    n = 2 * wls.BAND_WINDOW
    good = np.full(n, 1.0)
    quad = harness.Trace(columns=("theta_mean_0", "y"),
                         values={"theta_mean_0": good, "y": good})
    assert wls.check_quad(quad, 1.0)["theta_err"] == 0.0
    quad.values["theta_mean_0"] = np.full(n, 1.2)
    records = [wls.RunRecord("seed", n, values=wls.check_quad(quad, 1.0))]
    wls.check_sweep(records)
    assert "outside (0.85, 1.15)" in records[0].error
    quad.values["theta_mean_0"] = np.full(n, 1.4)
    with pytest.raises(wls.CheckFailed):
        wls.check_quad(quad, 1.0)
    t = np.arange(n) * 1e-3
    mppt = harness.Trace(columns=("t", "p", "p_max_oracle", "v"),
                         values={"t": t, "p": np.full(n, 90.0),
                                 "p_max_oracle": np.full(n, 100.0), "v": good})
    with pytest.raises(wls.CheckFailed):
        wls.check_mppt(mppt, wls.MIN_EFFICIENCY_DCEE)
    mppt.values["p"][3] = np.nan
    with pytest.raises(wls.CheckFailed):
        wls.check_mppt(mppt, 0.0)


def test_speed_probe_samples_during_the_block_and_restores_the_timer():
    def handler(*_):
        pass

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        with hostspeed.SpeedProbe(interval_s=0.005) as probe:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        taken = len(probe.samples)
        assert taken >= 5 and 0.0 < probe.busy_s < 0.3
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler
        speed = probe.speed()
        assert min(probe.samples) <= hostspeed.REF_NOMINAL_S / speed <= max(probe.samples)
        assert len(probe.samples) == max(taken, hostspeed.MIN_SAMPLES)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_trimmed_mean_drops_both_tails():
    assert hostspeed.trimmed_mean([1.0] * 8 + [100.0, 0.0]) == 1.0


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = _bench(ROOT, "--workload", "mppt-baselines", "--seed", "2",
                  "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    names = [m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["cli.main.self_s"] > 0 and m["harness.read_trace_csv.self_s"] > 0
        assert m["reward.optimum_map.calls"] == 0  # hc and ic bypass the estimator


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "quad-sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
