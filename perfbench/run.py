"""dcee benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mppt-dcee --seed 7 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  Load is one process with one thread: BLAS pools
are pinned to one thread and ``DCEE_THREADS`` is removed, so ``run_seeds``
stays serial.  Both settings are recorded.

``--trace 0`` measures end to end with nothing patched: it starts
``setup_probe.py`` in fresh interpreters for ``setup_s``, warms up, then
times whole passes (see ``workloads.py``) for ``--seconds``.  The gated
pass times are normalised to a fixed host speed, measured during each
pass by ``hostspeed.SpeedProbe``; raw times are printed beside them.  ``--trace 1``
times untraced passes for half the time and traced passes for the other
half, and reports per-layer spans and counts (``tracer.py``) per pass.
Every run's output is checked; the trace digests of every pass must
agree with each other.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the metric names and
units are those of ``BENCHMARK.json``.  A human-readable table, the
environment and the trace digests come before it, and the whole record
(generated configs, every pass, every sample) goes to
``perfbench/out/<workload>.trace<0|1>.json``.  Exit code 0 when every
check passed, 1 when a run failed or an output check failed, 2 on a
usage error or when the package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# no pass is started after this many seconds, beyond the minimum count,
# so a run ends well inside the 180 s limit on a slow machine
DEADLINE_S = 140.0
# the subtree of a traced run_scenario span must add up to the span
SPAN_GAP_TOL_S = 1e-6


def pin_environment() -> dict:
    """Pin BLAS to one thread and unset DCEE_THREADS; record what was there."""
    before = {k: os.environ.get(k) for k in BLAS_VARS + ("DCEE_THREADS",)}
    for k in BLAS_VARS:
        os.environ[k] = "1"
    os.environ.pop("DCEE_THREADS", None)
    return before


def environment(before: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "DCEE_THREADS": os.environ.get("DCEE_THREADS"),
        "inherited": before,
    }


def setup_samples(wl) -> list[float]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, *wl.setup_args]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_passes(wl, budget_s, min_passes, deadline, counter, tracer=None,
               probe=None) -> list[dict]:
    """Run at least ``min_passes`` passes, then more while another pass of
    the last one's length still fits in ``budget_s``.  With a ``probe``
    (``hostspeed.SpeedProbe``) each pass also gets its own time without
    the sampling (``work_s``) and the host speed during it (``speed``)."""
    passes = []
    begin = time.perf_counter()
    while len(passes) < min_passes or (
            time.perf_counter() - begin + passes[-1]["wall_s"] <= budget_s
            and time.perf_counter() < deadline):
        one_pass = wl.passes[len(passes) % len(wl.passes)]
        events = counter.snapshot()
        t0 = time.perf_counter()
        with probe or contextlib.nullcontext():
            records = one_pass()
        wall = time.perf_counter() - t0
        p = {"wall_s": wall, "records": records, "traced": tracer is not None,
             "events": [b - a for a, b in zip(events, counter.snapshot())]}
        if probe is not None:
            p["work_s"] = wall - probe.busy_s
            p["samples"] = len(probe.samples)
            p["speed"] = probe.speed()
        if tracer is not None:
            p["spans"], p["at_endpoint"], p["optima"] = tracer.take()
        passes.append(p)
    return passes


def check_digests(passes, reference: dict) -> None:
    """Every run of one label must leave the same trace digest."""
    for p in passes:
        for rec in p["records"]:
            if rec.error:
                continue
            first = reference.setdefault(rec.label, rec.digest)
            if rec.digest != first:
                rec.error = "check failed: trace digest differs from an earlier pass"


def quality(name, passes) -> tuple[float, dict]:
    """``tracking_loss`` and the workload's own quality figures."""
    by_label = {}
    for p in passes:
        for rec in p["records"]:
            if not rec.error:
                by_label.setdefault(rec.label, rec.values)
    vals = list(by_label.values())
    if not vals:
        return 0.0, {}
    if name == "quad-sweep":
        return (statistics.fmean(v["run_err"] for v in vals),
                {"theta_err": statistics.fmean(v["theta_err"] for v in vals)})
    loss = statistics.fmean(1.0 - v["efficiency"] for v in vals)
    if name == "mppt-dcee":
        return loss, {"efficiency_dcee": statistics.fmean(v["efficiency"] for v in vals)}
    extras = {}
    for algo in ("hc", "ic"):
        effs = [v["efficiency"] for label, v in by_label.items() if label.endswith(algo)]
        extras[f"efficiency_{algo}"] = statistics.fmean(effs) if effs else 0.0
    return loss, extras


# per-layer metrics named after a span: "<span>.calls|self_s|total_s";
# harness.loop is the run_scenario span's own (self) time
SPAN_OF = {"harness.loop": "harness.run_scenario"}
EVENTS = ("dual.fd_one_sided", "mppt_baselines.ic_hold_v0", "harness.numerical_errors")


def layer_metrics(names, wl, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics per pass, and diagnostics for the record.

    Counts are means over the first cycle of traced passes (every input
    once) and must repeat in later cycles; times are medians over passes.
    """
    import tracer as tr

    n = len(wl.passes)
    summaries = [tr.summarise(p["spans"]) for p in traced]
    counts = [{**{k: v["calls"] for k, v in s.items()},
               **dict(zip(EVENTS[:2], p["events"])),
               "harness.numerical_errors": sum(r.numerical for r in p["records"]),
               "at_endpoint": p["at_endpoint"], "optima": p["optima"]}
              for p, s in zip(traced, summaries)]
    repeat_ok = all(counts[i] == counts[i - n] for i in range(n, len(counts)))

    def mean_count(key):
        return sum(c.get(key, 0) for c in counts[:n]) / n

    def median_time(span, field):
        return statistics.median(s.get(span, {}).get(field, 0.0) for s in summaries)

    optima, pv_ticks = mean_count("optima"), mean_count("pv.profile_eval")
    derived = {
        "reward.optimum_map.per_tick": mean_count("reward.optimum_map") / wl.ticks_per_pass,
        "reward.optimum_map.endpoint_frac":
            mean_count("at_endpoint") / optima if optima else 0.0,
        "pv.oracle_hit_ratio":
            1.0 - mean_count("pv.mpp_oracle") / pv_ticks if pv_ticks else 0.0,
        "trace.overhead_s": (statistics.median(p["wall_s"] for p in traced)
                             - statistics.median(p["wall_s"] for p in untraced)),
    }
    m = {}
    for name in names:
        layer, field = name.rsplit(".", 1)
        span = SPAN_OF.get(layer, layer)
        if name in derived:
            m[name] = derived[name]
        elif name in EVENTS:
            m[name] = mean_count(name)
        elif field == "calls":
            m[name] = mean_count(span)
        elif field in ("self_s", "total_s"):
            m[name] = median_time(span, field)
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
    diag = {
        "counts_repeat": repeat_ok,
        "span_gap_s": max(tr.subtree_gap(p["spans"]) for p in traced),
        "spans_per_pass": [len(p["spans"]) for p in traced],
        "per_pass": [{k: {"calls": v["calls"], "self_s": v["self_s"]}
                      for k, v in sorted(s.items())} for s in summaries],
    }
    return m, diag


def measure(name: str, seed: int, seconds: float, trace: bool,
            layer_names: list[str]) -> dict:
    """Run one workload; returns the full record (see the module docstring)."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    before = pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import tracer as tr
    import workloads

    work = OUT / "work" / name
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(name, seed, ROOT, work)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(before), "inputs": wl.inputs}
    if not trace:
        record["setup_samples_s"] = setup_samples(wl)

    with tr.EventCounter() as counter:
        wl.warm_up()
        min_passes = len(wl.passes)
        if not trace:
            timed = run_passes(wl, seconds, min_passes, deadline, counter,
                               probe=hostspeed.SpeedProbe())
            untraced, traced = timed, []
        else:
            untraced = run_passes(wl, seconds / 2, min_passes, deadline, counter)
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, seconds / 2, min_passes, deadline, counter, tracer)
            finally:
                tracer.restore()
            timed = untraced + traced

    reference: dict = {}
    check_digests(untraced, reference)
    check_digests(traced, reference)
    runs = [r for p in timed for r in p["records"]]
    failures = [f"{r.label}: {r.error}" for r in runs if r.error]
    loss, extras = quality(name, untraced)
    record.update({
        "passes": [{**{k: v for k, v in p.items() if k not in ("records", "spans")},
                    "runs": [vars(r) for r in p["records"]]} for p in timed],
        "digests": reference,
        "attempted": len(runs),
        "failed": len(failures),
        "failures": failures,
        "fail_frac": len(failures) / len(runs),
        "extras": extras,
        "elapsed_s": time.perf_counter() - start,
    })
    if not trace:
        walls = [p["work_s"] for p in untraced]
        norm = [p["work_s"] * p["speed"] for p in untraced]
        record["metrics"] = {
            "setup_s": statistics.median(record["setup_samples_s"]),
            "wall_norm_s": statistics.median(norm),
            "tick_norm_us": statistics.median(norm) / wl.ticks_per_pass * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tracking_loss": loss,
        }
        # raw times, printed and recorded but not gated: they move with the host
        record["raw"] = {
            "wall_s": statistics.median(walls),
            "tick_us": statistics.median(walls) / wl.ticks_per_pass * 1e6,
            "speed": statistics.median(p["speed"] for p in untraced),
        }
        record["samples"] = {"setup_s": len(record["setup_samples_s"]),
                             "wall_norm_s": len(norm), "tick_norm_us": len(norm)}
    else:
        record["metrics"], record["trace_checks"] = layer_metrics(layer_names, wl, traced,
                                                                  untraced)
        checks = record["trace_checks"]
        if not checks["counts_repeat"]:
            failures.append("trace: per-pass counts differ between cycles")
        if checks["span_gap_s"] > SPAN_GAP_TOL_S:
            failures.append(f"trace: self times miss run_scenario by {checks['span_gap_s']:.3g} s")
        record["spans"] = [(i, *s) for i, p in enumerate(traced) for s in p["spans"]]
    record["correct"] = not failures
    return record


def write_record(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}.trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}.spans.csv", "w", encoding="utf-8") as fh:
            fh.write("pass,name,start,end,parent\n")
            fh.writelines(f"{i},{n},{s!r},{e!r},{p}\n" for i, n, s, e, p in spans)
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return path


def report(record: dict, spec_metrics: list[dict], path: Path) -> dict:
    """Print the human-readable summary; return the JSON result line."""
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {len(record['passes'])}  "
          f"elapsed {record['elapsed_s']:.1f} s")
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} "
          + " ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
          + f" DCEE_THREADS={env['DCEE_THREADS'] or 'unset'}")
    samples = record.get("samples", {})
    metrics = {}
    for spec in spec_metrics:
        value = float(record["metrics"][spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        n = samples.get(spec["name"])
        print(f"  {spec['name']:<34} {value:>14.6g} {spec['unit']:<7}"
              + (f" median of {n}" if n else ""))
    units = {"wall_s": "s", "tick_us": "us", "speed": "1"}
    for k, v in record.get("raw", {}).items():
        print(f"  {k + ' (raw)':<34} {v:>14.6g} {units[k]:<7} median of {len(record['passes'])}")
    print(f"  {'fail_frac':<34} {record['fail_frac']:>14.6g} frac    "
          f"{record['failed']} of {record['attempted']} runs")
    for k, v in record["extras"].items():
        print(f"  {k:<34} {v:>14.10g} {'frac' if k.startswith('efficiency') else '1'}")
    for label, digest in record["digests"].items():
        print(f"  sha256 {label:<24} {digest}")
    print(f"record {path.relative_to(ROOT)}")
    for f in record["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dcee" / "__init__.py").is_file():
        print(f"dcee package not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     [m["name"] for m in spec["per_layer"]])
    path = write_record(record)
    result = report(record, spec["per_layer" if args.trace else "end_to_end"], path)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
