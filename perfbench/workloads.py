"""The three workloads: inputs made from the workload seed, passes, checks.

A workload is a cycle of passes.  One pass is the unit that is timed:

``quad-sweep``
    one ``run_seeds`` call over 10 seeds of the built-in quadratic-linear
    scenario (5001 ticks each); passes cycle over 3 sets of 10 seeds, so
    ``tracking_loss`` averages 30 noise sequences.
``mppt-dcee``
    one in-memory ``run_scenario`` of the built-in mppt scenario with the
    dual controller (2001 ticks); passes cycle over 3 ensemble-init seeds.
``mppt-baselines``
    ``dcee.cli.main(["mppt", ...])`` for hc and ic on the shipped profile
    and on two profiles generated from the seed, each trace read back with
    ``read_trace_csv`` (6 runs of 2001 ticks); passes cycle over 6 pairs
    of generated profiles, so ``tracking_loss`` averages 12 of them.

Every run is checked; a failed check is recorded in the run's ``error``.
The package is always called through module attributes
(``harness.run_seeds``, ``cli.main``, ...), so an installed tracer sees
the calls.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import dcee.cli as cli
import dcee.harness as harness
from dcee.errors import DomainError, NumericalError

NAMES = ("quad-sweep", "mppt-dcee", "mppt-baselines")

QUAD_SEEDS = 10
QUAD_SETS = 3
DCEE_SEEDS = 3
PROFILE_SETS = 6
# Criterion 4 holds the steady theta and y averages of its 10 seeds to
# BAND.  On seeds derived from the workload seed one seed in about 1000
# misses it (seed 2969 reaches |theta - 1| = 0.156), so the band is
# checked on the sweep mean and each seed is held to SEED_BAND.
BAND = (0.85, 1.15)
SEED_BAND = (0.7, 1.3)
BAND_WINDOW = 1000         # criterion 4: ticks averaged at the end of a run
MIN_EFFICIENCY_DCEE = 0.96  # criterion 9
MIN_EFFICIENCY_BASELINE = 0.9
SEGMENT_S = 0.4            # length of one generated profile segment

# distinct sub-streams of the workload seed, one per generated input
_STREAM = {"quad-sweep": 1, "mppt-dcee": 2, "profiles": 3}


class CheckFailed(Exception):
    """A run finished but its output is wrong."""


@dataclass
class RunRecord:
    """Outcome of one simulated scenario inside a pass."""

    label: str
    ticks: int
    digest: str = ""
    values: dict = field(default_factory=dict)
    error: str | None = None
    numerical: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    passes: list[Callable[[], list[RunRecord]]]
    ticks_per_pass: int
    inputs: dict
    setup_args: list[str]
    warm_up: Callable[[], None]


def derive_seeds(seed: int, stream: str, n: int) -> list[int]:
    """n scenario seeds drawn from one sub-stream of the workload seed."""
    state = np.random.SeedSequence([seed, _STREAM[stream]]).generate_state(n)
    return [int(s) for s in state]


def trace_digest(trace) -> str:
    """SHA-256 over column names, dtypes and the raw column bytes."""
    h = hashlib.sha256()
    for name in trace.columns:
        col = np.ascontiguousarray(trace.values[name])
        h.update(name.encode())
        h.update(col.dtype.str.encode())
        h.update(col.tobytes())
    return h.hexdigest()


def _check_finite(trace) -> None:
    for name in trace.columns:
        if not np.all(np.isfinite(trace.values[name])):
            raise CheckFailed(f"column {name} holds a non-finite value")


def _fail(rec: RunRecord, exc: Exception) -> RunRecord:
    if isinstance(exc, (NumericalError, DomainError)):
        rec.error, rec.numerical = f"{type(exc).__name__}: {exc}", True
    elif isinstance(exc, CheckFailed):
        rec.error = f"check failed: {exc}"
    else:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _guarded(label: str, ticks: int, body: Callable[[], tuple[str, dict]]) -> RunRecord:
    rec = RunRecord(label=label, ticks=ticks)
    try:
        rec.digest, rec.values = body()
    except Exception as exc:  # a crash inside one run must not end the benchmark
        _fail(rec, exc)
    return rec


# --- quad-sweep -------------------------------------------------------------

def check_quad(trace, theta_true: float) -> dict:
    """Steady theta and y averages inside SEED_BAND, plus two error figures."""
    _check_finite(trace)
    theta = trace.column("theta_mean_0")
    theta_avg = float(theta[-BAND_WINDOW:].mean())
    y_avg = float(trace.column("y")[-BAND_WINDOW:].mean())
    _check_band("seed", theta_avg, y_avg, SEED_BAND)
    return {
        "theta_avg": theta_avg,
        "y_avg": y_avg,
        "theta_err": abs(theta_avg - theta_true),
        "run_err": float(np.mean(np.abs(theta - theta_true))) / abs(theta_true),
    }


def _check_band(what: str, theta_avg: float, y_avg: float, band) -> None:
    lo, hi = band
    if not (lo <= theta_avg <= hi and lo <= y_avg <= hi):
        raise CheckFailed(f"{what} steady average outside {band}: "
                          f"theta {theta_avg:.4f}, y {y_avg:.4f}")


def check_sweep(records: list[RunRecord]) -> None:
    """Criterion-4 band on the mean over the sweep's seeds."""
    vals = [r.values for r in records]
    try:
        _check_band("sweep", float(np.mean([v["theta_avg"] for v in vals])),
                    float(np.mean([v["y_avg"] for v in vals])), BAND)
    except CheckFailed as exc:
        for rec in records:
            _fail(rec, exc)


def _quad(seed: int) -> Workload:
    cfg = harness.config_from_dict(harness.builtin_config("quadratic-linear"))
    seeds = derive_seeds(seed, "quad-sweep", QUAD_SEEDS * QUAD_SETS)
    sets = [seeds[i::QUAD_SETS] for i in range(QUAD_SETS)]
    theta_true = float(cfg.section("reward")["theta_true"][0])
    ticks = cfg.horizon + 1

    def make_pass(batch: list[int]):
        def one_pass() -> list[RunRecord]:
            try:
                traces = harness.run_seeds(cfg, batch)
            except Exception as exc:  # the whole sweep failed: every seed counts
                return [_fail(RunRecord(f"seed {s}", ticks), exc) for s in batch]
            records = [_guarded(f"seed {s}", ticks,
                                lambda tr=tr: (trace_digest(tr), check_quad(tr, theta_true)))
                       for s, tr in zip(batch, traces)]
            if not any(r.error for r in records):
                check_sweep(records)
            return records
        return one_pass

    def warm_up() -> None:
        short = copy.deepcopy(cfg.data)
        short["run"]["horizon"] = 20
        harness.run_seeds(harness.config_from_dict(short), seeds[:1])

    return Workload("quad-sweep", seed, [make_pass(b) for b in sets], ticks * QUAD_SEEDS,
                    {"scenario": "builtin quadratic-linear", "seed_sets": sets},
                    ["--seed", str(seeds[0])], warm_up)


# --- mppt-dcee --------------------------------------------------------------

def _efficiency(trace) -> float:
    return harness.compute_metrics(trace, trace.column("p_max_oracle")).efficiency


def check_mppt(trace, min_efficiency: float) -> dict:
    _check_finite(trace)
    eff = _efficiency(trace)
    if not min_efficiency <= eff <= 1.0 + 1e-9:
        raise CheckFailed(f"efficiency {eff:.6f} outside [{min_efficiency}, 1]")
    return {"efficiency": eff}


def _mppt_dcee(seed: int) -> Workload:
    base = harness.config_from_dict(harness.builtin_config("mppt"))
    seeds = derive_seeds(seed, "mppt-dcee", DCEE_SEEDS)
    ticks = base.horizon + 1

    def make_pass(s: int):
        def one_pass() -> list[RunRecord]:
            def body():
                trace = harness.run_scenario(base.with_updates(seed=s, algo="dcee"))
                return trace_digest(trace), check_mppt(trace, MIN_EFFICIENCY_DCEE)
            return [_guarded(f"dcee seed {s}", ticks, body)]
        return one_pass

    def warm_up() -> None:
        short = copy.deepcopy(base.data)
        short["run"] = {"horizon": 20, "seed": seeds[0]}
        harness.run_scenario(harness.config_from_dict(short))

    return Workload("mppt-dcee", seed, [make_pass(s) for s in seeds], ticks,
                    {"scenario": "builtin mppt, algo dcee", "seeds": seeds},
                    ["--seed", str(seeds[0])], warm_up)


# --- mppt-baselines ---------------------------------------------------------

def _distinct_levels(rng, n: int, lo=300.0, hi=1000.0, gap=100.0) -> list[float]:
    levels = [float(rng.uniform(lo, hi))]
    while len(levels) < n:
        v = float(rng.uniform(lo, hi))
        if abs(v - levels[-1]) >= gap:
            levels.append(v)
    return levels


def generate_profiles(seed: int, index: int) -> dict:
    """Pair ``index`` of 2 s environment profiles with a fixed shape and
    random levels.

    ``steps`` holds 5 irradiance levels for 0.4 s each (a handful of
    distinct operating conditions, so the oracle cache nearly always
    hits); ``ramps`` alternates 0.4 s holds with 0.4 s linear ramps (every
    ramp tick is a new condition, about 800 oracle solves per run).  The
    shipped profile sits in between (555 solves).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM["profiles"], index]))
    d = SEGMENT_S
    steps = _distinct_levels(rng, 5)
    irr_steps = [[0.0, steps[0]]]
    for i in range(1, 5):
        irr_steps += [[i * d, steps[i - 1]], [i * d, steps[i]]]
    irr_steps.append([5 * d, steps[-1]])
    ramps = _distinct_levels(rng, 3)
    irr_ramps = [[0.0, ramps[0]], [d, ramps[0]], [2 * d, ramps[1]],
                 [3 * d, ramps[1]], [4 * d, ramps[2]], [5 * d, ramps[2]]]
    out = {}
    for name, irr in (("steps", irr_steps), ("ramps", irr_ramps)):
        # the shipped profile's +10 degC step at 1 s from a random base: the
        # step size sets how far the MPP voltage moves, so it stays fixed
        t0 = float(rng.uniform(20.0, 30.0))
        out[name] = {"irradiance": irr, "temperature": [[0.0, t0], [1.0, t0 + 10.0]]}
    return out


def _mppt_baselines(seed: int, root: Path, work: Path) -> Workload:
    shipped = root / "configs" / "mppt.json"
    raw = json.loads(shipped.read_text(encoding="utf-8"))
    profiles = {f"{name}{k}": profile for k in range(PROFILE_SETS)
                for name, profile in generate_profiles(seed, k).items()}
    paths = {"shipped": shipped}
    for name, profile in profiles.items():
        d = copy.deepcopy(raw)
        d["profile"] = profile
        paths[name] = work / f"mppt_{name}.json"
        paths[name].write_text(json.dumps(d, indent=1), encoding="utf-8")
    cases = [(p, algo) for p in paths for algo in ("hc", "ic")]
    ticks = harness.load_config(shipped).horizon + 1
    reference: dict[tuple[str, str], str] = {}

    def run_case(profile: str, algo: str) -> RunRecord:
        csv_path = work / f"{profile}_{algo}.csv"

        def body():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(["mppt", "--config", str(paths[profile]),
                                 "--algo", algo, "--out", str(csv_path)])
            if code == 3:
                raise NumericalError(sink.getvalue().strip())
            if code != 0:
                raise CheckFailed(f"dcee mppt exited {code}: {sink.getvalue().strip()}")
            trace = harness.read_trace_csv(csv_path)
            digest = trace_digest(trace)
            if digest != reference[(profile, algo)]:
                raise CheckFailed("CSV read-back differs from the in-memory trace")
            return digest, check_mppt(trace, MIN_EFFICIENCY_BASELINE)

        return _guarded(f"{profile} {algo}", ticks, body)

    def make_pass(k: int):
        mine = [(p, a) for p, a in cases if p in ("shipped", f"steps{k}", f"ramps{k}")]

        def one_pass() -> list[RunRecord]:
            return [run_case(p, a) for p, a in mine]
        return one_pass

    def warm_up() -> None:
        # in-memory reference traces for the exact CSV round-trip check
        for profile, algo in cases:
            cfg = harness.load_config(paths[profile]).with_updates(algo=algo)
            reference[(profile, algo)] = trace_digest(harness.run_scenario(cfg))

    return Workload("mppt-baselines", seed, [make_pass(k) for k in range(PROFILE_SETS)],
                    ticks * 6,  # (shipped, steps, ramps) x (hc, ic)
                    {"profiles": {"shipped": "configs/mppt.json", **profiles},
                     "algos": ["hc", "ic"]},
                    ["--config", str(shipped)], warm_up)


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Make the workload's inputs from ``seed``; writes configs under ``work``."""
    if name == "quad-sweep":
        return _quad(seed)
    if name == "mppt-dcee":
        return _mppt_dcee(seed)
    if name == "mppt-baselines":
        return _mppt_baselines(seed, root, work)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
