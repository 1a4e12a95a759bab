"""Pinned SHA-256 digests of shipped-scenario traces.

The digest covers every column's name, dtype and raw bytes in trace
order (the same digest the benchmark records), so a change in any bit of
a trace fails here.  The sweep digest chains the digests of the ten
criterion-4 traces (``run_seeds`` over seeds 1-10) in seed order.  A change that alters traces on purpose re-captures
the affected digest and states the largest deviation in CHANGES.md.

The CSV digests cover the bytes ``emit_csv`` writes for the shipped hc and
dcee traces and for a 50-tick quadratic trace, so a change in the file
format fails here even when the traces hold.
"""

import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

from dcee import (NumericalError, builtin_config, config_from_dict, emit_csv, load_config,
                  run_scenario, run_seeds)

REPO = Path(__file__).resolve().parents[1]

GOLDEN = {
    "quadratic-seed1": "3185e9da761d1e18573cb632b6993e1792765cdb64afa40da85efd95322ee1f9",
    "quadratic-seed7": "9bbdbc426b965749901cb888216608d6edf22dc908cd3f2692101e1537de8e48",
    "mppt-hc": "e14b73b079b40efca1b4d2f9e248b6149a66ff44f62ddd3f21b70df6cbb7644e",
    "mppt-ic": "f8e63732457c28109f6369c7247ee829442b72d24f7be2495bb124aa74ef66de",
    "mppt-dcee": "6b458cd8f26dc904b01be863683b650b9ac825c145a577446feeac7dec7bdbbf",
}
SWEEP = "ddb4eec2bd79037b62b49f9c081df5e7dc6f75a7169654bf24abbf359647aff3"
CSV_BYTES = {
    "mppt-hc": "395a2c1246f51ee03d5502b54b544f08c7c756d9e9aec66d36e31753a5398dfb",
    "mppt-dcee": "06ad3e5b5d8f62ca6a8234324abb998f0203551ea1e6b1e348539fec35d4eaec",
    "quadratic-50-ticks": "a96a0074a3823c1fdf2dc562403f7312aca814622581339ea417ebbc6f0e842c",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in trace.columns:
        col = np.ascontiguousarray(trace.values[name])
        h.update(name.encode())
        h.update(col.dtype.str.encode())
        h.update(col.tobytes())
    return h.hexdigest()


def _scenario(case):
    if case == "quadratic-50-ticks":
        d = builtin_config("quadratic-linear")
        d["run"]["horizon"] = 50
        return config_from_dict(d)
    if case.startswith("quadratic"):
        cfg = config_from_dict(builtin_config("quadratic-linear"))
        return cfg.with_updates(seed=int(case.removeprefix("quadratic-seed")))
    shipped = load_config(REPO / "configs" / "mppt.json")
    return shipped.with_updates(algo=case.removeprefix("mppt-"))


@functools.cache
def _trace(case):
    """The case's trace, run once for the trace and the CSV digests."""
    return run_scenario(_scenario(case))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_digest_is_pinned(case):
    assert trace_digest(_trace(case)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CSV_BYTES))
def test_csv_bytes_are_pinned(case, tmp_path):
    path = tmp_path / f"{case}.csv"
    emit_csv(_trace(case), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_BYTES[case]


def test_empty_partial_trace_writes_its_header_line_alone(tmp_path):
    d = builtin_config("quadratic-linear")
    d["ensemble"]["rate"] = 1e308  # fails at step 0, before any row is complete
    d["run"]["horizon"] = 5
    with pytest.raises(NumericalError) as err, np.errstate(all="ignore"):
        run_scenario(config_from_dict(d))
    partial = err.value.trace
    assert partial.n_rows == 0
    emit_csv(partial, tmp_path / "partial.csv")
    assert (tmp_path / "partial.csv").read_bytes() == (",".join(partial.columns) + "\r\n").encode()


def test_seed_sweep_digest_is_pinned():
    cfg = config_from_dict(builtin_config("quadratic-linear"))
    h = hashlib.sha256()
    for trace in run_seeds(cfg, range(1, 11)):
        h.update(trace_digest(trace).encode())
    assert h.hexdigest() == SWEEP
