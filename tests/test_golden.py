"""Pinned SHA-256 digests of shipped-scenario traces.

The digest covers every column's name, dtype and raw bytes in trace
order (the same digest the benchmark records), so a change in any bit of
a trace fails here.  The sweep digest chains the digests of the ten
criterion-4 traces (``run_seeds`` over seeds 1-10) in seed order.  A change that alters traces on purpose re-captures
the affected digest and states the largest deviation in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from dcee import builtin_config, config_from_dict, load_config, run_scenario, run_seeds

REPO = Path(__file__).resolve().parents[1]

GOLDEN = {
    "quadratic-seed1": "63b4578ef79a613ce0568b4828babfdca7c7febc361a19fd4f29644818f1fefa",
    "quadratic-seed7": "630f3de68175857ddea0d60f14995f20773ed4193a458f47bb1d3732bc2852b7",
    "mppt-hc": "0d8f8dca9c147afba2aa6bba4886715481adcdb5c2a6aeec99ce508208995471",
    "mppt-ic": "a70d26be21b02f749e34e80445281e75dc16617d932776caf18594ec47a671b3",
    "mppt-dcee": "f918b0ba749d7f1979c8da5819ff429195362b0369190f6c049da40a27f8990a",
}
SWEEP = "147f818cd8f08dd65ed0984202e5fdd3ce16c48b99b14926b17ace5e7d5f4acb"


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in trace.columns:
        col = np.ascontiguousarray(trace.values[name])
        h.update(name.encode())
        h.update(col.dtype.str.encode())
        h.update(col.tobytes())
    return h.hexdigest()


def _scenario(case):
    if case.startswith("quadratic"):
        cfg = config_from_dict(builtin_config("quadratic-linear"))
        return cfg.with_updates(seed=int(case.removeprefix("quadratic-seed")))
    shipped = load_config(REPO / "configs" / "mppt.json")
    return shipped.with_updates(algo=case.removeprefix("mppt-"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_digest_is_pinned(case):
    assert trace_digest(run_scenario(_scenario(case))) == GOLDEN[case]


def test_seed_sweep_digest_is_pinned():
    cfg = config_from_dict(builtin_config("quadratic-linear"))
    h = hashlib.sha256()
    for trace in run_seeds(cfg, range(1, 11)):
        h.update(trace_digest(trace).encode())
    assert h.hexdigest() == SWEEP
