"""Pinned SHA-256 digests of shipped-scenario traces.

The digest covers every column's name, dtype and raw bytes in trace
order (the same digest the benchmark records), so a change in any bit of
a trace fails here.  A change that alters traces on purpose re-captures
the affected digest and states the largest deviation in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from dcee import builtin_config, config_from_dict, load_config, run_scenario

REPO = Path(__file__).resolve().parents[1]

GOLDEN = {
    "quadratic-seed1": "63b4578ef79a613ce0568b4828babfdca7c7febc361a19fd4f29644818f1fefa",
    "quadratic-seed7": "630f3de68175857ddea0d60f14995f20773ed4193a458f47bb1d3732bc2852b7",
    "mppt-hc": "15fbe138d37ab022fa37e731c973ffd542667d535329d83c9e35659d29b894a7",
    "mppt-ic": "9f55c72b2e9856100dc8d12de4a8cbaea54fd0f1f1db1f7c2aa00017e3a76d78",
    "mppt-dcee": "a2b5a8a2a50e8cd6f3e958c3a0623aa4fe6d1c5f14f9054070b355fa86f633a4",
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
    if case.startswith("quadratic"):
        cfg = config_from_dict(builtin_config("quadratic-linear"))
        return cfg.with_updates(seed=int(case.removeprefix("quadratic-seed")))
    shipped = load_config(REPO / "configs" / "mppt.json")
    return shipped.with_updates(algo=case.removeprefix("mppt-"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_digest_is_pinned(case):
    assert trace_digest(run_scenario(_scenario(case))) == GOLDEN[case]
