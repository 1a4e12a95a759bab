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
    "quadratic-seed1": "0ed67e005d16c3d634abbcc312818b1af678478e9e2187d1f835f7781e0aece3",
    "quadratic-seed7": "eaa9db857ab06b5e7c70ef6e5ed8b8ad6482235104ba41be59927399fb25f359",
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
