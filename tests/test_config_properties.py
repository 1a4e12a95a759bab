"""Property tests of scenario validation against mutated built-in configs.

A config is either rejected with ``ConfigError`` or accepted; an accepted
one runs a few ticks to completion, every column of its trace finite, or
stops with ``NumericalError``.  No numpy warning escapes either way (the
suite turns warnings into errors).  Every single mutation is checked in
turn; hypothesis (derandomised, so every run draws the same examples)
combines two.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcee import ConfigError, NumericalError, builtin_config, config_from_dict, run_scenario

# (kind, algo) pairs; the algo override picks the mppt tracker
VARIANTS = [("quadratic-linear", None), ("mppt", "dcee"), ("mppt", "hc"), ("mppt", "ic")]

# (None, name) is a top-level entry (a section or "kind"), else (section, key)
SITES = {kind: [(None, name) for name in builtin_config(kind)]
         + [(section, key) for section, body in builtin_config(kind).items()
            if isinstance(body, dict) for key in body]
         for kind, _ in VARIANTS}


def _nan_entry(value):
    """A list whose first entry (every number of it) is NaN; a scalar is NaN."""
    if not isinstance(value, list) or not value:
        return math.nan
    first = value[0]
    return [[math.nan] * len(first) if isinstance(first, list) else math.nan, *value[1:]]


def _scaled(factor):
    """Every number of a value, in its lists and objects too, times factor."""
    def scale(value):
        if isinstance(value, list):
            return [scale(v) for v in value]
        if isinstance(value, dict):
            return {key: scale(v) for key, v in value.items()}
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return value
        return value * factor
    return scale


MUTATIONS = {
    "drop": None,
    "wrong-type": lambda v: "x",
    "zero": lambda v: 0,
    "negative": lambda v: -1.0,
    "nan": lambda v: math.nan,
    "nan-entry": _nan_entry,
    "too-long": lambda v: v + v[-1:] if isinstance(v, list) else [v, v],
    "too-short": lambda v: v[:-1] if isinstance(v, list) else [],
    "huge": _scaled(1e30),
    "huger": _scaled(1e300),
    "huge-negative": _scaled(-1e30),
}


def _config(kind, algo):
    d = builtin_config(kind)
    if algo is not None:
        d["controller"]["algo"] = algo
    return d


def _mutate(d, site, how) -> None:
    section, key = site
    target = d if section is None else d.get(section)
    if not isinstance(target, dict) or key not in target:
        return  # an earlier mutation replaced or dropped it
    if how == "drop":
        del target[key]
    else:
        target[key] = MUTATIONS[how](target[key])


def _rejected_or_runs(d) -> None:
    try:
        cfg = config_from_dict(d)
    except ConfigError:
        return
    cfg = dataclasses.replace(cfg, horizon=min(cfg.horizon, 5))
    try:
        trace = run_scenario(cfg)
    except NumericalError:
        return
    assert trace.n_rows == cfg.horizon + 1
    for name in trace.columns:
        assert np.all(np.isfinite(trace.column(name))), name


def test_every_single_mutation_is_rejected_or_runs():
    failures = []
    for kind, algo in VARIANTS:
        for site in SITES[kind]:
            for how in MUTATIONS:
                d = _config(kind, algo)
                _mutate(d, site, how)
                try:
                    _rejected_or_runs(d)
                except Exception as exc:  # report every failing case, not the first
                    failures.append(f"{kind}/{algo} {site} {how}: {exc!r}")
    assert not failures, "\n".join(failures)


@st.composite
def doubly_mutated_configs(draw):
    kind, algo = draw(st.sampled_from(VARIANTS))
    d = _config(kind, algo)
    for _ in range(2):
        site = draw(st.sampled_from(SITES[kind]))
        _mutate(d, site, draw(st.sampled_from(list(MUTATIONS))))
    return d


@settings(derandomize=True, deadline=None, max_examples=400)
@given(d=doubly_mutated_configs())
def test_doubly_mutated_config_is_rejected_or_runs(d):
    _rejected_or_runs(d)
