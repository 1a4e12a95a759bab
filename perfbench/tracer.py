"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces the names that the simulation loops look up
in ``dcee.harness`` and ``dcee.cli`` with span recorders, and wraps the
``optimum_map_batch`` of every reward model the two model factories
return.  ``Tracer.restore()`` puts every original back.  Spans are kept in
memory as ``[name, start, end, parent]`` rows (parent is the index of the
enclosing span, -1 at top level) and written out by the caller at the end.

``EventCounter`` is a logging handler on the ``dcee`` logger that counts
the warnings the package logs per event instead of exposing a counter.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name.  These are the names the loops in
# dcee.harness and the commands in dcee.cli call through; the benchmark
# itself calls run_seeds, compute_metrics, read_trace_csv and cli.main
# through the same module attributes, so it sees the wrapped versions.
HARNESS_NAMES = {
    "adapt": "ensemble.adapt",
    "predict": "ensemble.predict",
    "init_ensemble": "ensemble.init",
    "exploit_grad": "dual.exploit_grad",
    "explore_grad": "dual.explore_grad",
    "design_gains": "servo.design_gains",
    "pv_current": "pv.pv_current",
    "mpp_oracle": "pv.mpp_oracle",
    "profile_eval": "pv.profile_eval",
    "pv_poly_reward": "pv.pv_poly_reward",
    "quadratic_reward": "reward.quadratic_reward",
    "hc_step": "mppt_baselines.hc_step",
    "ic_step": "mppt_baselines.ic_step",
    "sample_noise": "reward.sample_noise",
    "config_from_dict": "harness.config",
    "emit_csv": "harness.emit_csv",
    "run_scenario": "harness.run_scenario",
    "compute_metrics": "harness.compute_metrics",
    "read_trace_csv": "harness.read_trace_csv",
}
CLI_NAMES = {
    "main": "cli.main",
    "load_config": "harness.config",
    "run_scenario": "harness.run_scenario",
    "emit_csv": "harness.emit_csv",
}
MODEL_FACTORIES = ("pv_poly_reward", "quadratic_reward")
OPTIMUM_MAP = "reward.optimum_map"


class Tracer:
    """Span recorder that patches the package's call sites while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.optima_total = 0
        self.optima_at_endpoint = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1]]
            spans.append(row)
            stack.append(idx)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def _wrap_factory(self, name, factory):
        traced_factory = self.wrap(name, factory)

        def build(*args, **kwargs):
            model = traced_factory(*args, **kwargs)
            if model.optimum_map_batch is None:
                return model
            traced_map = self.wrap(OPTIMUM_MAP, model.optimum_map_batch)
            lo, hi = model.y_range
            tol = 1e-9 * max(1.0, abs(lo), abs(hi))

            def optimum_map_batch(thetas):
                r = traced_map(thetas)
                # counted outside the span, so the map's self time excludes it
                self.optima_total += r.size
                self.optima_at_endpoint += int(np.count_nonzero(
                    (np.abs(r - lo) <= tol) | (np.abs(r - hi) <= tol)))
                return r

            return dataclasses.replace(model, optimum_map_batch=optimum_map_batch)

        return functools.wraps(factory)(build)

    def install(self) -> None:
        import dcee.cli
        import dcee.harness

        for module, names in ((dcee.harness, HARNESS_NAMES), (dcee.cli, CLI_NAMES)):
            for attr, span in names.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                if module is dcee.harness and attr in MODEL_FACTORIES:
                    setattr(module, attr, self._wrap_factory(span, original))
                else:
                    setattr(module, attr, self.wrap(span, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list[list], int, int]:
        """Hand over the spans and endpoint counts so far and start afresh."""
        out = (self.spans[:], self.optima_at_endpoint, self.optima_total)
        self.spans.clear()
        self.optima_at_endpoint = self.optima_total = 0
        return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap (one thread), so the covered time
    is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarise(spans) -> dict:
    """Per span name: call count, summed self time and summed duration."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for (name, start, end, _), s in zip(spans, own):
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += s
        agg["total_s"] += end - start
    return dict(out)


def subtree_gap(spans, root_name="harness.run_scenario") -> float:
    """Largest |root duration - sum of self times in its subtree|.

    Zero up to rounding when the self times under each ``run_scenario``
    span, plus the loop's own self time, account for the whole span.
    """
    own = self_times(spans)
    root_of = []
    for i, (name, _, _, parent) in enumerate(spans):
        if name == root_name:
            root_of.append(i)
        elif parent >= 0:
            root_of.append(root_of[parent])
        else:
            root_of.append(-1)
    covered = defaultdict(float)
    for i, root in enumerate(root_of):
        if root >= 0:
            covered[root] += own[i]
    gaps = [abs((spans[r][2] - spans[r][1]) - c) for r, c in covered.items()]
    return max(gaps, default=0.0)


class EventCounter(logging.Handler):
    """Counts the per-call warnings of dcee.dual and dcee.mppt_baselines."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.fd_one_sided = 0
        self.ic_hold_v0 = 0
        self.other = 0

    def emit(self, record):
        msg = record.getMessage()
        if record.name == "dcee.dual" and "one-sided" in msg:
            self.fd_one_sided += 1
        elif record.name == "dcee.mppt_baselines" and "v=0" in msg:
            self.ic_hold_v0 += 1
        else:
            self.other += 1

    def snapshot(self) -> tuple[int, int, int]:
        return self.fd_one_sided, self.ic_hold_v0, self.other

    def __enter__(self):
        logging.getLogger("dcee").addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger("dcee").removeHandler(self)
        return False
