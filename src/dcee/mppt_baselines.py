"""Reference MPPT trackers: hill climbing and incremental conductance.

Both emit a voltage increment per tick from local measurements only.
Hill climbing keeps stepping in the direction that last increased power;
incremental conductance compares the measured slope dI/dV against -I/V
(zero power slope at the maximum) and can hold still once they agree.

The states are plain records with no checks of their own: the scenario
config checks the step sizes and the deadband once, and the loop builds
each seed's starting state from them.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

__all__ = ["HcState", "IcState", "hc_step", "ic_step"]

logger = logging.getLogger(__name__)


class HcState(NamedTuple):
    """Perturb-and-observe memory: last power and direction (+1 or -1)."""

    p_prev: float = -math.inf
    last_dir: int = 1
    step: float = 0.3


class IcState(NamedTuple):
    """Incremental-conductance memory; NaN history marks the first call."""

    v_prev: float = math.nan
    i_prev: float = math.nan
    step: float = 0.1
    deadband: float = 1e-3


def hc_step(state: HcState, p_now: float) -> tuple[float, HcState]:
    """Next voltage increment: keep direction if power rose, else reverse.

    The first call (no power history) moves +step by convention.
    """
    direction = state.last_dir if p_now > state.p_prev else -state.last_dir
    dv = direction * state.step
    return dv, HcState(p_now, direction, state.step)


def ic_step(state: IcState, v_now: float, i_now: float) -> tuple[float, IcState]:
    """Next voltage increment from incremental conductance.

    With dV, dI the changes since the previous call, "small" meaning
    zero or under the deadband:
      * no history yet          -> +step (startup kick)
      * |dV| small, |dI| small  -> hold (nothing changed)
      * |dV| small, |dI| large  -> follow the current change
      * otherwise compare dI/dV with -I/V inside the deadband: equal
        means the power slope is zero (hold), larger means the operating
        point sits left of the maximum (+step), smaller means right (-step).
    """
    eps = state.deadband
    new_state = IcState(v_now, i_now, state.step, eps)
    if math.isnan(state.v_prev) or math.isnan(state.i_prev):
        return state.step, new_state
    if v_now == 0.0:
        logger.warning("incremental conductance holding at v=0 to avoid "
                       "dividing by the operating voltage")
        return 0.0, new_state
    dv = v_now - state.v_prev
    di = i_now - state.i_prev
    if dv == 0.0 or abs(dv) < eps:
        if di == 0.0 or abs(di) < eps:
            return 0.0, new_state
        return math.copysign(state.step, di), new_state
    slope = di / dv
    target = -i_now / v_now
    if abs(slope - target) <= eps:
        return 0.0, new_state
    if slope > target:
        return state.step, new_state
    return -state.step, new_state
