import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcee import HcState, IcState, hc_step, ic_step
from dcee.pv import PvParams, mpp_oracle, pv_current


def test_hc_keeps_direction_when_power_rises():
    st = HcState(p_prev=50.0, last_dir=1, step=0.5)
    dv, st2 = hc_step(st, 55.0)
    assert dv == 0.5
    assert st2.last_dir == 1 and st2.p_prev == 55.0


def test_hc_reverses_when_power_drops():
    st = HcState(p_prev=50.0, last_dir=1, step=0.5)
    dv, _ = hc_step(st, 45.0)
    assert dv == -0.5


def test_hc_first_move_is_positive():
    st = HcState(step=0.5)
    dv, _ = hc_step(st, 12.0)
    assert dv == 0.5


def test_ic_holds_at_power_peak():
    # choose the current so the secant conductance equals -I/V exactly
    st = IcState(v_prev=10.0, i_prev=5.0, step=0.2, deadband=1e-6)
    v_now = 10.5
    i_now = 5.0 * v_now / (v_now + (v_now - 10.0))
    assert abs((i_now - 5.0) / 0.5 + i_now / v_now) < 1e-12
    dv, _ = ic_step(st, v_now, i_now)
    assert dv == 0.0


def test_ic_holds_when_nothing_changed():
    st = IcState(v_prev=10.0, i_prev=5.0, step=0.2, deadband=1e-3)
    dv, _ = ic_step(st, 10.0, 5.0)
    assert dv == 0.0


def test_ic_follows_current_when_voltage_fixed():
    st = IcState(v_prev=10.0, i_prev=5.0, step=0.2, deadband=1e-3)
    dv, _ = ic_step(st, 10.0, 5.5)
    assert dv == 0.2
    dv, _ = ic_step(st, 10.0, 4.5)
    assert dv == -0.2


def test_ic_steps_uphill_left_of_peak():
    # dI/dV > -I/V wherever power still rises with voltage
    st = IcState(v_prev=10.0, i_prev=5.0, step=0.2, deadband=1e-6)
    dv, _ = ic_step(st, 10.5, 4.99)  # gentle current drop: dP/dV > 0
    assert dv == 0.2


def test_ic_steps_downhill_right_of_peak():
    st = IcState(v_prev=10.0, i_prev=5.0, step=0.2, deadband=1e-6)
    dv, _ = ic_step(st, 10.5, 4.0)  # steep current drop: dP/dV < 0
    assert dv == -0.2


def test_ic_first_call_kicks_positive():
    st = IcState(step=0.2)
    dv, _ = ic_step(st, 10.0, 5.0)
    assert dv == 0.2


def test_ic_holds_at_zero_voltage():
    st = IcState(v_prev=1.0, i_prev=5.0, step=0.2, deadband=1e-3)
    dv, _ = ic_step(st, 0.0, 5.0)
    assert dv == 0.0


def test_hc_limit_cycle_contained_on_frozen_curve():
    params = PvParams()
    g, temp = 950.0, 35.0
    v_star, _ = mpp_oracle(params, g, temp)
    step = 1.6
    v = 16.0
    hc = HcState(step=step)
    worst = 0.0
    for k in range(1200):
        p = v * pv_current(params, v, g, temp)
        dv, hc = hc_step(hc, p)
        v += dv
        if k > 300:
            worst = max(worst, abs(v - v_star))
    assert worst <= 2.0 * step


def test_ic_reaches_hold_and_stays_on_frozen_curve():
    params = PvParams()
    g, temp = 950.0, 35.0
    v_star, _ = mpp_oracle(params, g, temp)
    v = 16.0
    ic = IcState(step=0.1, deadband=0.02)
    held_at = None
    for k in range(1500):
        i_now = pv_current(params, v, g, temp)
        dv, ic = ic_step(ic, v, i_now)
        if held_at is None and dv == 0.0:
            held_at = k
        if held_at is not None:
            assert dv == 0.0  # never leaves the hold on a static curve
        v += dv
    assert held_at is not None
    assert abs(v - v_star) < 5.0 * 0.1


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(v_prev=_finite, i_prev=_finite, v_now=st.floats(min_value=0.0, allow_infinity=False),
       i_now=_finite, step=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       deadband=st.floats(min_value=0.0, allow_infinity=False))
def test_ic_step_moves_by_one_step_or_holds(v_prev, i_prev, v_now, i_now, step, deadband):
    st_prev = IcState(v_prev=v_prev, i_prev=i_prev, step=step, deadband=deadband)
    dv, st_next = ic_step(st_prev, v_now, i_now)
    assert dv in (0.0, step, -step)
    assert st_next == IcState(v_prev=v_now, i_prev=i_now, step=step, deadband=deadband)
