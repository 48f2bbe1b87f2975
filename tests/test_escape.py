"""Local-minimum detection and the vertical escape maneuver."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppf.errors import TrappedError
from mppf.escape import (
    EscapeConfig,
    EscapeState,
    choose_direction,
    clear_progress,
    critical_zone_radius,
    detect_local_minimum,
    end_escape,
    escape_step,
    obstacles_in_critical_zone,
    record_progress,
    start_escape,
)
from mppf.geometry import Attitude, GliderState, Vec3
from mppf.potentials import ObstaclePoint

CFG = EscapeConfig()
BODY = 0.6
ZERO = Vec3(0.0, 0.0, 0.0)


def point(x, y, z, radius=3.0):
    return ObstaclePoint(Vec3(x, y, z), ZERO, 2.0 * (radius + BODY), radius)


def glider(x=50.0, y=50.0, z=10.0, psi=0.0, theta=0.0, speed=0.0):
    return GliderState(Vec3(x, y, z), Attitude(psi, theta), speed)


def fresh():
    return EscapeState()


# --- progress window -------------------------------------------------------

def test_record_progress_keeps_last_window():
    st = fresh()
    for k in range(CFG.window + 5):
        st = record_progress(st, float(k), CFG)
    assert len(st.progress_history) == CFG.window
    assert st.progress_history[0] == 5.0
    assert clear_progress(st).progress_history == ()


def test_detector_needs_full_window():
    hist = (0.0,) * (CFG.window - 1)
    assert not detect_local_minimum(hist, True, CFG)
    assert detect_local_minimum(hist + (0.0,), True, CFG)


def test_detector_needs_stall_and_nearby_obstacle():
    stalled = (0.01,) * CFG.window
    moving = (0.6,) + (0.0,) * (CFG.window - 1)  # sums to epsilon: no fire
    assert detect_local_minimum(stalled, True, CFG)
    assert not detect_local_minimum(stalled, False, CFG)
    assert not detect_local_minimum(moving, True, CFG)


def test_critical_zone_uses_nearest_point_only():
    # 3 m source: zone radius 3 + 0.6 + 5 = 8.6
    assert critical_zone_radius(3.0, BODY, CFG) == pytest.approx(8.6)
    pos = Vec3(50, 50, 10)
    far = point(70.0, 50.0, 10.0)
    near = point(58.0, 50.0, 10.0)
    assert obstacles_in_critical_zone((near, far), pos, BODY, CFG)
    assert not obstacles_in_critical_zone((point(58.7, 50.0, 10.0),), pos, BODY, CFG)
    assert not obstacles_in_critical_zone((), pos, BODY, CFG)


def test_small_obstacle_point_masks_a_large_obstacle_zone():
    # zones: 0.5 + 0.6 + 5 = 6.1 for the small source, 15.6 for the large
    pos = Vec3(50, 50, 10)
    small = point(57.0, 50.0, 10.0, radius=0.5)  # 7 m: outside its own zone
    large = point(50.0, 58.0, 10.0, radius=10.0)  # 8 m: inside the large zone
    assert obstacles_in_critical_zone((large,), pos, BODY, CFG)
    # only the nearest point is judged, so the small one decides
    assert not obstacles_in_critical_zone((small, large), pos, BODY, CFG)
    assert not obstacles_in_critical_zone((large, small), pos, BODY, CFG)


# --- direction choice ------------------------------------------------------

def test_open_water_prefers_ascending():
    assert choose_direction(Vec3(50, 50, 10), (), CFG, BODY, 30.0) == "ascending"


def test_shallow_start_descends():
    z = CFG.surface_margin - 0.1
    assert choose_direction(Vec3(50, 50, z), (), CFG, BODY, 30.0) == "descending"


def test_blocked_overhead_column_descends():
    # column reach above is source + body + clearance = 5.6 m
    blocker = point(50.0, 50.0, 5.0)
    assert choose_direction(Vec3(50, 50, 10), (blocker,), CFG, BODY, 30.0) \
        == "descending"
    # same depth offset but shifted outside the pad radius: ascend again
    aside = point(50.0 + BODY + CFG.overhead_pad + 0.1, 50.0, 5.0)
    assert choose_direction(Vec3(50, 50, 10), (aside,), CFG, BODY, 30.0) \
        == "ascending"


def test_blocked_both_ways_is_trapped():
    above = point(50.0, 50.0, 5.0)
    below = point(50.0, 50.0, 15.0)
    with pytest.raises(TrappedError):
        choose_direction(Vec3(50, 50, 10), (above, below), CFG, BODY, 30.0)


def test_at_depth_limit_with_blocked_overhead_is_trapped():
    above = point(50.0, 50.0, 25.0)
    with pytest.raises(TrappedError):
        choose_direction(Vec3(50, 50, 30.0), (above,), CFG, BODY, 30.0)


# --- maneuver integration --------------------------------------------------

def test_step_requires_active_state():
    with pytest.raises(ValueError):
        escape_step(fresh(), glider(), CFG, ZERO, 30.0, 1.0)


def test_ascent_is_purely_vertical_from_rest():
    g = glider(z=10.0, psi=0.7, speed=0.0)
    st = start_escape(g, "ascending", CFG, fresh())
    for _ in range(25):
        g, st = escape_step(st, g, CFG, ZERO, 30.0, 1.0)
    assert math.hypot(g.position.x - 50.0, g.position.y - 50.0) < 1e-6
    # 25 s at 0.18 m/s is a 4.5 m rise
    assert g.position.z == pytest.approx(10.0 - 4.5, abs=0.01)
    assert g.attitude.theta == 0.0
    assert g.mode == "escape"


def test_residual_drift_matches_analytic_decay():
    # pre-escape 0.3 m/s level flight along +x; after n steps the drift is
    # v * tau * (1 - exp(-n dt / tau)), exactly, by telescoping
    g = glider(z=10.0, psi=0.0, theta=0.0, speed=0.3)
    st = start_escape(g, "ascending", CFG, fresh())
    assert st.residual_vx == pytest.approx(0.3, rel=1e-12)
    assert st.residual_vy == 0.0
    for _ in range(25):
        g, st = escape_step(st, g, CFG, ZERO, 30.0, 1.0)
    want = 0.3 * CFG.decay_tau * (1.0 - math.exp(-25.0 / CFG.decay_tau))
    assert want == pytest.approx(1.4898930795013718, rel=1e-12)
    assert g.position.x - 50.0 == pytest.approx(want, rel=1e-9)
    assert 1.0 < g.position.x - 50.0 < 2.0  # meter-order, not zero, not huge


def test_pitch_projects_out_vertical_component_of_residual():
    g = glider(speed=0.5, theta=math.radians(60.0))
    st = start_escape(g, "ascending", CFG, fresh())
    assert st.residual_vx == pytest.approx(0.5 * math.cos(math.radians(60.0)),
                                           rel=1e-12)


def test_flow_advects_during_escape():
    g = glider(z=10.0, speed=0.0)
    st = start_escape(g, "ascending", CFG, fresh())
    g, st = escape_step(st, g, CFG, Vec3(0.2, -0.1, 0.0), 30.0, 1.0)
    assert g.position.x == pytest.approx(50.2, rel=1e-12)
    assert g.position.y == pytest.approx(49.9, rel=1e-12)


def test_surface_clamp_and_depth_limit():
    g = glider(z=0.1, speed=0.0)
    st = start_escape(g, "ascending", CFG, fresh())
    g, st = escape_step(st, g, CFG, ZERO, 30.0, 1.0)
    assert g.position.z == 0.0
    g = glider(z=29.95, speed=0.0)
    st = start_escape(g, "descending", CFG, fresh())
    with pytest.raises(TrappedError):
        escape_step(st, g, CFG, ZERO, 30.0, 1.0)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(direction=st.sampled_from(["ascending", "descending"]),
       max_depth=finite(1e-3, 1e3), depth_fraction=finite(0.0, 1.0),
       x=finite(-1e4, 1e4), y=finite(-1e4, 1e4),
       residual=st.tuples(finite(-10.0, 10.0), finite(-10.0, 10.0)),
       flow=st.tuples(finite(-2.0, 2.0), finite(-2.0, 2.0), finite(-2.0, 2.0)),
       dt=finite(1e-3, 100.0))
def test_escape_step_stays_in_the_water_column(direction, max_depth,
                                               depth_fraction, x, y, residual,
                                               flow, dt):
    """From anywhere in the column, a step ends between the surface and
    max_depth, or raises TrappedError because its net vertical motion
    (escape speed plus the flow's vertical component) would carry the
    vehicle below max_depth."""
    z = depth_fraction * max_depth
    state = EscapeState(mode=direction, residual_vx=residual[0],
                        residual_vy=residual[1])
    g = glider(x=x, y=y, z=z, speed=0.3)
    sink = (CFG.vertical_speed if direction == "descending"
            else -CFG.vertical_speed) + flow[2]  # net downward speed
    try:
        moved, _ = escape_step(state, g, CFG, Vec3(*flow), max_depth, dt)
    except TrappedError:
        assert sink > 0.0
        assert z + sink * dt > max_depth * (1.0 - 1e-12) - 1e-9
        return
    assert 0.0 <= moved.position.z <= max_depth


def test_end_escape_resets_state():
    g = glider(speed=0.3)
    st = record_progress(start_escape(g, "ascending", CFG, fresh()), 0.0, CFG)
    st = end_escape(st)
    assert st.mode == "inactive"
    assert st.residual_vx == 0.0 and st.residual_vy == 0.0
    assert st.progress_history == ()
