"""Sawtooth expansion: case dispatch, depth clamps, plan bookkeeping."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf.geometry import Vec3
from mppf.sawtooth import (
    SawtoothParams,
    active_segment,
    advance,
    cross_track_distance,
    plan_sawtooth,
    replan_from,
    segment_angles,
    stride_length,
)

REL = 1e-9


def params(**kw):
    return SawtoothParams(**kw)


# --- case dispatch ---------------------------------------------------------

def test_different_depths_single_glide():
    plan = plan_sawtooth(Vec3(0, 0, 0), Vec3(40, 0, 12), params())
    assert plan.waypoints == (Vec3(40, 0, 12),)
    assert plan.origin == Vec3(0, 0, 0)


def test_coincident_horizontal_single_waypoint():
    plan = plan_sawtooth(Vec3(5, 5, 0), Vec3(5, 5, 0), params())
    assert plan.waypoints == (Vec3(5, 5, 0),)


def test_shallow_water_single_tooth_midpoint():
    # water shallower than the dive limit: one tooth, apex at the seabed
    p = params(max_depth=30.0, water_depth=8.0)
    plan = plan_sawtooth(Vec3(0, 0, 0), Vec3(10, 0, 0), p)
    assert plan.waypoints == (Vec3(5.0, 0.0, 8.0), Vec3(10, 0, 0))


def test_shallow_water_margin_lifts_apex():
    p = params(max_depth=30.0, water_depth=8.0, depth_margin=1.5)
    plan = plan_sawtooth(Vec3(0, 0, 0), Vec3(10, 0, 0), p)
    assert plan.waypoints[0].z == pytest.approx(6.5, rel=REL)


def test_stride_length_tangent_form():
    p = params(max_depth=10.0, max_glide_angle=math.radians(45.0))
    # 2 * 10 / tan(22.5 deg) = 20 (1 + sqrt 2)
    assert stride_length(p) == pytest.approx(20.0 * (1.0 + math.sqrt(2.0)), rel=REL)


def test_stride_length_literal_form_divides_by_angle():
    p = params(max_depth=10.0, max_glide_angle=math.radians(45.0),
               literal_stride=True)
    assert stride_length(p) == pytest.approx(
        20.0 / math.radians(22.5), rel=REL)


def test_deep_water_diagonal_waypoints_frozen():
    # 80 sqrt(2) m diagonal with a 10 m dive limit: two full teeth plus a
    # shortened final tooth whose apex sits at 60 - 40 sqrt(2) m depth
    p = params(max_depth=10.0, water_depth=50.0)
    plan = plan_sawtooth(Vec3(10, 10, 0), Vec3(90, 90, 0), p)
    s2 = math.sqrt(2.0)
    want = (
        Vec3(20.0 + 5.0 * s2, 20.0 + 5.0 * s2, 10.0),
        Vec3(30.0 + 10.0 * s2, 30.0 + 10.0 * s2, 0.0),
        Vec3(40.0 + 15.0 * s2, 40.0 + 15.0 * s2, 10.0),
        Vec3(50.0 + 20.0 * s2, 50.0 + 20.0 * s2, 0.0),
        Vec3(70.0 + 10.0 * s2, 70.0 + 10.0 * s2, 60.0 - 40.0 * s2),
        Vec3(90.0, 90.0, 0.0),
    )
    assert len(plan.waypoints) == 6
    for got, exp in zip(plan.waypoints, want):
        assert got.x == pytest.approx(exp.x, rel=REL)
        assert got.y == pytest.approx(exp.y, rel=REL)
        assert got.z == pytest.approx(exp.z, rel=REL, abs=1e-12)


def test_final_tooth_depth_never_exceeds_dive_limit():
    p = params(max_depth=10.0, water_depth=50.0)
    rng = random.Random(9)
    for _ in range(200):
        a = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), 0.0)
        b = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), 0.0)
        for w in plan_sawtooth(a, b, p).waypoints:
            assert w.z <= 10.0 + 1e-12


def test_exact_stride_multiple_keeps_final_tooth():
    # distance == 2 strides: ceil-1 gives one full tooth plus a full-length
    # final tooth rather than a degenerate zero-length leg
    p = params(max_depth=10.0, water_depth=50.0)
    h = stride_length(p)
    plan = plan_sawtooth(Vec3(0, 0, 0), Vec3(2.0 * h, 0, 0), p)
    assert len(plan.waypoints) == 4
    assert plan.waypoints[-2].z == pytest.approx(10.0, rel=REL)
    assert plan.waypoints[-1] == Vec3(2.0 * h, 0, 0)


# --- plan bookkeeping ------------------------------------------------------

def test_advance_one_increment_per_call():
    p = params(max_depth=10.0, water_depth=50.0, arrival_radius=1.0)
    plan = plan_sawtooth(Vec3(0, 0, 0), Vec3(60, 0, 0), p)
    at_first = plan.waypoints[0]
    stepped = advance(plan, at_first)
    assert stepped.active_index == 1
    # a second call from the same position must not skip ahead
    assert advance(stepped, at_first).active_index == 1


def test_advance_requires_arrival_radius():
    p = params(arrival_radius=0.5)
    plan = plan_sawtooth(Vec3(0, 0, 0), Vec3(60, 0, 0), p)
    wp = plan.active_waypoint
    near = Vec3(wp.x - 0.51, wp.y, wp.z)
    assert advance(plan, near).active_index == 0
    on = Vec3(wp.x - 0.5, wp.y, wp.z)
    assert advance(plan, on).active_index == 1


def test_complete_after_last_waypoint():
    plan = plan_sawtooth(Vec3(0, 0, 0), Vec3(4, 0, 3), params())
    assert not plan.complete
    done = advance(plan, Vec3(4, 0, 3))
    assert done.complete
    assert advance(done, Vec3(4, 0, 3)) is done


def test_active_segment_tracks_origin_then_legs():
    plan = plan_sawtooth(Vec3(0, 0, 0), Vec3(60, 0, 0),
                         params(max_depth=10.0, water_depth=50.0))
    a, b = active_segment(plan)
    assert a == Vec3(0, 0, 0)
    assert b == plan.waypoints[0]
    stepped = advance(plan, plan.waypoints[0])
    a, b = active_segment(stepped)
    assert (a, b) == (plan.waypoints[0], plan.waypoints[1])


def test_replan_from_mid_depth_is_single_glide():
    # replanning at depth toward a surface goal hits the unequal-depth case
    plan = replan_from(Vec3(30, 30, 7.0), Vec3(90, 90, 0), params())
    assert plan.waypoints == (Vec3(90, 90, 0),)
    assert plan.origin == Vec3(30, 30, 7.0)


# --- leg geometry ----------------------------------------------------------

def test_segment_angles_sign_conventions():
    psi, theta = segment_angles(Vec3(0, 0, 5), Vec3(10, 0, 0))
    assert psi == 0.0
    assert theta == pytest.approx(math.atan2(5.0, 10.0), rel=REL)  # climbing
    _, down = segment_angles(Vec3(0, 0, 0), Vec3(10, 0, 5))
    assert down == pytest.approx(-math.atan2(5.0, 10.0), rel=REL)
    psi, theta = segment_angles(Vec3(0, 0, 8), Vec3(0, 0, 0))
    assert psi == 0.0  # vertical leg: heading defaults to zero
    assert theta == pytest.approx(math.pi / 2.0, rel=REL)


def test_cross_track_distance_clamps_to_segment():
    a, b = Vec3(0, 0, 0), Vec3(10, 0, 0)
    assert cross_track_distance(Vec3(5, 3, 0), a, b) == pytest.approx(3.0, rel=REL)
    assert cross_track_distance(Vec3(-4, 0, 0), a, b) == pytest.approx(4.0, rel=REL)
    assert cross_track_distance(Vec3(13, 4, 0), a, b) == pytest.approx(5.0, rel=REL)
    assert cross_track_distance(Vec3(2, 0, 0), a, a) == pytest.approx(2.0, rel=REL)


def vec3_cross_track(position, a, b):
    """The Vec3 expression cross_track_distance computes in scalars."""
    ab = b - a
    denom = ab.norm2()
    if denom == 0.0:
        return position.dist(a)
    t = (position - a).dot(ab) / denom
    t = min(1.0, max(0.0, t))
    return position.dist(a + ab * t)


# whole metres make clamps and degenerate segments common; signed zeros,
# the infinities and nan reach the clamp's edge cases
coord = (st.integers(-20, 20).map(float) | st.sampled_from([0.0, -0.0])
         | st.floats(-1e4, 1e4) | st.floats())
vec = st.builds(Vec3, coord, coord, coord)


@settings(max_examples=500, deadline=None)
@given(vec, vec, vec, st.booleans())
@example(Vec3(-4.0, 1.0, 0.0), Vec3(0.0, 0.0, 0.0), Vec3(10.0, 0.0, 0.0), False)
@example(Vec3(13.0, 4.0, 0.0), Vec3(0.0, 0.0, 0.0), Vec3(10.0, 0.0, 0.0), False)
@example(Vec3(2.0, -0.0, 0.0), Vec3(-0.0, 0.0, -0.0), Vec3(-0.0, 0.0, -0.0), True)
@example(Vec3(-0.0, 0.0, -0.0), Vec3(0.0, -0.0, 0.0), Vec3(-0.0, 3.0, -0.0), False)
# inf - inf makes t nan: max(0.0, nan) clamps it to 0.0, an if chain would not
@example(Vec3(math.inf, -math.inf, 0.0), Vec3(0.0, 0.0, 0.0),
         Vec3(1.0, 1.0, 0.0), False)
def test_cross_track_distance_is_the_vec3_expression_bit_for_bit(p, a, b,
                                                                 degenerate):
    if degenerate:
        b = a
    assert (cross_track_distance(p, a, b).hex()
            == vec3_cross_track(p, a, b).hex())
