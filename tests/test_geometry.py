"""Sample-surface construction and the angle/vector helpers under it."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf.geometry import (
    GRID_N,
    Attitude,
    GliderSpec,
    GliderState,
    Vec3,
    angle_diff,
    build_sample_surface,
    spherical_to_cartesian,
    wrap_angle,
)

SPEC = GliderSpec()


def glider(psi=0.0, theta=0.0, at=Vec3(50.0, 50.0, 10.0)):
    return GliderState(at, Attitude(psi, theta), SPEC.speed_for(theta))


# --- angle helpers ---------------------------------------------------------

def test_wrap_angle_range():
    rng = random.Random(1)
    for _ in range(500):
        a = rng.uniform(-40.0, 40.0)
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # wrapping preserves the direction: sin/cos unchanged
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)


def test_angle_diff_shortest_arc():
    assert angle_diff(math.radians(170.0), math.radians(-170.0)) == pytest.approx(
        math.radians(-20.0), abs=1e-12)
    assert angle_diff(0.1, 0.4) == pytest.approx(-0.3, abs=1e-12)


def test_spherical_roundtrip_random():
    rng = random.Random(2)
    for _ in range(1000):
        psi = rng.uniform(-math.pi, math.pi)
        theta = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        r = rng.uniform(1e-3, 50.0)
        v = spherical_to_cartesian(psi, theta, r)
        rr = v.norm()
        assert math.atan2(v.y, v.x) == pytest.approx(psi, abs=1e-9)
        assert math.asin(-v.z / rr) == pytest.approx(theta, abs=1e-9)
        assert rr == pytest.approx(r, rel=1e-9)


def test_depth_sign_convention():
    # positive glide angle climbs, so the offset's z (depth) is negative
    v = spherical_to_cartesian(0.3, 0.5, 1.0)
    assert v.z < 0.0
    v = spherical_to_cartesian(0.3, -0.5, 1.0)
    assert v.z > 0.0


# --- speed rule ------------------------------------------------------------

def test_speed_rule_descent_vs_ascent():
    assert SPEC.speed_for(-0.001) == 0.5
    assert SPEC.speed_for(0.0) == 0.3  # level flight uses the ascent figure
    assert SPEC.speed_for(0.4) == 0.3


# --- sample surface --------------------------------------------------------

def test_grid_is_five_by_five():
    surf = build_sample_surface(glider(), SPEC, 1.0)
    assert len(surf.candidates) == 25
    psis = sorted({c.psi for c in surf.candidates})
    assert len(psis) == 5
    step = SPEC.max_heading_step / 2.0
    for a, b in zip(psis, psis[1:]):
        assert b - a == pytest.approx(step, rel=1e-9)


def test_grid_centered_on_attitude():
    surf = build_sample_surface(glider(psi=0.7, theta=0.2), SPEC, 1.0)
    assert surf.center == Vec3(50.0, 50.0, 10.0)
    psis = {round(c.psi, 12) for c in surf.candidates}
    assert round(0.7, 12) in psis
    thetas = {round(c.theta, 12) for c in surf.candidates}
    assert round(0.2, 12) in thetas


def test_candidate_positions_on_their_spheres():
    dt = 1.0
    surf = build_sample_surface(glider(psi=-1.2, theta=-0.3), SPEC, dt)
    for c in surf.candidates:
        assert c.speed == SPEC.speed_for(c.theta)
        d = (c.position - surf.center).norm()
        assert d == pytest.approx(c.speed * dt, rel=1e-12)


def test_glide_clamp_keeps_duplicates():
    # attitude pitched to the envelope: the upper glide rows clamp onto it
    surf = build_sample_surface(glider(theta=SPEC.max_glide_angle), SPEC, 1.0)
    assert len(surf.candidates) == 25
    at_limit = [c for c in surf.candidates if c.theta == SPEC.max_glide_angle]
    assert len(at_limit) == 15  # three of five glide rows clamp, per heading
    assert all(abs(c.theta) <= SPEC.max_glide_angle + 1e-12
               for c in surf.candidates)


def test_heading_fan_wraps():
    surf = build_sample_surface(glider(psi=math.pi - 0.01), SPEC, 1.0)
    for c in surf.candidates:
        assert -math.pi < c.psi <= math.pi


def test_speeds_differ_across_glide_rows():
    # the same fan mixes descending (fast) and climbing (slow) candidates
    surf = build_sample_surface(glider(), SPEC, 1.0)
    speeds = {c.speed for c in surf.candidates}
    assert speeds == {0.3, 0.5}


def bits(v):
    return tuple(float.hex(a) for a in (v.x, v.y, v.z))


# headings around the +/-pi seam and glide angles at and past the envelope
HEADINGS = st.one_of(st.floats(-4.0, 4.0),
                     st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                                      0.0, -0.0]))
GLIDES = st.one_of(st.floats(-1.6, 1.6), st.sampled_from([0.0, -0.0, 1.5, -1.5]))


@settings(max_examples=300, deadline=None)
@given(psi=HEADINGS, theta=GLIDES,
       step=st.floats(0.01, 1.2), glide=st.floats(0.05, 1.5),
       down=st.floats(0.05, 2.0), up=st.floats(0.05, 2.0),
       dt=st.floats(0.1, 10.0),
       at=st.tuples(*[st.floats(-500.0, 500.0)] * 3))
@example(psi=math.pi, theta=1.5, step=0.35, glide=0.8, down=0.5, up=0.3,
         dt=1.0, at=(0.0, 0.0, 0.0))
def test_fan_matches_spherical_to_cartesian_bit_for_bit(psi, theta, step, glide,
                                                          down, up, dt, at):
    # each candidate's position and velocity are the spherical_to_cartesian
    # values, bit for bit (signed zeros too), on the expected 5x5 grid
    spec = GliderSpec(max_heading_step=step, max_glide_angle=glide,
                      speed_down=down, speed_up=up)
    state = GliderState(Vec3(*at), Attitude(psi, theta), spec.speed_for(theta))
    surf = build_sample_surface(state, spec, dt)
    half = (GRID_N - 1) // 2
    k = 0
    for i in range(-half, half + 1):
        psi_i = wrap_angle(psi + i * (step / half))
        for j in range(-half, half + 1):
            theta_j = min(glide, max(-glide, theta + j * (glide / half)))
            c = surf.candidates[k]
            k += 1
            assert (float.hex(c.psi), float.hex(c.theta)) == (
                float.hex(psi_i), float.hex(theta_j))
            assert c.speed == spec.speed_for(theta_j)
            assert bits(c.velocity) == bits(
                spherical_to_cartesian(psi_i, theta_j, c.speed))
            assert bits(c.position) == bits(
                state.position + spherical_to_cartesian(psi_i, theta_j,
                                                        c.speed * dt))
    assert k == len(surf.candidates)
