"""Unit checks of every potential/flow formula against hand-derived values.

Each expected constant below was worked out by hand from the closed-form
expressions before the implementation existed, so these are oracles, not
snapshots. Relative tolerance is 1e-9 unless the expected value is exactly
zero, where the branch must return 0.0 with no arithmetic residue.
"""

import math

import pytest

from mppf.environment import VortexFlow, flow_velocity
from mppf.geometry import Vec3, spherical_to_cartesian
from mppf.potentials import (
    PotentialParams,
    attractive,
    flow_potential,
    repulsive,
    velocity_repulsive,
)
from mppf.sawtooth import SawtoothParams, plan_sawtooth, stride_length

REL = 1e-9

ORIGIN = Vec3(0.0, 0.0, 0.0)


def params(**kw):
    base = dict(xi=0.1, eta=10.0, tau=0.1, kappa=0.1,
                flow_align_max=math.radians(20.0))
    base.update(kw)
    return PotentialParams(**base)


# --- spherical transform -------------------------------------------------

def test_spherical_to_cartesian_pitch_up():
    # psi=0, theta=45deg, r=1: (cos45, 0, -sin45); z negative because the
    # vector climbs and depth is positive down.
    v = spherical_to_cartesian(0.0, math.pi / 4, 1.0)
    s = math.sqrt(0.5)
    assert v.x == pytest.approx(s, rel=REL)
    assert v.y == pytest.approx(0.0, abs=1e-12)
    assert v.z == pytest.approx(-s, rel=REL)


# --- attractive ----------------------------------------------------------

def test_attractive_ten_meters():
    # 0.5 * 0.1 * 10^2 = 5
    assert attractive(ORIGIN, Vec3(10.0, 0.0, 0.0), params()) == pytest.approx(5.0, rel=REL)


def test_attractive_diagonal():
    # d_g^2 = 4+16+16 = 36 with xi=0.5: 0.5*0.5*36 = 9
    u = attractive(Vec3(1.0, 2.0, 2.0), Vec3(3.0, 6.0, 6.0), params(xi=0.5))
    assert u == pytest.approx(9.0, rel=REL)


def test_attractive_zero_at_goal():
    g = Vec3(4.0, 5.0, 6.0)
    assert attractive(g, g, params()) == 0.0


# --- repulsive -----------------------------------------------------------

def test_repulsive_hand_value():
    # d_o=5, d_t=10, d_g=10, eta=10: 0.5*10*(1/5-1/10)^2*100 = 5
    u = repulsive(ORIGIN, Vec3(5.0, 0.0, 0.0), 10.0, Vec3(-10.0, 0.0, 0.0), params())
    assert u == pytest.approx(5.0, rel=REL)


def test_repulsive_hand_value_offaxis():
    # q=(1,2,2), o=(2,4,4): d_o=3; goal (3,6,6): d_g=6; d_t=6, eta=2
    # 0.5*2*(1/3-1/6)^2*36 = (1/6)^2*36 = 1
    u = repulsive(Vec3(1.0, 2.0, 2.0), Vec3(2.0, 4.0, 4.0), 6.0,
                  Vec3(3.0, 6.0, 6.0), params(eta=2.0))
    assert u == pytest.approx(1.0, rel=REL)


def test_repulsive_zero_on_boundary():
    # d_o == d_t sits inside the influence region of Eq-style APF fields,
    # but the bracket (1/d_o - 1/d_t) vanishes, so the value is exactly 0.
    u = repulsive(ORIGIN, Vec3(10.0, 0.0, 0.0), 10.0, Vec3(-5.0, 0.0, 0.0), params())
    assert u == 0.0


def test_repulsive_zero_outside_influence():
    u = repulsive(ORIGIN, Vec3(10.0, 0.0, 0.0), 4.0, Vec3(-5.0, 0.0, 0.0), params())
    assert u == 0.0


def test_repulsive_grows_with_goal_distance():
    # the d_g^2 factor: same obstacle geometry, goal twice as far -> 4x
    near = repulsive(ORIGIN, Vec3(3.0, 0.0, 0.0), 6.0, Vec3(0.0, 5.0, 0.0), params())
    far = repulsive(ORIGIN, Vec3(3.0, 0.0, 0.0), 6.0, Vec3(0.0, 10.0, 0.0), params())
    assert far == pytest.approx(4.0 * near, rel=REL)


# --- velocity repulsive --------------------------------------------------

def test_velocity_repulsive_head_on():
    # closing speed 0.5 m/s at d_o=2, tau=0.1: 0.5*0.1*0.5/2 = 0.0125
    u = velocity_repulsive(ORIGIN, Vec3(0.5, 0.0, 0.0),
                           Vec3(2.0, 0.0, 0.0), ORIGIN, 10.0, params())
    assert u == pytest.approx(0.0125, rel=REL)


def test_velocity_repulsive_oblique():
    # v=(0.3,0.4,0), obstacle at (3,4,0) static, d_o=5, unit=(0.6,0.8,0)
    # V_UO = 0.18+0.32 = 0.5; 0.5*0.1*0.5/5 = 0.005
    u = velocity_repulsive(ORIGIN, Vec3(0.3, 0.4, 0.0),
                           Vec3(3.0, 4.0, 0.0), ORIGIN, 12.0, params())
    assert u == pytest.approx(0.005, rel=REL)


def test_velocity_repulsive_zero_when_receding():
    # V_UO < 0: moving away, no penalty at all
    u = velocity_repulsive(ORIGIN, Vec3(-0.5, 0.0, 0.0),
                           Vec3(2.0, 0.0, 0.0), ORIGIN, 10.0, params())
    assert u == 0.0


def test_velocity_repulsive_zero_outside_influence():
    u = velocity_repulsive(ORIGIN, Vec3(0.5, 0.0, 0.0),
                           Vec3(20.0, 0.0, 0.0), ORIGIN, 10.0, params())
    assert u == 0.0


def test_velocity_repulsive_relative_velocity():
    # obstacle fleeing as fast as the glider chases: zero closing speed,
    # V_UO = 0 which still satisfies >= 0, giving exactly 0 potential
    u = velocity_repulsive(ORIGIN, Vec3(0.4, 0.0, 0.0),
                           Vec3(2.0, 0.0, 0.0), Vec3(0.4, 0.0, 0.0), 10.0, params())
    assert u == 0.0


# --- flow potential ------------------------------------------------------

def test_flow_potential_aligned():
    # gamma=0 <= 20deg: 0.5*0.1*|(0.1,0,0)-(0.3,0,0)|^2 = 0.002
    u = flow_potential(Vec3(0.3, 0.0, 0.0), Vec3(0.1, 0.0, 0.0), params())
    assert u == pytest.approx(0.002, rel=REL)


def test_flow_potential_antiparallel():
    # gamma=180deg >= 110deg: 0.5*0.1*|(-0.1,0,0)-(-0.3,0,0)|^2 = 0.002
    u = flow_potential(Vec3(-0.3, 0.0, 0.0), Vec3(0.1, 0.0, 0.0), params())
    assert u == pytest.approx(0.002, rel=REL)


def test_flow_potential_dead_zone_zero():
    # gamma = 90deg falls strictly between the 20deg and 110deg thresholds
    u = flow_potential(Vec3(0.0, 0.3, 0.0), Vec3(0.1, 0.0, 0.0), params())
    assert u == 0.0


def test_flow_potential_zero_flow_zero():
    u = flow_potential(Vec3(0.3, 0.0, 0.0), ORIGIN, params())
    assert u == 0.0


def test_flow_potential_threshold_inclusive():
    # exactly 20deg off the flow axis: the aligned branch applies (<=)
    v = spherical_to_cartesian(math.radians(20.0), 0.0, 0.3)
    u = flow_potential(v, Vec3(0.2, 0.0, 0.0), params())
    dx, dy, dz = 0.2 - v.x, -v.y, -v.z
    assert u == pytest.approx(0.5 * 0.1 * (dx * dx + dy * dy + dz * dz), rel=REL)


# --- vortex flow field ---------------------------------------------------

def test_vortex_hand_value():
    # (12.5,12.5,0), A=0.1, s=50: sin(pi/4)cos(pi/4) = 0.5 both terms,
    # attenuation 1 at the surface: (-pi*0.1*0.5, +pi*0.1*0.5, 0)
    flow = VortexFlow(amplitude=0.1, cell_size=50.0, max_depth=50.0)
    v = flow_velocity(flow, Vec3(12.5, 12.5, 0.0))
    assert v.x == pytest.approx(-0.05 * math.pi, rel=REL)
    assert v.y == pytest.approx(0.05 * math.pi, rel=REL)
    assert v.z == 0.0


def test_vortex_cell_corner_stagnates():
    flow = VortexFlow(amplitude=0.1, cell_size=50.0, max_depth=50.0)
    v = flow_velocity(flow, Vec3(25.0, 25.0, 0.0))
    assert abs(v.x) < 1e-12 and abs(v.y) < 1e-12 and v.z == 0.0


def test_vortex_vanishes_at_max_depth():
    flow = VortexFlow(amplitude=0.1, cell_size=50.0, max_depth=50.0)
    v = flow_velocity(flow, Vec3(12.5, 37.5, 50.0))
    assert v == Vec3(0.0, 0.0, 0.0)


def test_vortex_speed_bound():
    # |v| <= pi*A everywhere (|sin*cos| <= 1 per axis is loose; the exact
    # per-axis bound is pi*A/2 and the vector bound pi*A/sqrt(2))
    flow = VortexFlow(amplitude=0.1, cell_size=50.0, max_depth=50.0)
    import random
    rng = random.Random(7)
    for _ in range(200):
        p = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 50))
        v = flow_velocity(flow, p)
        assert v.norm() <= math.pi * 0.1 + 1e-12


# --- sawtooth closed forms ------------------------------------------------

def test_stride_length_tangent_form():
    # h = 2*d_max/tan(theta_max/2); at d_max=10, theta_max=45deg the
    # cotangent of 22.5deg is 1+sqrt(2), so h = 20*(1+sqrt(2))
    p = SawtoothParams(max_depth=10.0, water_depth=50.0, depth_margin=0.0,
                       max_glide_angle=math.radians(45.0))
    assert stride_length(p) == pytest.approx(20.0 * (1.0 + math.sqrt(2.0)), rel=REL)


def test_stride_length_literal_form():
    # the angle-ratio variant: 2*d_max/(theta_max/2) with the angle in radians
    p = SawtoothParams(max_depth=10.0, water_depth=50.0, depth_margin=0.0,
                       max_glide_angle=math.radians(45.0), literal_stride=True)
    assert stride_length(p) == pytest.approx(20.0 / (math.pi / 8.0), rel=REL)


def test_single_dive_midpoint():
    # equal-depth endpoints, water shallow enough for one tooth:
    # midpoint at the arithmetic mean with depth water_depth - margin
    p = SawtoothParams(max_depth=30.0, water_depth=30.0, depth_margin=0.0,
                       max_glide_angle=math.radians(45.0))
    plan = plan_sawtooth(Vec3(10.0, 10.0, 0.0), Vec3(90.0, 90.0, 0.0), p)
    assert len(plan.waypoints) == 2
    mid = plan.waypoints[0]
    assert mid == Vec3(50.0, 50.0, 30.0)
    assert plan.waypoints[1] == Vec3(90.0, 90.0, 0.0)
