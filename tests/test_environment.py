"""World model: sonar visibility, surface sampling, kinematics, flow."""

import math
import random

import pytest

from mppf.environment import (
    Bounds,
    Obstacle,
    SonarModel,
    VortexFlow,
    WorldState,
    advance_world,
    flow_velocity,
    glider_clearance,
    nearest_surface_point,
    step_kinematics,
    surface_distance,
    surface_points,
    visible_obstacles,
)
from mppf.geometry import Attitude, GliderState, Vec3
from mppf.potentials import GotoCommand

SONAR = SonarModel()
ZERO = Vec3(0.0, 0.0, 0.0)


def world(obstacles=(), psi=0.0, theta=0.0, at=Vec3(50.0, 50.0, 10.0), flow=None):
    g = GliderState(at, Attitude(psi, theta), 0.3)
    return WorldState(g, tuple(obstacles), flow)


def sphere(x, y, z, r):
    return Obstacle("sphere", r, Vec3(x, y, z))


# --- obstacle validation ---------------------------------------------------

def test_obstacle_shape_and_radius_validated():
    with pytest.raises(ValueError):
        Obstacle("cube", 3.0, ZERO)
    with pytest.raises(ValueError):
        Obstacle("sphere", 0.0, ZERO)
    with pytest.raises(ValueError):
        Obstacle("cylinder", 3.0, ZERO, Vec3(0.1, 0.0, 0.0))


# --- distances -------------------------------------------------------------

def test_surface_distance_sphere_and_cylinder():
    sp = sphere(50, 50, 10, 4.0)
    assert surface_distance(sp, Vec3(60, 50, 10)) == pytest.approx(6.0)
    assert surface_distance(sp, Vec3(50, 50, 10)) == pytest.approx(-4.0)
    cyl = Obstacle("cylinder", 5.0, Vec3(30.0, 40.0, 0.0))
    # depth is irrelevant to a full-depth pillar
    assert surface_distance(cyl, Vec3(30, 50, 3)) == pytest.approx(5.0)
    assert surface_distance(cyl, Vec3(30, 50, 47)) == pytest.approx(5.0)


def test_nearest_surface_point_lies_on_surface():
    sp = sphere(50, 50, 10, 4.0)
    p = nearest_surface_point(sp, Vec3(60, 50, 10), 50.0)
    assert p == Vec3(54.0, 50.0, 10.0)
    cyl = Obstacle("cylinder", 5.0, Vec3(30.0, 40.0, 0.0))
    q = nearest_surface_point(cyl, Vec3(30.0, 50.0, 12.0), 50.0)
    assert q.x == pytest.approx(30.0)
    assert q.y == pytest.approx(45.0)
    assert q.z == 12.0  # pillar matches the vehicle's depth within the column


def test_clearance_open_water_is_infinite():
    assert glider_clearance((), Vec3(1, 2, 3), 0.6) == math.inf
    obs = (sphere(50, 50, 10, 4.0), sphere(80, 80, 10, 2.0))
    assert glider_clearance(obs, Vec3(60, 50, 10), 0.6) == pytest.approx(5.4)


# --- visibility ------------------------------------------------------------

def test_obstacle_dead_ahead_is_visible():
    w = world([sphere(70, 50, 10, 3.0)])
    assert visible_obstacles(w, SONAR) == [0]


def test_obstacle_behind_is_not_visible():
    w = world([sphere(30, 50, 10, 3.0)])  # squarely astern of heading 0
    assert visible_obstacles(w, SONAR) == []


def test_obstacle_beyond_range_is_not_visible():
    w = world([sphere(70, 50, 10, 3.0)])
    short = SonarModel(range=15.0)
    assert visible_obstacles(w, short) == []
    # range gates on the nearest surface point, not the center
    grazing = SonarModel(range=17.1)
    assert visible_obstacles(w, grazing) == [0]


def test_extent_widens_the_vertical_wedge():
    # center sits below the 15 deg half-angle, but the upper limb of a fat
    # sphere still pokes into the wedge
    w = world([sphere(70, 50, 18.0, 4.0)])
    assert visible_obstacles(w, SONAR) == [0]
    skinny = sphere(70, 50, 18.0, 0.3)
    assert visible_obstacles(world([skinny]), SONAR) == []


def test_pitch_steers_the_cone():
    deep = sphere(60, 50, 22.0, 1.0)
    assert visible_obstacles(world([deep]), SONAR) == []
    pitched = world([deep], theta=math.radians(-40.0))  # nose down
    assert visible_obstacles(pitched, SONAR) == [0]


def test_cylinder_visible_through_column_overlap():
    cyl = Obstacle("cylinder", 5.0, Vec3(70.0, 50.0, 0.0))
    assert visible_obstacles(world([cyl]), SONAR) == [0]
    behind = Obstacle("cylinder", 5.0, Vec3(30.0, 50.0, 0.0))
    assert visible_obstacles(world([behind]), SONAR) == []


def test_inside_influence_always_tracked():
    # pressed right against the surface the sphere subtends the whole view
    w = world([sphere(51.5, 50.0, 10.0, 1.0)])
    assert visible_obstacles(w, SONAR) == [0]


# --- surface sampling ------------------------------------------------------

def test_sphere_sampled_as_nine_facing_points():
    ob = sphere(70, 50, 10, 3.0)
    pts = surface_points(world([ob]), [0], SONAR)
    assert len(pts) == 9
    for p in pts:
        assert p.position.dist(ob.center) == pytest.approx(3.0, rel=1e-12)
        assert p.position.x <= ob.center.x  # facing hemisphere only
        assert p.influence == pytest.approx(2.0 * 3.6)
        assert p.source_radius == 3.0
        assert p.velocity == ZERO


def test_moving_sphere_points_carry_velocity():
    ob = Obstacle("sphere", 2.0, Vec3(70, 50, 10), Vec3(-0.2, 0.1, 0.0))
    pts = surface_points(world([ob]), [0], SONAR)
    assert all(p.velocity == Vec3(-0.2, 0.1, 0.0) for p in pts)


def test_cylinder_sampled_on_shell_within_column():
    cyl = Obstacle("cylinder", 5.0, Vec3(70.0, 50.0, 0.0))
    pts = surface_points(world([cyl]), [0], SONAR)
    assert len(pts) == 9
    for p in pts:
        hd = math.hypot(p.position.x - 70.0, p.position.y - 50.0)
        assert hd == pytest.approx(5.0, rel=1e-12)
        assert 0.0 <= p.position.z <= 50.0


# --- kinematics ------------------------------------------------------------

def test_still_water_step_lands_on_target():
    w = world()
    cmd = GotoCommand(Vec3(50.3, 50.4, 10.1), 0.6, -0.2, 10.1, 1.0)
    nxt = step_kinematics(w, cmd, 1.0)
    assert nxt.glider.position == Vec3(50.3, 50.4, 10.1)
    assert nxt.glider.attitude == Attitude(0.6, -0.2)
    assert nxt.time == 1.0


def test_flow_displaces_exactly_one_step():
    fl = VortexFlow(amplitude=0.1, cell_size=50.0)
    w = world(at=Vec3(25.0, 50.0, 0.0), flow=fl)
    drift = flow_velocity(fl, Vec3(25.0, 50.0, 0.0))
    cmd = GotoCommand(Vec3(25.3, 50.0, 0.0), 0.0, 0.0, 0.0, 1.0)
    nxt = step_kinematics(w, cmd, 1.0)
    assert nxt.glider.position.x == pytest.approx(25.3 + drift.x, rel=1e-12)
    assert nxt.glider.position.y == pytest.approx(50.0 + drift.y, rel=1e-12)


def test_collision_flag_set_on_contact():
    w = world([sphere(52.0, 50.0, 10.0, 1.5)])
    cmd = GotoCommand(Vec3(51.0, 50.0, 10.0), 0.0, 0.0, 10.0, 1.0)
    nxt = step_kinematics(w, cmd, 1.0)
    assert nxt.collision  # 1.0 m gap < 1.5 + 0.6


# --- moving obstacles ------------------------------------------------------

def test_obstacle_advances_linearly():
    ob = Obstacle("sphere", 2.0, Vec3(50, 50, 10), Vec3(0.3, -0.1, 0.0))
    w = world([ob], at=Vec3(10, 10, 0))
    nxt = advance_world(w, w.glider, 2.0)
    assert nxt.obstacles[0].center == Vec3(50.6, 49.8, 10.0)
    assert nxt.obstacles[0].velocity == Vec3(0.3, -0.1, 0.0)


def test_obstacle_reflects_at_bounds():
    ob = Obstacle("sphere", 2.0, Vec3(99.5, 50, 10), Vec3(1.0, 0.0, 0.0))
    w = world([ob], at=Vec3(10, 10, 0))
    nxt = advance_world(w, w.glider, 1.0)
    # overshoot of 0.5 mirrors back from the wall; velocity flips
    assert nxt.obstacles[0].center.x == pytest.approx(99.5)
    assert nxt.obstacles[0].velocity.x == -1.0


def test_reflection_is_deterministic_over_many_steps():
    rng = random.Random(6)
    ob = Obstacle("sphere", 1.0, Vec3(rng.uniform(0, 100), rng.uniform(0, 100), 25.0),
                  Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0))
    w1 = world([ob], at=Vec3(10, 10, 0))
    w2 = world([ob], at=Vec3(10, 10, 0))
    for _ in range(500):
        w1 = advance_world(w1, w1.glider, 1.0)
        w2 = advance_world(w2, w2.glider, 1.0)
    assert w1.obstacles[0] == w2.obstacles[0]
    c = w1.obstacles[0].center
    assert 0.0 <= c.x <= 100.0 and 0.0 <= c.y <= 100.0


# --- flow field ------------------------------------------------------------

def test_flow_is_divergence_free():
    fl = VortexFlow(amplitude=0.1, cell_size=50.0)
    rng = random.Random(8)
    h = 1e-5
    for _ in range(100):
        p = Vec3(rng.uniform(5, 95), rng.uniform(5, 95), rng.uniform(0, 40))
        dvx = (flow_velocity(fl, Vec3(p.x + h, p.y, p.z)).x
               - flow_velocity(fl, Vec3(p.x - h, p.y, p.z)).x) / (2 * h)
        dvy = (flow_velocity(fl, Vec3(p.x, p.y + h, p.z)).y
               - flow_velocity(fl, Vec3(p.x, p.y - h, p.z)).y) / (2 * h)
        assert dvx + dvy == pytest.approx(0.0, abs=1e-6)


def test_flow_attenuates_to_zero_at_max_depth():
    fl = VortexFlow(amplitude=0.1, cell_size=50.0, max_depth=50.0)
    p_srf = Vec3(25.0, 50.0, 0.0)
    p_mid = Vec3(25.0, 50.0, 25.0)
    p_bot = Vec3(25.0, 50.0, 50.0)
    v0 = flow_velocity(fl, p_srf)
    assert flow_velocity(fl, p_mid).norm() == pytest.approx(0.5 * v0.norm(), rel=1e-9)
    assert flow_velocity(fl, p_bot) == ZERO
    assert flow_velocity(None, p_srf) == ZERO


def test_flow_speed_bounded_by_pi_amplitude():
    fl = VortexFlow(amplitude=0.1, cell_size=100.0)
    rng = random.Random(10)
    cap = math.pi * 0.1
    for _ in range(500):
        p = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 50))
        assert flow_velocity(fl, p).norm() <= cap + 1e-12
