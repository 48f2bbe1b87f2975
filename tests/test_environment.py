"""World model: sonar visibility, surface sampling, kinematics, flow."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf import environment
from mppf.environment import (
    _CLEAR_REACH,
    Bounds,
    Obstacle,
    ObstacleIndex,
    SonarModel,
    VortexFlow,
    WorldState,
    _advance_obstacle,
    _sample_cylinder,
    advance_world,
    flow_velocity,
    glider_clearance,
    sonar_view,
    step_kinematics,
    surface_distance,
    surface_points,
    visible_obstacles,
)
from mppf.geometry import Attitude, GliderState, Vec3, wrap_angle
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
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            Obstacle("sphere", radius, ZERO)
    with pytest.raises(ValueError):
        Obstacle("cylinder", 3.0, ZERO, Vec3(0.1, 0.0, 0.0))


def test_sonar_model_refuses_what_the_reader_refuses():
    """A vertical_fov outside (0, pi] would turn the pillar band's
    tan(fov / 2) negative; a range must be finite and positive. pi itself,
    the reader's 180 deg, is accepted."""
    assert SonarModel(vertical_fov=math.radians(180.0)).vertical_fov == math.pi
    for fov in (math.radians(181.0), math.nextafter(math.pi, 4.0), 0.0, -0.5,
                math.nan, math.inf):
        with pytest.raises(ValueError, match="vertical_fov"):
            SonarModel(vertical_fov=fov)
    for rng in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="range"):
            SonarModel(range=rng)


def test_flow_and_bounds_refuse_what_the_reader_refuses():
    """A zero cell_size or max_depth would divide by zero in flow_velocity
    and a NaN amplitude give a NaN flow; each is refused in one line, as
    is a domain extent that is not finite and positive. The reader's
    smallest values are accepted."""
    assert VortexFlow(amplitude=0.0, cell_size=1e-6, max_depth=1e-6).amplitude == 0.0
    assert Bounds(1.0, 1.0, 1.0).depth == 1.0
    table = [(VortexFlow, "amplitude", v) for v in (-0.1, math.nan, math.inf)]
    table += [(kind, name, v)
              for kind, names in ((VortexFlow, ("cell_size", "max_depth")),
                                  (Bounds, ("x", "y", "depth")))
              for name in names for v in (0.0, -1.0, math.nan, math.inf)]
    for kind, name, value in table:
        with pytest.raises(ValueError, match=name) as err:
            kind(**{name: value})
        assert "\n" not in str(err.value)


# --- distances -------------------------------------------------------------

def test_surface_distance_sphere_and_cylinder():
    sp = sphere(50, 50, 10, 4.0)
    assert surface_distance(sp, Vec3(60, 50, 10)) == pytest.approx(6.0)
    assert surface_distance(sp, Vec3(50, 50, 10)) == pytest.approx(-4.0)
    cyl = Obstacle("cylinder", 5.0, Vec3(30.0, 40.0, 0.0))
    # depth is irrelevant to a full-depth pillar
    assert surface_distance(cyl, Vec3(30, 50, 3)) == pytest.approx(5.0)
    assert surface_distance(cyl, Vec3(30, 50, 47)) == pytest.approx(5.0)


def test_clearance_open_water_is_infinite():
    assert glider_clearance((), ObstacleIndex(()), Vec3(1, 2, 3), 0.6) == math.inf
    obs = (sphere(50, 50, 10, 4.0), sphere(80, 80, 10, 2.0))
    # nearest within _CLEAR_REACH, and beyond it (the full scan)
    for x, want in ((60, 5.4), (50 - 4 - _CLEAR_REACH - 6, _CLEAR_REACH + 5.4)):
        got = glider_clearance(obs, ObstacleIndex(obs), Vec3(x, 50, 10), 0.6)
        assert got == pytest.approx(want)


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


def test_range_bound_sphere_surface_exactly_at_range_is_seen():
    # center 24 m dead ahead, radius 3: the nearest surface point is 21 m
    # out with no rounding, and the center sits at range + radius
    w = world([sphere(74.0, 50.0, 10.0, 3.0)])
    assert visible_obstacles(w, SonarModel(range=21.0)) == [0]
    assert visible_obstacles(w, SonarModel(range=math.nextafter(21.0, 0.0))) == []


def test_range_bound_pillar_is_measured_horizontally():
    # 30 m down, the pillar's surface is 15 m away at the vehicle's depth,
    # but its center (at the surface) is 36 m off in 3D, past range + r + 1
    cyl = Obstacle("cylinder", 5.0, Vec3(70.0, 50.0, 0.0))
    w = world([cyl], at=Vec3(50.0, 50.0, 30.0))
    sonar = SonarModel(range=16.0)
    assert w.glider.position.dist(cyl.center) > sonar.range + cyl.radius + 1.0
    assert visible_obstacles(w, sonar) == [0]


def nearest_point_in_view(ob, g, sonar, depth_bound):
    """The sonar test with range gated on an explicit nearest surface point
    (a pillar's at the vehicle's depth, clamped to the water column):
    (in view, distance to that point)."""
    p, c, r = g.position, ob.center, ob.radius
    if ob.shape == "sphere":
        d = p.dist(c)
        near = c + Vec3(r, 0.0, 0.0) if d < 1e-9 else c + (p - c) * (r / d)
    else:
        d = p.hdist(c)
        z = min(depth_bound, max(0.0, p.z))
        near = (Vec3(c.x + r, c.y, z) if d < 1e-9 else
                Vec3(c.x + (p.x - c.x) * (r / d), c.y + (p.y - c.y) * (r / d), z))
    gap = p.dist(near)
    if gap > sonar.range:
        return False, gap
    if d <= r:
        return True, gap
    alpha = math.asin(min(1.0, r / d))
    az = math.atan2(c.y - p.y, c.x - p.x)
    if abs(wrap_angle(az - g.attitude.psi)) > 0.5 * sonar.horizontal_fov + alpha:
        return False, gap
    if ob.shape == "sphere":
        el = math.atan2(p.z - c.z, p.hdist(c))
        return abs(el - g.attitude.theta) <= 0.5 * sonar.vertical_fov + alpha, gap
    el_top = math.atan2(p.z, d - r)
    el_bot = math.atan2(p.z - depth_bound, d - r)
    lo = g.attitude.theta - 0.5 * sonar.vertical_fov
    hi = g.attitude.theta + 0.5 * sonar.vertical_fov
    return max(el_bot, lo) <= min(el_top, hi), gap


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def sonar_scenes(draw):
    """A sphere or pillar, a vehicle anywhere in the water column out to six
    radii from the body (often inside it), and a random attitude and sonar,
    whose range is often close to, or within a micron of, the vehicle's
    distance from the surface."""
    depth = draw(floats(5.0, 100.0))
    r = draw(floats(0.1, 20.0))
    k = draw(st.one_of(st.just(0.0), floats(0.0, 1.0), floats(1.0, 6.0)))
    phi = draw(floats(-math.pi, math.pi))
    if draw(st.booleans()):
        ob = Obstacle("sphere", r, Vec3(0.0, 0.0, draw(floats(0.0, depth))))
        el = draw(floats(-0.5 * math.pi, 0.5 * math.pi))
        z = ob.center.z + r * k * math.sin(el)
        at = Vec3(r * k * math.cos(el) * math.cos(phi),
                  r * k * math.cos(el) * math.sin(phi), min(depth, max(0.0, z)))
    else:
        ob = Obstacle("cylinder", r, Vec3(0.0, 0.0, 0.0))
        at = Vec3(r * k * math.cos(phi), r * k * math.sin(phi), draw(floats(0.0, depth)))
    gap = abs((at.dist(ob.center) if ob.shape == "sphere" else at.hdist(ob.center)) - r)
    rng = draw(st.one_of(floats(1e-3, 150.0), floats(0.5, 2.0).map(lambda m: 1e-3 + m * gap),
                         st.sampled_from((-1e-6, -1e-7, -1e-8, 1e-8, 1e-7, 1e-6))
                         .map(lambda e: max(1e-3, gap + e))))
    sonar = SonarModel(rng, draw(floats(0.1, 6.2)), draw(floats(0.02, 3.1)))
    g = GliderState(at, Attitude(draw(floats(-math.pi, math.pi)),
                                 draw(floats(-1.2, 1.2))), 0.3)
    return ob, g, sonar, depth


@settings(max_examples=500, deadline=None)
@given(sonar_scenes())
def test_range_gate_matches_the_nearest_surface_point(scene):
    ob, g, sonar, depth = scene
    seen, gap = nearest_point_in_view(ob, g, sonar, depth)
    if abs(gap - sonar.range) > 1e-9:
        assert sonar_view((ob,), (0,), g, sonar, depth) == ([0] if seen else [])


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


def band(ob, at, depth, vertical_fov):
    zs = [p.z for p in _sample_cylinder(ob, at, depth, vertical_fov)]
    return min(zs), max(zs)


def test_a_wider_beam_samples_a_pillar_no_narrower_band():
    """A 3 m pillar 30 m ahead of a vehicle 20 m down: at 179 and 180 deg
    the band spans the whole column, where a 181 deg beam, which the
    reader and SonarModel refuse, would sample 19-21 m."""
    cyl = Obstacle("cylinder", 3.0, Vec3(80.0, 50.0, 0.0))
    at = Vec3(50.0, 50.0, 20.0)
    for deg in (179.0, 180.0):
        assert band(cyl, at, 50.0, math.radians(deg)) == (0.0, 50.0)


@settings(max_examples=200, deadline=None)
@given(floats(0.1, 20.0), floats(0.0, 100.0), floats(0.0, 50.0),
       st.lists(floats(math.radians(1.0), math.radians(180.0)), min_size=2,
                max_size=6))
def test_pillar_band_never_narrows_as_the_beam_widens(r, hd, z, fovs):
    """Up to the reader's 180 deg limit, on the rim and outside it."""
    cyl = Obstacle("cylinder", r, Vec3(0.0, 0.0, 0.0))
    at = Vec3(r + hd, 0.0, z)
    fovs = sorted(fovs + [math.radians(180.0)])
    bands = [band(cyl, at, 50.0, f) for f in fovs]
    for (lo0, hi0), (lo1, hi1) in zip(bands, bands[1:]):
        assert lo1 <= lo0 and hi0 <= hi1


# --- kinematics ------------------------------------------------------------

def test_still_water_step_lands_on_target():
    w = world()
    cmd = GotoCommand(Vec3(50.3, 50.4, 10.1), 0.6, -0.2, 1.0)
    nxt = advance_world(w, step_kinematics(w.glider, cmd, ZERO, 1.0), 1.0)
    assert nxt.glider.position == Vec3(50.3, 50.4, 10.1)
    assert nxt.glider.attitude == Attitude(0.6, -0.2)
    assert nxt.time == 1.0


def test_flow_displaces_exactly_one_step():
    fl = VortexFlow(amplitude=0.1, cell_size=50.0)
    w = world(at=Vec3(25.0, 50.0, 0.0), flow=fl)
    drift = flow_velocity(fl, Vec3(25.0, 50.0, 0.0))
    cmd = GotoCommand(Vec3(25.3, 50.0, 0.0), 0.0, 0.0, 1.0)
    g = step_kinematics(w.glider, cmd, drift, 1.0)
    assert g.position.x == pytest.approx(25.3 + drift.x, rel=1e-12)
    assert g.position.y == pytest.approx(50.0 + drift.y, rel=1e-12)


def test_collision_flag_set_on_contact():
    w = world([sphere(52.0, 50.0, 10.0, 1.5)])
    cmd = GotoCommand(Vec3(51.0, 50.0, 10.0), 0.0, 0.0, 1.0)
    nxt = advance_world(w, step_kinematics(w.glider, cmd, ZERO, 1.0), 1.0)
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


ADVANCE_BOUNDS = Bounds(100.0, 80.0, 50.0)
# (start, velocity, dt) along one axis, and which wall the drift ends at;
# the on-wall rows land exactly on 0 or the bound and do not reflect
WALL_ROWS = [
    ("x", 0.3, -0.7, 1.3, "below"), ("x", 99.9, 0.7, 1.3, "above"),
    ("x", 0.5, -0.25, 2.0, "on"), ("x", 99.5, 0.25, 2.0, "on"),
    ("y", 0.1, -0.3, 0.9, "below"), ("y", 79.7, 0.45, 1.1, "above"),
    ("y", 0.75, -0.375, 2.0, "on"), ("y", 79.5, 0.125, 4.0, "on"),
    ("z", 0.2, -0.15, 3.0, "below"), ("z", 49.95, 0.1, 0.7, "above"),
    ("z", 1.0, -0.5, 2.0, "on"), ("z", 49.0, 0.5, 2.0, "on"),
]


@pytest.mark.parametrize("axis,c0,v,dt,wall", WALL_ROWS)
def test_advance_reflects_at_each_wall_by_bits(axis, c0, v, dt, wall):
    """Past a wall the center mirrors to -c or 2*hi - c of the drifted
    coordinate c and the velocity component flips; on a wall it stays."""
    k = "xyz".index(axis)
    hi = (ADVANCE_BOUNDS.x, ADVANCE_BOUNDS.y, ADVANCE_BOUNDS.depth)[k]
    center, vel = [50.0, 40.0, 25.0], [0.0, 0.0, 0.0]
    center[k], vel[k] = c0, v
    ob = Obstacle("sphere", 1.5, Vec3(*center), Vec3(*vel))
    nxt = _advance_obstacle(ob, ADVANCE_BOUNDS, dt)
    c = c0 + v * dt
    if wall == "on":
        assert c in (0.0, hi)
    assert (c < 0.0, c > hi) == (wall == "below", wall == "above")
    want_c = {"below": -c, "above": 2.0 * hi - c, "on": c}[wall]
    want_v = v if wall == "on" else -v
    center[k], vel[k] = want_c, want_v
    got = nxt.center, nxt.velocity
    assert [(a.x.hex(), a.y.hex(), a.z.hex()) for a in got] == [
        tuple(map(float.hex, center)), tuple(map(float.hex, vel))]
    assert (nxt.shape, nxt.radius) == (ob.shape, ob.radius)


def test_advance_world_moves_only_the_moving_obstacles(monkeypatch):
    obstacles = (sphere(20, 20, 10, 2.0),
                 Obstacle("sphere", 1.0, Vec3(40, 40, 5), Vec3(0.2, 0.0, 0.0)),
                 Obstacle("cylinder", 3.0, Vec3(70, 30, 0)),
                 Obstacle("sphere", 1.0, Vec3(60, 80, 5), Vec3(0.0, -0.1, 0.05)),
                 sphere(90, 90, 30, 4.0))
    w = world(obstacles, at=Vec3(10, 10, 0))
    calls = []

    def spy(ob, bounds, dt):
        calls.append(ob)
        return _advance_obstacle(ob, bounds, dt)

    monkeypatch.setattr(environment, "_advance_obstacle", spy)
    nxt = advance_world(w, w.glider, 1.0)
    assert w.index.moving == (1, 3)
    assert calls == [obstacles[1], obstacles[3]]
    for i in (0, 2, 4):
        assert nxt.obstacles[i] is obstacles[i]
    assert nxt.obstacles[1].center == Vec3(40.2, 40, 5)


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


def reflect(c, v, hi):
    """The reflection _advance_obstacle makes inline, as a function."""
    if c < 0.0:
        return -c, -v
    if c > hi:
        return 2.0 * hi - c, -v
    return c, v


@st.composite
def drifts(draw):
    """(center, velocity, extent) of one axis. The velocity is free, a
    signed zero, or one that lands exactly on a wall when dt is 1."""
    hi = draw(st.floats(1.0, 1000.0))
    c = draw(st.floats(0.0, hi))
    v = draw(st.floats(-2000.0, 2000.0) | st.sampled_from([0.0, -0.0])
             | st.sampled_from([-c, hi - c]))
    return c, v, hi


@settings(max_examples=500, deadline=None)
@given(st.tuples(drifts(), drifts(), drifts()),
       st.floats(0.01, 100.0) | st.just(1.0))
@example(((5.0, -5.0, 100.0), (95.0, 5.0, 100.0), (0.0, -0.0, 50.0)), 1.0)
@example(((5.0, -6.0, 100.0), (95.0, 6.0, 100.0), (50.0, 0.0, 50.0)), 1.0)
def test_advance_obstacle_reflects_bit_for_bit(axes, dt):
    (cx, vx, hx), (cy, vy, hy), (cz, vz, hz) = axes
    ob = Obstacle("sphere", 1.0, Vec3(cx, cy, cz), Vec3(vx, vy, vz))
    bounds = Bounds(hx, hy, hz)
    nxt = _advance_obstacle(ob, bounds, dt)
    want = [reflect(c + v * dt, v, hi) for c, v, hi in axes]
    got = [(nxt.center.x, nxt.velocity.x), (nxt.center.y, nxt.velocity.y),
           (nxt.center.z, nxt.velocity.z)]
    assert [(c.hex(), v.hex()) for c, v in got] == [
        (c.hex(), v.hex()) for c, v in want]
    assert (nxt.shape, nxt.radius) == (ob.shape, ob.radius)
    # the fill skips __init__: it must still set every field a built one has
    built = Obstacle(ob.shape, ob.radius, nxt.center, nxt.velocity)
    assert (nxt == built, hash(nxt), repr(nxt)) == (True, hash(built), repr(built))
    if all(0.0 <= c + v * dt <= hi for c, v, hi in axes):
        assert nxt.velocity is ob.velocity
    else:
        assert nxt.velocity is not ob.velocity


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


def test_no_flow_below_its_max_depth():
    # a file may set the attenuation depth shallower than the glider dives
    fl = VortexFlow(amplitude=0.1, cell_size=50.0, max_depth=5.0)
    assert flow_velocity(fl, Vec3(12.5, 25.0, 30.0)) == ZERO
    assert flow_velocity(fl, Vec3(12.5, 25.0, math.nextafter(5.0, 6.0))) == ZERO
    rng = random.Random(11)
    for _ in range(200):
        p = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 50))
        assert flow_velocity(fl, p).norm() <= math.pi * 0.1 + 1e-12
    # at the depth itself the formula still runs: its -0.0 is kept
    at = flow_velocity(fl, Vec3(12.5, 25.0, 5.0))
    assert at == ZERO and math.copysign(1.0, at.x) == -1.0


def test_flow_speed_bounded_by_pi_amplitude():
    fl = VortexFlow(amplitude=0.1, cell_size=100.0)
    rng = random.Random(10)
    cap = math.pi * 0.1
    for _ in range(500):
        p = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 50))
        assert flow_velocity(fl, p).norm() <= cap + 1e-12
