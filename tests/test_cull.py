"""Each reader of a step's samples reads what it would read from all of them.

run_scenario culls the tracked obstacles to cull_radius, and then each
reader samples only the culled obstacles that it can need
(harness._Samples): the critical zone nearest-first, the kernel those
within their kernel reach, the escape column all of them. In random
worlds of spheres and pillars, with obstacles placed on each reader's
boundary, at equal surface distances and straight above and below the
vehicle, every reader must give the answer it gives over the points of
every tracked obstacle, bit for bit, and no obstacle may be sampled twice.
"""

import math
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from mppf import _kernels, harness
from mppf.environment import Obstacle, WorldState, obstacles_within, surface_points
from mppf.errors import NoFeasibleWaypoint, TrappedError
from mppf.escape import choose_direction, critical_zone_radius, obstacles_in_critical_zone
from mppf.geometry import ZERO, Attitude, GliderState, Vec3, build_sample_surface
from mppf.harness import cull_radius, kernel_reaches
from mppf.potentials import MODES, grid_potentials, select_goto
from mppf.scenario import scenario_from_dict

SIDE = 300.0
UP_DOWN = (-0.5 * math.pi, 0.5 * math.pi)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenarios(draw):
    return scenario_from_dict({
        "start": [10, 10, 0], "goal": [290, 290, 0], "dt": draw(floats(0.5, 5.0)),
        "bounds": {"x": SIDE, "y": SIDE, "depth": 50.0},
        "glider": {"speed_down": draw(floats(0.1, 1.5)),
                   "speed_up": draw(floats(0.1, 1.5)),
                   "body_radius": draw(floats(0.2, 1.5))},
        # wide enough that each of the three reaches sets the cull radius
        "escape": {"cz_margin": draw(floats(0.0, 20.0)),
                   "overhead_pad": draw(floats(0.0, 5.0)),
                   "overhead_clearance": draw(floats(0.0, 40.0))},
    })


def placed(draw, pos, r, d):
    """An obstacle of radius r whose surface lies about d from pos: a
    pillar, or a sphere in any direction, straight above and below
    included, at rest or drifting."""
    az = draw(floats(-math.pi, math.pi))
    if draw(st.booleans()):
        return Obstacle("cylinder", r, Vec3(pos.x + (d + r) * math.cos(az),
                                            pos.y + (d + r) * math.sin(az), 0.0))
    el = draw(st.one_of(floats(-0.5 * math.pi, 0.5 * math.pi),
                        st.sampled_from(UP_DOWN)))
    vel = draw(st.sampled_from((ZERO, None)))
    if vel is None:
        vel = Vec3(draw(floats(-0.4, 0.4)), draw(floats(-0.4, 0.4)), 0.0)
    return Obstacle("sphere", r,
                    Vec3(pos.x + (d + r) * math.cos(el) * math.cos(az),
                         pos.y + (d + r) * math.cos(el) * math.sin(az),
                         pos.z + (d + r) * math.sin(el)), vel)


@st.composite
def worlds(draw):
    """A scenario, a vehicle and its obstacles. Each obstacle lies at a
    random surface distance, on a boundary (its kernel reach, its critical
    zone, the cull radius, give or take up to 1.5 m or a rounding error),
    or at the surface distance of an earlier one (a tie). A pair ties two
    obstacles at a distance inside the larger one's critical zone only, so
    which of them holds the nearest point decides the flag."""
    sc = draw(scenarios())
    spec, cfg = sc.glider, sc.escape
    hull = spec.body_radius
    pos = Vec3(draw(floats(100.0, 200.0)), draw(floats(100.0, 200.0)),
               draw(floats(0.0, spec.max_depth)))
    g = GliderState(pos, Attitude(draw(floats(-math.pi, math.pi)),
                                  draw(floats(-0.7, 0.7))), 0.3)
    reach = max(spec.speed_down, spec.speed_up) * sc.dt
    radii = draw(st.lists(floats(0.5, 12.0), min_size=1, max_size=9))
    # the cull radius is sized by the largest radius of the field
    cull = cull_radius(sc, [Obstacle("sphere", r, pos) for r in radii])
    placements = []  # (radius, surface distance)
    for r in radii:
        kind = draw(st.sampled_from(("free", "edge", "tie", "pair")))
        if kind == "tie" and placements:
            d = draw(st.sampled_from(placements))[1]
        elif kind == "pair":
            other = draw(st.sampled_from(radii))
            d = draw(floats(*sorted((critical_zone_radius(r, hull, cfg),
                                     critical_zone_radius(other, hull, cfg)))))
            placements.append((other, d))
        elif kind == "edge":
            edge = draw(st.sampled_from((
                2.0 * (r + hull) + reach,
                2.0 * (r + hull) + reach + 1.0,
                2.0 * (r + hull) + reach + 2.0,
                critical_zone_radius(r, hull, cfg),
                cull)))
            d = edge + draw(st.one_of(floats(-1.5, 1.5), floats(-1e-9, 1e-9)))
        else:
            d = draw(floats(-0.3, 30.0))
        placements.append((r, d))
    obstacles = []
    for r, d in placements:
        obstacles.insert(draw(st.integers(0, len(obstacles))),
                         placed(draw, pos, r, d))
    tracked = draw(st.one_of(
        st.just(frozenset(range(len(obstacles)))),
        st.frozensets(st.integers(0, len(obstacles) - 1))))
    return sc, WorldState(g, tuple(obstacles), None, sc.bounds, hull,
                          tracked=tracked)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoFeasibleWaypoint, TrappedError) as e:
        return type(e)


def scored(surface, goal, points, flow, prm, mode):
    """grid_potentials' scores as bits, and the points it hands the kernel."""
    with mock.patch.object(_kernels, "total_potential_grid",
                           wraps=_kernels.total_potential_grid) as kernel:
        u = grid_potentials(surface, goal, points, flow, prm, mode)
    return [x.hex() for x in u], kernel.call_args.args[7]


def per_reader(sc, world, near):
    """The points each reader gets, in the order run_scenario asks for
    them, and how often each obstacle was sampled."""
    with mock.patch.object(harness, "surface_points",
                           wraps=harness.surface_points) as sample:
        if near:
            samples = harness._Samples(world, sc.sonar, near)
            readers = (samples.critical_zone(),
                       samples.kernel(kernel_reaches(sc, world.obstacles)),
                       samples.column())
        else:
            readers = ([], [], [])
    times = Counter(i for call in sample.call_args_list for i in call.args[1])
    return readers, times


@settings(max_examples=400, deadline=None)
@given(worlds(), st.data())
def test_each_reader_reads_what_it_reads_from_every_tracked_obstacle(case, data):
    draw = data.draw
    sc, world = case
    spec, hull, cfg = sc.glider, sc.glider.body_radius, sc.escape
    g = world.glider
    pos = g.position
    full = surface_points(world, sorted(world.tracked), sc.sonar)
    near = obstacles_within(world, cull_radius(sc, world.obstacles))
    culled = surface_points(world, near, sc.sonar)
    (cz, kernel, column), times = per_reader(sc, world, near)
    assert set(times) <= world.tracked
    assert all(n == 1 for n in times.values())

    assert (obstacles_in_critical_zone(cz, pos, hull, cfg)
            == obstacles_in_critical_zone(full, pos, hull, cfg))

    surface = build_sample_surface(g, spec, sc.dt)
    goal = Vec3(draw(floats(0.0, SIDE)), draw(floats(0.0, SIDE)),
                draw(floats(0.0, spec.max_depth)))
    flow = Vec3(draw(floats(-0.3, 0.3)), draw(floats(-0.3, 0.3)), 0.0)
    prm = sc.potentials
    for mode in MODES:
        # the kernel gets the points it gets from the whole cull, and the
        # scores it gives from every tracked obstacle
        u, handed = scored(surface, goal, kernel, flow, prm, mode)
        assert handed == scored(surface, goal, culled, flow, prm, mode)[1]
        assert u == scored(surface, goal, full, flow, prm, mode)[0]
        assert (outcome(select_goto, surface, goal, kernel, flow, prm, mode,
                        spec.max_depth)
                == outcome(select_goto, surface, goal, full, flow, prm, mode,
                           spec.max_depth))

    assert (outcome(choose_direction, pos, column, cfg, hull, spec.max_depth)
            == outcome(choose_direction, pos, full, cfg, hull, spec.max_depth))


@settings(max_examples=300, deadline=None)
@given(scenarios(), st.data())
def test_tied_obstacles_leave_the_zone_to_the_nearest_point(sc, data):
    """Two to four obstacles at one surface distance, inside the largest
    one's critical zone only: rounding decides which holds the nearest
    point, and the critical-zone reader must find the same one."""
    draw = data.draw
    hull, cfg = sc.glider.body_radius, sc.escape
    pos = Vec3(150.0, 150.0, draw(floats(0.0, sc.glider.max_depth)))
    g = GliderState(pos, Attitude(0.0, 0.0), 0.3)
    radii = draw(st.lists(floats(0.5, 12.0), min_size=2, max_size=4))
    d = draw(floats(critical_zone_radius(min(radii), hull, cfg),
                    critical_zone_radius(max(radii), hull, cfg)))
    obstacles = tuple(placed(draw, pos, r, d) for r in radii)
    world = WorldState(g, obstacles, None, sc.bounds, hull,
                       tracked=frozenset(range(len(obstacles))))
    near = obstacles_within(world, cull_radius(sc, obstacles))
    (cz, _, _), _ = per_reader(sc, world, near)
    full = surface_points(world, range(len(obstacles)), sc.sonar)
    assert (obstacles_in_critical_zone(cz, pos, hull, cfg)
            == obstacles_in_critical_zone(full, pos, hull, cfg))
