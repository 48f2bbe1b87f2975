"""The sensing cull in run_scenario changes no decision.

run_scenario samples only tracked obstacles within cull_radius of the
vehicle. Adding obstacles beyond that surface distance, anywhere in the
tracked order, must leave every quantity the planner reads from the
sampled points bit-identical.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mppf.environment import Obstacle, WorldState, surface_distance, surface_points
from mppf.errors import NoFeasibleWaypoint, TrappedError
from mppf.escape import choose_direction, obstacles_in_critical_zone
from mppf.geometry import Attitude, GliderState, Vec3, build_sample_surface
from mppf.harness import cull_radius
from mppf.potentials import MODES, grid_potentials, select_goto
from mppf.scenario import scenario_from_dict

SIDE = 300.0


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
        # wide enough that each of the three reaches sets the radius
        "escape": {"cz_margin": draw(floats(0.0, 20.0)),
                   "overhead_pad": draw(floats(0.0, 5.0)),
                   "overhead_clearance": draw(floats(0.0, 40.0))},
    })


def near_obstacle(draw, pos):
    r = draw(floats(0.5, 8.0))
    dx, dy, dz = (draw(floats(-20.0, 20.0)) for _ in range(3))
    if draw(st.booleans()):
        return Obstacle("cylinder", r, Vec3(pos.x + dx, pos.y + dy, 0.0))
    vel = Vec3(draw(floats(-0.4, 0.4)), draw(floats(-0.4, 0.4)), 0.0)
    return Obstacle("sphere", r, Vec3(pos.x + dx, pos.y + dy, pos.z + dz), vel)


def far_obstacle(draw, pos, radius, cull):
    # just beyond the radius, where a radius too small would show
    d = cull + radius + draw(floats(1e-3, 3.0))
    az = draw(floats(-math.pi, math.pi))
    if draw(st.booleans()):
        return Obstacle("cylinder", radius, Vec3(pos.x + d * math.cos(az),
                                                 pos.y + d * math.sin(az), 0.0))
    # straight above or below is where the escape column looks
    el = draw(st.one_of(floats(-0.5 * math.pi, 0.5 * math.pi),
                        st.sampled_from((-0.5 * math.pi, 0.5 * math.pi))))
    return Obstacle("sphere", radius,
                    Vec3(pos.x + d * math.cos(el) * math.cos(az),
                         pos.y + d * math.cos(el) * math.sin(az),
                         pos.z + d * math.sin(el)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoFeasibleWaypoint, TrappedError) as e:
        return type(e)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_obstacles_beyond_cull_radius_change_no_decision(data):
    draw = data.draw
    sc = draw(scenarios())
    spec = sc.glider
    pos = Vec3(draw(floats(100.0, 200.0)), draw(floats(100.0, 200.0)),
               draw(floats(0.0, spec.max_depth)))
    g = GliderState(pos, Attitude(draw(floats(-math.pi, math.pi)),
                                  draw(floats(-0.7, 0.7))), 0.3)
    near = [near_obstacle(draw, pos)
            for _ in range(draw(st.integers(0, 5)))]
    far_radii = draw(st.lists(floats(0.5, 12.0), min_size=1, max_size=4))
    # the radius covers every materialized obstacle, the far ones included
    cull = cull_radius(sc, near + [Obstacle("sphere", r, pos) for r in far_radii])
    far = [far_obstacle(draw, pos, r, cull) for r in far_radii]
    assert all(surface_distance(ob, pos) > cull for ob in far)
    obstacles = list(near)
    for ob in far:
        obstacles.insert(draw(st.integers(0, len(obstacles))), ob)

    world = WorldState(g, tuple(obstacles), None, sc.bounds, spec.body_radius)
    kept = [i for i, ob in enumerate(obstacles)
            if surface_distance(ob, pos) <= cull]
    full = surface_points(world, range(len(obstacles)), sc.sonar)
    cut = surface_points(world, kept, sc.sonar)

    surface = build_sample_surface(g, spec, sc.dt)
    goal = Vec3(draw(floats(0.0, SIDE)), draw(floats(0.0, SIDE)),
                draw(floats(0.0, spec.max_depth)))
    flow = Vec3(draw(floats(-0.3, 0.3)), draw(floats(-0.3, 0.3)), 0.0)
    prm = sc.potentials
    for mode in MODES:
        full_u, cut_u = (grid_potentials(surface, goal, pts, flow, prm, mode)
                         for pts in (full, cut))
        assert [u.hex() for u in full_u] == [u.hex() for u in cut_u]
        assert (outcome(select_goto, surface, goal, full, flow, prm, mode,
                        spec.max_depth)
                == outcome(select_goto, surface, goal, cut, flow, prm, mode,
                           spec.max_depth))
    hull, cfg = spec.body_radius, sc.escape
    assert (obstacles_in_critical_zone(full, pos, hull, cfg)
            == obstacles_in_critical_zone(cut, pos, hull, cfg))
    assert (outcome(choose_direction, pos, full, cfg, hull, spec.max_depth)
            == outcome(choose_direction, pos, cut, cfg, hull, spec.max_depth))
