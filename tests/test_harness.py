"""End-to-end run bookkeeping, emitted files, and replayability."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from mppf import environment, escape, geometry, harness
from mppf.environment import (
    ObstacleIndex,
    flow_velocity,
    glider_clearance,
    surface_points,
    visible_obstacles,
)
from mppf.errors import NoFeasibleWaypoint, TrappedError
from mppf.geometry import Vec3, build_sample_surface
from mppf.harness import (
    EXIT_CODES,
    compare_modes,
    emit_outputs,
    run_scenario,
    summary_dict,
)
from mppf.potentials import GotoCommand, select_goto
from mppf.scenario import load_scenario, materialize_obstacles, scenario_from_dict

SCENARIOS = Path(__file__).parents[1] / "scenarios"

SAWTOOTH = {
    "name": "open-run",
    "mode": "baseline",
    "start": [10, 10, 0],
    "goal": [90, 90, 0],
    "max_steps": 600,
    "glider": {"max_depth": 10.0},
}

CLUSTER = {
    "name": "cluster-run",
    "mode": "advanced",
    "start": [10, 10, 0],
    "goal": [90, 90, 0],
    "max_steps": 1200,
    "obstacles": [
        {"shape": "sphere", "radius": 8.0, "center": [25, 25, 10]},
        {"shape": "sphere", "radius": 7.0, "center": [60, 60, 15]},
    ],
}


def scenario(data):
    return scenario_from_dict(dict(data), data["name"])


def count_calls(monkeypatch):
    """Count the sensing calls and the completed move calls of the runs
    that follow; a move that raises is not counted."""
    n = {"senses": 0, "moves": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            n[key] += 1
            return out
        return wrapper

    monkeypatch.setattr(harness, "visible_obstacles",
                        counted("senses", harness.visible_obstacles))
    monkeypatch.setattr(harness, "step_kinematics",
                        counted("moves", harness.step_kinematics))
    monkeypatch.setattr(escape, "escape_step",
                        counted("moves", escape.escape_step))
    return n


# --- run bookkeeping -------------------------------------------------------

def test_trajectory_rows_match_time_cost():
    res = run_scenario(scenario(SAWTOOTH))
    assert res.status == "reached"
    assert res.reached and not res.collision
    assert len(res.trajectory) == res.time_cost + 1  # fencepost: t=0 row
    assert res.trajectory[0].t == 0.0
    assert res.trajectory[-1].t == res.time_cost
    ts = [s.t for s in res.trajectory]
    assert ts == sorted(ts)


def test_a_start_in_contact_ends_collision_without_a_move():
    # keepout 0 keeps the field's surfaces off the start but not off the
    # 0.6 m hull: at seed 6 one sphere overlaps it
    sc = scenario(dict(SAWTOOTH, random_obstacles={
        "count": 40, "radius": [1, 2], "keepout": 0, "depth": [0, 3]}))
    obstacles = materialize_obstacles(sc, 6)
    start_clear = glider_clearance(obstacles, ObstacleIndex(obstacles),
                                   sc.start, sc.glider.body_radius)
    assert start_clear <= 0.0
    res = run_scenario(sc, seed=6)
    assert res.status == "collision" and res.collision
    assert EXIT_CODES[res.status] == 2
    assert res.time_cost == 0.0 and res.events == []
    assert [s.position for s in res.trajectory] == [sc.start]
    assert res.min_clearance == start_clear


def test_open_water_run_never_escapes():
    res = run_scenario(scenario(SAWTOOTH))
    assert res.escapes == 0
    assert res.min_clearance == math.inf
    assert all(s.mode == "follow" for s in res.trajectory[:-1])
    assert math.isnan(res.trajectory[-1].u_min)  # terminal row records no choice


def test_max_steps_override_truncates():
    res = run_scenario(scenario(SAWTOOTH), max_steps=10)
    assert res.status == "max_steps"
    assert res.time_cost == 10.0
    assert len(res.trajectory) == 11
    assert EXIT_CODES[res.status] == 4


def test_mode_override_and_validation():
    res = run_scenario(scenario(SAWTOOTH), mode="advanced")
    assert res.status == "reached"
    with pytest.raises(ValueError):
        run_scenario(scenario(SAWTOOTH), mode="hybrid")


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        run_scenario(scenario(SAWTOOTH), seed=-3)


def test_drift_is_final_distance_to_goal():
    res = run_scenario(scenario(SAWTOOTH))
    end = res.trajectory[-1].position
    assert end.dist(Vec3(90, 90, 0)) == pytest.approx(res.drift, rel=1e-12)
    assert res.drift <= 1.0  # arrived inside the arrival radius


# --- events ----------------------------------------------------------------

def test_waypoint_events_in_plan_order():
    res = run_scenario(scenario(SAWTOOTH))
    indices = [int(tag.split(":")[1]) for _, tag in res.events
               if tag.startswith("waypoint:")]
    assert indices == sorted(indices)
    assert len(indices) >= 6  # every tooth of the diagonal plan gets crossed


def test_escape_end_precedes_replan_at_same_time():
    res = run_scenario(scenario(CLUSTER))
    assert res.status == "reached"
    assert res.escapes >= 1
    tags = [tag for _, tag in res.events]
    k = tags.index("escape_end")
    assert tags[k + 1] == "replan"
    t_end = [t for t, tag in res.events if tag == "escape_end"][0]
    t_rep = [t for t, tag in res.events if tag == "replan"][0]
    assert t_end == t_rep


def test_escape_events_paired():
    res = run_scenario(scenario(CLUSTER))
    starts = [tag for _, tag in res.events if tag.startswith("escape_start")]
    ends = [tag for _, tag in res.events if tag == "escape_end"]
    assert len(starts) == res.escapes
    assert len(ends) == len(starts)  # every maneuver in this run completes


def test_senses_once_and_moves_once_per_step(monkeypatch):
    n = count_calls(monkeypatch)
    res = run_scenario(scenario(CLUSTER))
    assert res.status == "reached" and res.escapes >= 1
    steps = len(res.trajectory) - 1
    assert n == {"senses": steps, "moves": steps}  # no sensing after arrival


def test_one_flow_lookup_and_one_world_step_per_step(monkeypatch):
    """Planner and escape steps alike look the flow up once, where they
    sense, and advance the world once, when they move."""
    n = count_calls(monkeypatch)
    calls = {"flow": 0, "advance": 0}

    def spy(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (harness, environment):
        monkeypatch.setattr(module, "flow_velocity",
                            spy("flow", environment.flow_velocity))
    monkeypatch.setattr(harness, "advance_world",
                        spy("advance", harness.advance_world))
    res = run_scenario(load_scenario(SCENARIOS / "concave_trap.yaml"))
    assert {s.mode for s in res.trajectory[:-1]} == {"follow", "escape"}
    steps = len(res.trajectory) - 1
    assert n == {"senses": steps, "moves": steps}
    assert calls == {"flow": steps, "advance": steps}


# --- trapped and infeasible branches ---------------------------------------

def test_descending_escape_ends_trapped_at_the_depth_limit(monkeypatch, traps):
    n = count_calls(monkeypatch)
    res = run_scenario(scenario(traps))
    assert res.status == "trapped"
    assert res.events[-2:] == [(10.0, "escape_start:descending"),
                               (176.0, "trapped")]
    last = res.trajectory[-1]
    assert len(res.trajectory) == 177 and last.t == 176.0
    assert last.mode == "escape" and math.isnan(last.u_min)
    assert last.position.z == pytest.approx(29.95653668647298, rel=1e-12)
    assert last.position.z + 0.18 > 30.0  # the next descent step passes max_depth
    assert (last.position.x, last.position.y) == pytest.approx(
        (7.578230847651779, 67.81675009741456), rel=1e-12)
    # the trapped step senses but does not move
    assert n == {"senses": 177, "moves": 176}


def test_no_feasible_waypoint_starts_an_escape_at_once(monkeypatch):
    calls = []

    def select(*args):
        calls.append(args)
        if len(calls) == 4:
            raise NoFeasibleWaypoint("every candidate infeasible")
        return select_goto(*args)

    monkeypatch.setattr(harness, "select_goto", select)
    sc = scenario(SAWTOOTH)
    res = run_scenario(sc)
    assert res.status == "reached"
    row = res.trajectory[3]
    assert [s.mode for s in res.trajectory[:4]] == ["follow"] * 3 + ["escape"]
    assert math.isnan(row.u_min)
    starts = [(t, tag) for t, tag in res.events if tag.startswith("escape_start:")]
    assert [t for t, _ in starts] == [row.t]  # 4 steps: no full stall window
    assert row.t < sc.escape.window * sc.dt
    # open water: the next step leaves the escape and replans
    t_next = res.trajectory[4].t
    k = res.events.index(starts[0])
    assert res.events[k + 1:k + 3] == [(t_next, "escape_end"), (t_next, "replan")]
    assert res.escapes == 1
    assert res.replans == sum(tag == "replan" for _, tag in res.events)


def test_trapped_choosing_a_direction_records_no_move(monkeypatch, traps):
    def no_way_out(*args):
        raise TrappedError("no vertical escape")

    n = count_calls(monkeypatch)
    monkeypatch.setattr(escape, "choose_direction", no_way_out)
    res = run_scenario(scenario(traps))  # its stall window fills at t=10
    assert res.status == "trapped"
    assert res.events[-1] == (10.0, "trapped")
    assert not any(tag.startswith("escape_start") for _, tag in res.events)
    assert res.escapes == 0
    # rows for t=0..9 plus the terminal row; the trapped step has none
    assert [s.t for s in res.trajectory] == [float(k) for k in range(11)]
    assert [s.mode for s in res.trajectory] == ["follow"] * 11
    assert n == {"senses": 11, "moves": 10}


# --- decision replay -------------------------------------------------------

def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoFeasibleWaypoint, TrappedError) as e:
        return type(e)


def test_logged_decisions_replay_exactly(monkeypatch):
    """Every step's decisions, replayed from the world it saw against the
    points of the whole tracked set rather than the ones each reader
    sampled, come out the same: the critical-zone flag, the planner's
    outcome and the escape direction. No obstacle is sampled twice in a
    step. static_cluster and concave_trap escape among spheres;
    cylinder_flow escapes beside a pillar."""
    steps = []
    in_zone, choose = escape.obstacles_in_critical_zone, escape.choose_direction

    def visible(world, sonar):
        found = visible_obstacles(world, sonar)
        # tracked once seen, as the harness does
        steps.append({"world": world, "sampled": [],
                      "tracked": sorted(world.tracked.union(found))})
        return found

    def sample(world, indices, sonar):
        steps[-1]["sampled"] += indices
        return surface_points(world, indices, sonar)

    def logged(key, fn):
        def wrapper(*args):
            steps[-1][key + "_args"] = args
            try:
                steps[-1][key] = fn(*args)
            except (NoFeasibleWaypoint, TrappedError) as e:
                steps[-1][key] = type(e)
                raise
            return steps[-1][key]
        return wrapper

    monkeypatch.setattr(harness, "visible_obstacles", visible)
    monkeypatch.setattr(harness, "surface_points", sample)
    monkeypatch.setattr(harness, "select_goto", logged("goto", select_goto))
    monkeypatch.setattr(escape, "obstacles_in_critical_zone",
                        logged("in_cz", in_zone))
    monkeypatch.setattr(escape, "choose_direction",
                        logged("direction", choose))
    for name in ("static_cluster", "concave_trap", "cylinder_flow"):
        sc = load_scenario(SCENARIOS / f"{name}.yaml")
        spec, cfg = sc.glider, sc.escape
        steps.clear()
        res = run_scenario(sc)
        follow = [(s.position, s.u_min) for s in res.trajectory[:-1]
                  if s.mode == "follow"]
        moves = [(step["world"].glider.position, step["goto"].potential)
                 for step in steps if isinstance(step.get("goto"), GotoCommand)]
        assert follow == moves and moves
        assert sum("direction" in step for step in steps) == res.escapes > 0

        for step in steps:
            world = step["world"]
            pos, hull = world.glider.position, world.body_radius
            assert len(set(step["sampled"])) == len(step["sampled"])
            pts = surface_points(world, step["tracked"], sc.sonar)
            assert step.get("in_cz", False) == in_zone(pts, pos, hull, cfg)
            if "goto" in step:
                waypoint = step["goto_args"][1]
                assert step["goto"] == outcome(
                    select_goto, build_sample_surface(world.glider, spec, sc.dt),
                    waypoint, pts, flow_velocity(world.flow, pos),
                    sc.potentials, sc.mode, spec.max_depth)
            if "direction" in step:
                assert step["direction"] == outcome(
                    choose, pos, pts, cfg, hull, spec.max_depth)


# --- outputs ---------------------------------------------------------------

def test_emit_outputs_writes_four_files(tmp_path):
    sc = scenario(SAWTOOTH)
    res = run_scenario(sc)
    paths = emit_outputs(res, sc, tmp_path / "out")
    assert sorted(paths) == ["profile_view", "summary", "top_view", "trajectory"]
    for p in paths.values():
        assert p.exists() and p.stat().st_size > 0


def test_trajectory_csv_shape(tmp_path):
    sc = scenario(SAWTOOTH)
    res = run_scenario(sc)
    paths = emit_outputs(res, sc, tmp_path)
    lines = paths["trajectory"].read_text().splitlines()
    assert lines[0] == "t,x,y,z,psi_deg,theta_deg,mode,u_min"
    assert len(lines) == len(res.trajectory) + 1
    first = lines[1].split(",")
    assert first[:4] == ["0.000000", "10.000000", "10.000000", "0.000000"]


def test_summary_yaml_round_trips(tmp_path):
    sc = scenario(CLUSTER)
    res = run_scenario(sc)
    paths = emit_outputs(res, sc, tmp_path)
    loaded = yaml.safe_load(paths["summary"].read_text())
    want = summary_dict(res, sc)
    assert loaded == want
    assert loaded["status"] == "reached"
    assert loaded["generator"] == "python-random-mt19937"
    assert len(loaded["scenario_hash"]) == 16


def test_svg_views_draw_track_and_obstacles(tmp_path):
    sc = scenario(CLUSTER)
    res = run_scenario(sc)
    paths = emit_outputs(res, sc, tmp_path)
    for key in ("top_view", "profile_view"):
        svg = paths[key].read_text()
        assert svg.count('class="trajectory"') == 1
        assert svg.count('class="obstacle"') == len(sc.obstacles)
        assert "<svg" in svg and "</svg>" in svg


def test_emitted_files_are_deterministic(tmp_path):
    sc = scenario(CLUSTER)
    a = emit_outputs(run_scenario(sc), sc, tmp_path / "a")
    b = emit_outputs(run_scenario(sc), sc, tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


# writes one mission's files from a fresh process, whose row memos are empty
COLD_RUN = """
import sys
from mppf.harness import emit_outputs, run_scenario
from mppf.scenario import load_scenario
sc = load_scenario(sys.argv[1])
emit_outputs(run_scenario(sc, mode="advanced"), sc, sys.argv[2])
"""


def test_a_mission_writes_the_same_bytes_with_cold_and_warm_row_memos(tmp_path):
    path = SCENARIOS / "sawtooth.yaml"
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", COLD_RUN, str(path), str(tmp_path / "cold")],
                   check=True, env=env, timeout=120)
    sc = load_scenario(path)
    run_scenario(sc, mode="baseline")
    run_scenario(load_scenario(SCENARIOS / "vortex_multi.yaml"), mode="advanced")
    warm_keys = set(geometry._heading_memo)
    res = run_scenario(sc, mode="advanced")
    # the memo already held headings this mission decides from
    assert {(row.psi, sc.glider.max_heading_step) for row in res.trajectory} & warm_keys
    warm = emit_outputs(res, sc, tmp_path / "warm")
    for f in warm.values():
        assert f.read_bytes() == (tmp_path / "cold" / f.name).read_bytes(), f.name


# --- mode comparison -------------------------------------------------------

def test_compare_modes_reports_deltas():
    cmp = compare_modes(scenario(CLUSTER))
    assert cmp.baseline.seed == cmp.advanced.seed
    assert cmp.d_time_cost == pytest.approx(
        cmp.advanced.time_cost - cmp.baseline.time_cost)
    assert cmp.d_drift == pytest.approx(cmp.advanced.drift - cmp.baseline.drift)
