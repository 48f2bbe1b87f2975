"""End-to-end run bookkeeping, emitted files, and replayability."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf import environment, escape, geometry, harness
from mppf.environment import (
    ObstacleIndex,
    flow_velocity,
    glider_clearance,
    surface_points,
)
from mppf.errors import NoFeasibleWaypoint, TrappedError
from mppf.geometry import Vec3, build_sample_surface
from mppf.harness import (
    EXIT_CODES,
    SCALAR_FIELDS,
    TrajectorySample,
    compare_modes,
    dump_yaml,
    emit_outputs,
    run_scenario,
    summary_dict,
    trajectory_csv,
)
from mppf.potentials import select_goto
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

def drain(steps):
    """The records a mission() generator yields, and the RunResult it
    returns."""
    records = []
    try:
        while True:
            records.append(next(steps))
    except StopIteration as end:
        return records, end.value


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoFeasibleWaypoint, TrappedError) as e:
        return type(e)


def test_logged_decisions_replay_exactly(monkeypatch):
    """Every step's decisions, read from its record and replayed from the
    world it saw against the points of the whole tracked set rather than
    the ones each reader sampled, come out the same: the critical-zone
    flag, the planner's outcome and the escape direction. No obstacle is
    sampled twice in a step: each one sampled lands in its step's samples,
    once. static_cluster and concave_trap escape among spheres;
    cylinder_flow escapes beside a pillar."""
    sampled = [0]

    def sample(world, indices, sonar):
        sampled[0] += len(indices)
        return surface_points(world, indices, sonar)

    monkeypatch.setattr(harness, "surface_points", sample)
    for name in ("static_cluster", "concave_trap", "cylinder_flow"):
        sc = load_scenario(SCENARIOS / f"{name}.yaml")
        spec, cfg = sc.glider, sc.escape
        sampled[0] = 0
        records, res = drain(harness.mission(sc))
        assert sampled[0] == sum(len(rec.samples) for rec in records
                                 if rec.samples is not None)
        follow = [(s.position, s.u_min) for s in res.trajectory[:-1]
                  if s.mode == "follow"]
        moves = [(rec.world.glider.position, rec.cmd.potential)
                 for rec in records if rec.cmd is not None]
        assert follow == moves and moves
        assert all(rec.fan is not None for rec in records if rec.cmd is not None)
        assert sum(rec.direction is not None for rec in records) == res.escapes > 0

        for rec in records:
            world = rec.world
            pos, hull = world.glider.position, world.body_radius
            pts = surface_points(world, sorted(world.tracked), sc.sonar)
            assert rec.in_cz == escape.obstacles_in_critical_zone(pts, pos, hull, cfg)
            if rec.fan is not None:  # the planner was asked
                assert rec.fan == build_sample_surface(world.glider, spec, sc.dt)
                assert (NoFeasibleWaypoint if rec.cmd is None else rec.cmd) == outcome(
                    select_goto, rec.fan, rec.plan.active_waypoint, pts,
                    flow_velocity(world.flow, pos), sc.potentials, sc.mode,
                    spec.max_depth)
            # a direction was asked for when an escape started, or when the
            # step ended trapped with no escape under way
            if rec.direction is not None or (rec.moved is None
                                             and rec.escape.mode == "inactive"):
                assert (rec.direction or TrappedError) == outcome(
                    escape.choose_direction, pos, pts, cfg, hull, spec.max_depth)


def test_a_mission_yields_one_record_per_sensing_step(monkeypatch, traps):
    """mission() yields one record per step that senses, in step order:
    the world the step decided in and the one it moved to, which only a
    step that ends trapped lacks. cmd is None exactly on the escape rows.
    Drained, it returns what run_scenario returns. concave_trap reaches its
    goal after escapes; the traps field ends trapped mid-escape."""
    n = count_calls(monkeypatch)
    for sc, status in ((load_scenario(SCENARIOS / "concave_trap.yaml"), "reached"),
                       (scenario(traps), "trapped")):
        n.update(senses=0, moves=0)
        records, res = drain(harness.mission(sc))
        assert res.status == status
        assert len(records) == n["senses"]
        assert [rec.moved is None for rec in records] == (
            [False] * (len(records) - 1) + [status == "trapped"])
        rows = res.trajectory
        assert [rec.world.time for rec in records] == [s.t for s in rows[:len(records)]]
        assert [rec.cmd is None for rec in records if rec.moved is not None] == [
            s.mode == "escape" for s in rows[:-1]]
        assert res == run_scenario(sc)


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


def fstring_row(s):
    """One trajectory.csv row as an f-string, the oracle of trajectory_csv."""
    return (f"{s.t:.6f},{s.position.x:.6f},{s.position.y:.6f},"
            f"{s.position.z:.6f},{math.degrees(s.psi):.6f},"
            f"{math.degrees(s.theta):.6f},{s.mode},{s.u_min:.6f}")


# specials first: nan and the infinities print as words, -0.0 keeps its sign
special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                           1e300, -1e300])
value = special | st.floats(-1e4, 1e4) | st.floats()
samples = st.builds(TrajectorySample, value, st.builds(Vec3, value, value, value),
                    value, value, st.sampled_from(["follow", "escape"]), value)


@settings(max_examples=300, deadline=None)
@given(st.lists(samples, max_size=5))
@example([TrajectorySample(-0.0, Vec3(math.nan, math.inf, -math.inf), -0.0,
                           math.inf, "escape", math.nan)])
def test_csv_rows_are_the_fstring_rows(rows):
    want = "\n".join(["t,x,y,z,psi_deg,theta_deg,mode,u_min"]
                     + [fstring_row(s) for s in rows]) + "\n"
    assert trajectory_csv(rows) == want


# summary- and compare-shaped documents: the same keys, with values of every
# type they hold and strings a resolver could mistake for numbers or bools
floats = special | st.floats()
texts = (st.from_regex(r"\A0[xX][0-9a-fA-F]{1,8}\Z")
         | st.from_regex(r"\A[0-9]{1,12}\Z")
         | st.from_regex(r"\A[-+]?[0-9]{1,3}(\.[0-9]{0,3})?[eE][-+]?[0-9]{1,3}\Z")
         | st.sampled_from(["reached", "collision", "trapped", "max_steps",
                            "python-random-mt19937", "0123456789abcdef",
                            "1_000", ".inf", ".nan", "yes", "off", "null", "~",
                            ""]))
scalars = floats | st.integers() | st.booleans() | texts
summary_docs = st.fixed_dictionaries(
    {k: scalars for k in (*SCALAR_FIELDS, "scenario_hash", "generator")})
compare_docs = st.fixed_dictionaries(
    {k: scalars for k in ("d_time_cost", "d_drift", "baseline_status",
                          "advanced_status")})


@settings(max_examples=300, deadline=None)
@given(summary_docs | compare_docs)
@example({"d_time_cost": -0.0, "d_drift": 5e-324, "baseline_status": "0x1F",
          "advanced_status": "1e300"})
def test_summary_and_compare_documents_dump_as_safe_dump_does(doc):
    assert dump_yaml(doc) == yaml.safe_dump(doc, sort_keys=True)


def test_the_dumper_is_libyaml_where_pyyaml_has_it():
    # the pure-PyYAML build runs the test above against SafeDumper itself
    if yaml.__with_libyaml__:
        assert harness._Dumper is yaml.CSafeDumper
    else:
        assert harness._Dumper is yaml.SafeDumper


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
    # src ahead of the caller's PYTHONPATH, as the tier-1 command builds it
    paths = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
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
