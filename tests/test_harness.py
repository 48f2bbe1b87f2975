"""End-to-end run bookkeeping, emitted files, and replayability."""

import math

import pytest
import yaml

from mppf import harness
from mppf.environment import flow_velocity, surface_points, visible_obstacles
from mppf.geometry import Vec3, build_sample_surface
from mppf.harness import (
    EXIT_CODES,
    compare_modes,
    emit_outputs,
    run_scenario,
    summary_dict,
)
from mppf.potentials import select_goto
from mppf.scenario import scenario_from_dict

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


# --- decision replay -------------------------------------------------------

def test_logged_decisions_replay_exactly(monkeypatch):
    """Every planner decision, replayed from the world it saw, against the
    whole tracked set rather than the culled one, picks the same command."""
    sc = scenario(CLUSTER)
    seen = {"tracked": set()}
    decisions = []

    def visible(world, sonar):
        found = visible_obstacles(world, sonar)
        seen["world"] = world
        seen["tracked"] |= set(found)  # tracked once seen, as the harness does
        return found

    def select(surface, waypoint, *args):
        cmd = select_goto(surface, waypoint, *args)
        decisions.append((seen["world"], waypoint, sorted(seen["tracked"]), cmd))
        return cmd

    monkeypatch.setattr(harness, "visible_obstacles", visible)
    monkeypatch.setattr(harness, "select_goto", select)
    res = run_scenario(sc)
    follow = [s for s in res.trajectory[:-1] if s.mode == "follow"]
    assert len(follow) == len(decisions) > 0

    for sample, (world, waypoint, tracked, cmd) in list(zip(follow, decisions))[:120]:
        assert sample.position == world.glider.position
        assert sample.u_min == cmd.potential
        pts = surface_points(world, tracked, sc.sonar)
        surf = build_sample_surface(world.glider, sc.glider, sc.dt)
        flow = flow_velocity(world.flow, world.glider.position)
        assert select_goto(surf, waypoint, pts, flow, sc.potentials,
                           "advanced", sc.glider.max_depth) == cmd


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


# --- mode comparison -------------------------------------------------------

def test_compare_modes_reports_deltas():
    cmp = compare_modes(scenario(CLUSTER))
    assert cmp.baseline.seed == cmp.advanced.seed
    assert cmp.d_time_cost == pytest.approx(
        cmp.advanced.time_cost - cmp.baseline.time_cost)
    assert cmp.d_drift == pytest.approx(cmp.advanced.drift - cmp.baseline.drift)
