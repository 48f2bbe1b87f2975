"""Simulation driver wiring planner, escape, and environment, plus outputs.

One run is a strict per-step loop: sense, plan (or continue an escape),
move, track the waypoint plan. Every random draw comes from one seeded
generator at materialization time and the arithmetic is pure IEEE doubles,
so a (scenario, seed) pair reproduces byte-identical output files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import yaml

from mppf import escape as esc
from mppf import sawtooth as saw
from mppf.environment import (
    Obstacle,
    WorldState,
    advance_world,
    flow_velocity,
    glider_clearance,
    step_kinematics,
    surface_distance,
    surface_points,
    visible_obstacles,
)
from mppf.errors import NoFeasibleWaypoint, TrappedError
from mppf.geometry import Attitude, GliderState, Vec3, build_sample_surface
from mppf.potentials import MODES, select_goto
from mppf.scenario import (
    RNG_NAME,
    Scenario,
    materialize_obstacles,
    scenario_hash,
)
from mppf.svgplot import profile_view_svg, top_view_svg

STATUS_REACHED = "reached"
STATUS_COLLISION = "collision"
STATUS_TRAPPED = "trapped"
STATUS_MAX_STEPS = "max_steps"

EXIT_CODES = {STATUS_REACHED: 0, STATUS_COLLISION: 2,
              STATUS_TRAPPED: 3, STATUS_MAX_STEPS: 4}

# summary document = these RunResult fields + scenario_hash + generator
SCALAR_FIELDS = ("status", "reached", "time_cost", "drift", "min_clearance",
                 "collision", "replans", "escapes", "seed")


class TrajectorySample(NamedTuple):
    t: float
    position: Vec3
    psi: float
    theta: float
    mode: str
    u_min: float  # chosen candidate potential; nan on escape/terminal rows


@dataclass
class RunResult:
    status: str
    reached: bool
    time_cost: float
    drift: float
    min_clearance: float
    collision: bool
    replans: int
    escapes: int
    seed: int
    trajectory: list[TrajectorySample]
    events: list[tuple[float, str]]
    obstacles: tuple[Obstacle, ...]  # as materialized at t=0


@dataclass
class CompareResult:
    baseline: RunResult
    advanced: RunResult
    d_time_cost: float
    d_drift: float


def cull_radius(scenario: Scenario, obstacles: Sequence[Obstacle]) -> float:
    """Surface distance beyond which a tracked obstacle cannot matter.

    Every sample point of an obstacle lies at least its surface distance
    from the vehicle, and the planner reads a point only when it is within
    one of three reaches: a candidate's repulsion cutoff 2(R + hull) plus
    the step reach, the critical zone R + hull + cz_margin, or the escape
    column hull + overhead_pad across and R + hull + overhead_clearance
    tall. Taken over the largest radius R, beyond their maximum a point
    adds nothing to any candidate's potential, cannot be the nearest point
    inside its own critical zone, and cannot block the column, so dropping
    the whole obstacle leaves every decision bit-identical. The radius is
    one constant for all obstacles because the critical-zone test judges
    only the nearest point: a small obstacle's point outside its own zone
    can still mask a large obstacle's zone, so it must stay whenever the
    large one could matter. The final 1 m absorbs rounding.
    """
    spec, cfg = scenario.glider, scenario.escape
    r_max = max((ob.radius for ob in obstacles), default=0.0)
    hull = spec.body_radius
    reach = max(spec.speed_down, spec.speed_up) * scenario.dt
    return max(2.0 * (r_max + hull) + reach,
               r_max + hull + cfg.cz_margin,
               hull + cfg.overhead_pad + r_max + hull
               + cfg.overhead_clearance) + 1.0


def run_scenario(scenario: Scenario, *, mode: str | None = None,
                 seed: int | None = None, max_steps: int | None = None) -> RunResult:
    """Simulate one scenario to termination.

    Keyword overrides exist for the CLI and sweeps; they default to the
    scenario's own fields. Termination: goal within arrival radius,
    collision, trapped (no escape direction left), or the step budget.
    """
    mode = scenario.mode if mode is None else mode
    if mode not in MODES:
        raise ValueError(f"unknown planner mode: {mode!r}")
    seed = scenario.seed if seed is None else seed
    max_steps = scenario.max_steps if max_steps is None else max_steps
    dt = scenario.dt
    cfg_escape = scenario.escape
    spec = scenario.glider
    goal = scenario.goal
    arrival = scenario.sawtooth.arrival_radius

    plan = saw.plan_sawtooth(scenario.start, goal, scenario.sawtooth)
    psi0, _ = saw.segment_angles(scenario.start, plan.active_waypoint)
    glider = GliderState(scenario.start, Attitude(psi0, 0.0), 0.0, "follow")
    obstacles = materialize_obstacles(scenario, seed)
    world = WorldState(glider, obstacles, scenario.flow, scenario.bounds,
                       spec.body_radius)
    cull = cull_radius(scenario, obstacles)
    est = esc.EscapeState()

    rows: list[TrajectorySample] = []
    events: list[tuple[float, str]] = []
    replans = 0
    escapes = 0
    min_clear = glider_clearance(world.obstacles, glider.position, world.body_radius)
    status = STATUS_MAX_STEPS
    detected: set[int] = set()  # an obstacle stays tracked once seen

    for _ in range(max_steps):
        g = world.glider
        if g.position.dist(goal) <= arrival:
            status = STATUS_REACHED
            break

        detected.update(visible_obstacles(world, scenario.sonar))
        near = [i for i in sorted(detected)
                if surface_distance(world.obstacles[i], g.position) <= cull]
        points = surface_points(world, near, scenario.sonar)
        flow_here = flow_velocity(world.flow, g.position)
        in_cz = esc.obstacles_in_critical_zone(points, g.position,
                                               world.body_radius, cfg_escape)

        escaping = est.mode != "inactive"
        if escaping and not in_cz:
            # obstacle group cleared the critical zone: maneuver over,
            # replan from wherever the escape left us
            est = esc.end_escape(est)
            events.append((world.time, "escape_end"))
            plan = saw.replan_from(g.position, goal, scenario.sawtooth)
            replans += 1
            events.append((world.time, "replan"))
            escaping = False

        if not escaping:
            trigger = esc.detect_local_minimum(est.progress_history, in_cz,
                                               cfg_escape)
            cmd = None
            if not trigger:
                surface = build_sample_surface(g, spec, dt)
                try:
                    cmd = select_goto(surface, plan.active_waypoint, points,
                                      flow_here, scenario.potentials, mode,
                                      spec.max_depth)
                except NoFeasibleWaypoint:
                    trigger = True
            if trigger:
                try:
                    direction = esc.choose_direction(g.position, points,
                                                     cfg_escape,
                                                     world.body_radius,
                                                     spec.max_depth)
                except TrappedError:
                    status = STATUS_TRAPPED
                    events.append((world.time, "trapped"))
                    break
                est = esc.start_escape(g, direction, cfg_escape, est)
                escapes += 1
                events.append((world.time, f"escape_start:{direction}"))
                escaping = True

        if escaping:
            try:
                new_glider, est = esc.escape_step(est, g, cfg_escape,
                                                  flow_here, spec.max_depth, dt)
            except TrappedError:
                status = STATUS_TRAPPED
                events.append((world.time, "trapped"))
                break
            rows.append(TrajectorySample(world.time, g.position,
                                         g.attitude.psi, g.attitude.theta,
                                         "escape", math.nan))
            world = advance_world(world, new_glider, dt)
            min_clear = min(min_clear, world.clearance)
            if world.collision:
                status = STATUS_COLLISION
                break
            continue

        # planner step
        rows.append(TrajectorySample(world.time, g.position, g.attitude.psi,
                                     g.attitude.theta, "follow", cmd.potential))
        before = g.position.dist(plan.active_waypoint)
        world = step_kinematics(world, cmd, dt)
        pos = world.glider.position
        min_clear = min(min_clear, world.clearance)
        est = esc.record_progress(est, before - pos.dist(plan.active_waypoint),
                                  cfg_escape)
        if world.collision:
            status = STATUS_COLLISION
            break

        # waypoint bookkeeping; every leg change resets the stall window
        while True:
            nxt = saw.advance(plan, pos)
            if nxt is plan:
                break
            plan = nxt
            events.append((world.time, f"waypoint:{plan.active_index}"))
            est = esc.clear_progress(est)
        if plan.complete:
            continue  # reach test at the top of the next iteration decides
        a, b = saw.active_segment(plan)
        if saw.cross_track_distance(pos, a, b) > scenario.sawtooth.replan_cross_track:
            plan = saw.replan_from(pos, goal, scenario.sawtooth)
            replans += 1
            events.append((world.time, "replan"))
            est = esc.clear_progress(est)

    g = world.glider
    rows.append(TrajectorySample(world.time, g.position, g.attitude.psi,
                                 g.attitude.theta, g.mode, math.nan))
    steps = len(rows) - 1
    return RunResult(status=status,
                     reached=status == STATUS_REACHED,
                     time_cost=steps * dt,
                     drift=g.position.dist(goal),
                     min_clearance=min_clear,
                     collision=status == STATUS_COLLISION,
                     replans=replans,
                     escapes=escapes,
                     seed=seed,
                     trajectory=rows,
                     events=events,
                     obstacles=obstacles)


def compare_modes(scenario: Scenario, *, seed: int | None = None,
                  max_steps: int | None = None) -> CompareResult:
    """Run baseline and advanced over the identical seeded world."""
    base = run_scenario(scenario, mode="baseline", seed=seed, max_steps=max_steps)
    adv = run_scenario(scenario, mode="advanced", seed=seed, max_steps=max_steps)
    return CompareResult(base, adv,
                         d_time_cost=adv.time_cost - base.time_cost,
                         d_drift=adv.drift - base.drift)


def summary_dict(result: RunResult, scenario: Scenario) -> dict:
    d = {k: getattr(result, k) for k in SCALAR_FIELDS}
    d["scenario_hash"] = scenario_hash(scenario)
    d["generator"] = RNG_NAME
    return d


def emit_outputs(result: RunResult, scenario: Scenario, out_dir) -> dict[str, Path]:
    """Write trajectory.csv, summary.yaml, and the two SVG views.

    Obstacles are drawn at their initial (materialized) positions. All four
    files are byte-deterministic functions of the run result.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trajectory": out / "trajectory.csv",
        "summary": out / "summary.yaml",
        "top_view": out / "top_view.svg",
        "profile_view": out / "profile_view.svg",
    }

    lines = ["t,x,y,z,psi_deg,theta_deg,mode,u_min"]
    for s in result.trajectory:
        lines.append(f"{s.t:.6f},{s.position.x:.6f},{s.position.y:.6f},"
                     f"{s.position.z:.6f},{math.degrees(s.psi):.6f},"
                     f"{math.degrees(s.theta):.6f},{s.mode},{s.u_min:.6f}")
    paths["trajectory"].write_text("\n".join(lines) + "\n")

    paths["summary"].write_text(yaml.safe_dump(summary_dict(result, scenario),
                                               sort_keys=True))

    paths["top_view"].write_text(top_view_svg(result.trajectory,
                                              result.obstacles,
                                              scenario.bounds, scenario.start,
                                              scenario.goal))
    paths["profile_view"].write_text(profile_view_svg(result.trajectory,
                                                      result.obstacles,
                                                      scenario.bounds))
    return paths
