"""Simulation driver wiring planner, escape, and environment, plus outputs.

Each step of a run has four phases: sense the obstacles; decide on a
planner command or, when the vehicle is trapped or has no feasible
candidate, on a vertical escape step; move, where advance_world takes the
vehicle the escape step or step_kinematics computed and moves the rest of
the world; and after a planner step keep the books (progress, waypoints,
cross-track replans). Every random draw comes from one seeded generator at
materialization time and the arithmetic is pure IEEE doubles, so a
(scenario, seed) pair reproduces byte-identical output files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import yaml

from mppf import escape as esc
from mppf import sawtooth as saw
from mppf.environment import (
    Obstacle,
    SonarModel,
    WorldState,
    advance_world,
    flow_velocity,
    glider_clearance,
    obstacles_within,
    step_kinematics,
    surface_points,
    visible_obstacles,
)
from mppf.errors import NoFeasibleWaypoint, TrappedError
from mppf.geometry import Attitude, GliderState, Vec3, build_sample_surface
from mppf.potentials import MODES, ObstaclePoint, select_goto
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
    """Surface distance beyond which a tracked obstacle cannot matter to
    any reader of a step's samples. run_scenario culls the tracked
    obstacles to it, and each reader then samples only the culled ones it
    can need (_Samples).

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
    large one could matter, and the nearest-first search over the cull
    keeps it whenever it is the nearest. The final 1 m absorbs rounding.
    """
    spec, cfg = scenario.glider, scenario.escape
    r_max = max((ob.radius for ob in obstacles), default=0.0)
    hull = spec.body_radius
    reach = max(spec.speed_down, spec.speed_up) * scenario.dt
    return max(2.0 * (r_max + hull) + reach,
               esc.critical_zone_radius(r_max, hull, cfg),
               hull + cfg.overhead_pad + r_max + hull
               + cfg.overhead_clearance) + 1.0


def kernel_reaches(scenario: Scenario, obstacles: Sequence[Obstacle]) -> list[float]:
    """Per obstacle, the surface distance within which its points can reach
    the kernel: 2(r + hull) + step reach + 2 m.

    grid_potentials hands the kernel a point only within its influence
    radius 2(r + hull) + the fan's reach + 1 m of the vehicle; the fan
    reaches no farther than the step reach, and every sample point lies at
    least its obstacle's surface distance away. The other 1 m absorbs
    rounding, so sampling only these obstacles hands the kernel the same
    points, in the same order.
    """
    spec = scenario.glider
    reach = max(spec.speed_down, spec.speed_up) * scenario.dt
    return [2.0 * (ob.radius + spec.body_radius) + reach + 2.0
            for ob in obstacles]


class _Samples(dict):
    """One step's surface points, sampled for each reader as it asks.

    `near` maps each culled obstacle (obstacles_within at cull_radius) to
    its surface distance, in index order. Every sample point of an
    obstacle lies at least that distance from the vehicle, which bounds
    what each reader can need:

    - critical_zone: the nearest point decides, the first in index order
      among equals. Obstacles are visited by (surface distance, index)
      until the next one's surface distance exceeds the best point
      distance so far + 1 m: its points, and every later obstacle's, lie
      farther than the best, so they can neither beat it nor tie it.
    - kernel: the obstacles within their kernel reach (kernel_reaches),
      so grid_potentials hands the kernel the points it gets from all.
    - column: every culled obstacle, for the escape's start.

    Each reader gets its obstacles' points in index order. The 1 m margins
    absorb rounding, so every reader's answer is the one it gives over
    all culled points. The mapping holds each obstacle's points from its
    first read, so no obstacle is sampled twice in a step.
    """

    __slots__ = ("world", "sonar", "near")

    def __init__(self, world: WorldState, sonar: SonarModel,
                 near: dict[int, float]):
        self.world = world
        self.sonar = sonar
        self.near = near

    def __missing__(self, i: int) -> list[ObstaclePoint]:
        pts = self[i] = surface_points(self.world, (i,), self.sonar)
        return pts

    def critical_zone(self) -> list[ObstaclePoint]:
        near = self.near
        if len(near) == 1:
            (i,) = near
            return self[i]
        pos = self.world.glider.position
        order = sorted(near, key=near.__getitem__)  # stable: ties by index
        best = math.inf
        for k in range(1, len(order)):
            best = min(best, esc.nearest_point(self[order[k - 1]], pos)[0])
            if near[order[k]] > best + 1.0:
                del order[k:]
                break
        order.sort()
        return self.points(order)

    def kernel(self, reaches: Sequence[float]) -> list[ObstaclePoint]:
        out = []
        for i, d in self.near.items():
            if d <= reaches[i]:
                out += self[i]
        return out

    def column(self) -> list[ObstaclePoint]:
        return self.points(self.near)

    def points(self, indices) -> list[ObstaclePoint]:
        """The points of the obstacles `indices`, in that order."""
        out = []
        for i in indices:
            out += self[i]
        return out


def run_scenario(scenario: Scenario, *, mode: str | None = None,
                 seed: int | None = None, max_steps: int | None = None) -> RunResult:
    """Simulate one scenario to termination.

    Keyword overrides exist for the CLI and sweeps; they default to the
    scenario's own fields. Termination: goal within arrival radius,
    collision (before the first move when the hull starts touching an
    obstacle), trapped (no escape direction left), or the step budget.
    A negative seed raises ValueError (from materialize_obstacles).
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
    cull = cull_radius(scenario, obstacles)
    kernel_reach = kernel_reaches(scenario, obstacles)
    world = WorldState(glider, obstacles, scenario.flow, scenario.bounds,
                       spec.body_radius)
    est = esc.EscapeState()

    rows: list[TrajectorySample] = []
    events: list[tuple[float, str]] = []
    min_clear = glider_clearance(obstacles, world.index, glider.position,
                                 world.body_radius)
    status = STATUS_MAX_STEPS
    if min_clear <= 0.0:  # in contact at the start: no move is made
        status = STATUS_COLLISION
        max_steps = 0

    def replan(at: Vec3) -> saw.WaypointPlan:
        events.append((world.time, "replan"))
        return saw.replan_from(at, goal, scenario.sawtooth)

    for _ in range(max_steps):
        g = world.glider
        if g.position.dist(goal) <= arrival:
            status = STATUS_REACHED
            break

        # sense: a step that gets here calls visible_obstacles once, then one
        # move (step_kinematics or esc.escape_step) unless it ends trapped;
        # missionbench times each decision from the one call to the other
        seen = visible_obstacles(world, scenario.sonar)
        if seen:
            world = replace(world, tracked=world.tracked.union(seen))
        # each reader samples only the culled obstacles it can need; an
        # empty cull leaves every reader with no points and in_cz False
        near = obstacles_within(world, cull)
        samples = _Samples(world, scenario.sonar, near) if near else None
        flow_here = flow_velocity(world.flow, g.position)
        in_cz = samples is not None and esc.obstacles_in_critical_zone(
            samples.critical_zone(), g.position, world.body_radius, cfg_escape)

        # decide: a planner command, or None and the escape's next glider
        if est.mode != "inactive" and not in_cz:
            # the group left the critical zone: escape over, replan from here
            est = esc.end_escape(est)
            events.append((world.time, "escape_end"))
            plan = replan(g.position)
        cmd = None
        if est.mode == "inactive" and not esc.detect_local_minimum(
                est.progress_history, in_cz, cfg_escape):
            try:
                cmd = select_goto(build_sample_surface(g, spec, dt),
                                  plan.active_waypoint,
                                  samples.kernel(kernel_reach) if near else [],
                                  flow_here, scenario.potentials, mode,
                                  spec.max_depth)
            except NoFeasibleWaypoint:
                pass  # no candidate left: escape as from a stall
        if cmd is None:
            try:
                if est.mode == "inactive":
                    direction = esc.choose_direction(
                        g.position, samples.column() if near else [],
                        cfg_escape, world.body_radius, spec.max_depth)
                    est = esc.start_escape(g, direction, cfg_escape, est)
                    events.append((world.time, f"escape_start:{direction}"))
                escaped, est = esc.escape_step(est, g, cfg_escape, flow_here,
                                               spec.max_depth, dt)
            except TrappedError:
                status = STATUS_TRAPPED
                events.append((world.time, "trapped"))
                break

        # move: the row holds the state the step starts from
        kind, u_min = ("escape", math.nan) if cmd is None else ("follow", cmd.potential)
        rows.append(TrajectorySample(world.time, g.position, g.attitude.psi,
                                     g.attitude.theta, kind, u_min))
        world = advance_world(world, escaped if cmd is None else
                              step_kinematics(g, cmd, flow_here, dt), dt)
        min_clear = min(min_clear, world.clearance)
        if world.collision:
            status = STATUS_COLLISION
            break
        if cmd is None:
            continue

        # bookkeep a planner step; every leg change resets the stall window
        pos = world.glider.position
        wp = plan.active_waypoint
        est = esc.record_progress(est, g.position.dist(wp) - pos.dist(wp),
                                  cfg_escape)
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
            plan = replan(pos)
            est = esc.clear_progress(est)

    g = world.glider
    rows.append(TrajectorySample(world.time, g.position, g.attitude.psi,
                                 g.attitude.theta, g.mode, math.nan))
    steps = len(rows) - 1
    tags = [tag for _, tag in events]
    return RunResult(status=status,
                     reached=status == STATUS_REACHED,
                     time_cost=steps * dt,
                     drift=g.position.dist(goal),
                     min_clearance=min_clear,
                     collision=status == STATUS_COLLISION,
                     replans=tags.count("replan"),
                     escapes=sum(t.startswith("escape_start:") for t in tags),
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
