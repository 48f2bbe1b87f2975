"""Checks on mission outputs, computed apart from mppf.

Nothing here imports mppf. The potentials are recomputed from the paper's
formulas on plain tuples, and the output files are read back from disk and
compared against the scenario file as parsed here, never against a stored
copy of earlier output. Each check returns a list of problems; empty means
the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

OUTPUT_FILES = ("trajectory.csv", "summary.yaml", "top_view.svg",
                "profile_view.svg")

# relative tolerance for comparing a recomputed potential with the
# program's; the two sum the same terms in a different order
RTOL = 1e-9
# absolute tolerance for quantities read back from 6-decimal CSV columns
CSV_TOL = 1e-5


# ---------------------------------------------------------------- potentials

def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def candidate_velocity(psi: float, theta: float, speed: float):
    """Still-water velocity of a candidate; positive theta climbs (z down)."""
    return (speed * math.cos(theta) * math.cos(psi),
            speed * math.cos(theta) * math.sin(psi),
            -speed * math.sin(theta))


@dataclass(frozen=True)
class Gains:
    xi: float
    eta: float
    tau: float
    kappa: float
    align_max: float


def potential(pos, vel, goal, points, flow, gains: Gains, advanced: bool) -> float:
    """Total potential of one candidate.

    `points` holds (position, velocity, influence) tuples. Terms:
    attraction 0.5*xi*dg^2; per point inside its influence radius d_t,
    repulsion 0.5*eta*(1/d - 1/d_t)^2*dg^2 and, in advanced mode, the
    closing-velocity penalty 0.5*tau*max(0, v_rel . r_hat)/d; in advanced
    mode, the flow term 0.5*kappa*|f -/+ v|^2 when the candidate velocity is
    within align_max of the flow (-) or of pi/2 + align_max past it (+).
    A candidate on top of a sample point scores +inf.
    """
    dg2 = _dot(_sub(goal, pos), _sub(goal, pos))
    u = 0.5 * gains.xi * dg2
    for p, pv, d_t in points:
        r = _sub(p, pos)
        d = math.sqrt(_dot(r, r))
        if d == 0.0:
            return math.inf
        if d > d_t:
            continue
        u += 0.5 * gains.eta * (1.0 / d - 1.0 / d_t) ** 2 * dg2
        if advanced:
            closing = _dot(_sub(vel, pv), r) / d
            if closing >= 0.0:
                u += 0.5 * gains.tau * closing / d
    if advanced:
        fn = math.sqrt(_dot(flow, flow))
        vn = math.sqrt(_dot(vel, vel))
        if fn > 0.0 and vn > 0.0:
            gamma = math.acos(max(-1.0, min(1.0, _dot(flow, vel) / (fn * vn))))
            if gamma <= gains.align_max:
                m = _sub(flow, vel)
                u += 0.5 * gains.kappa * _dot(m, m)
            elif gamma >= 0.5 * math.pi + gains.align_max:
                s = (flow[0] + vel[0], flow[1] + vel[1], flow[2] + vel[2])
                u += 0.5 * gains.kappa * _dot(s, s)
    return u


def useful_pairs(candidates, points) -> int:
    """Candidate x point pairs that lie inside the point's influence radius."""
    n = 0
    for pos, _psi, _theta, _speed in candidates:
        for p, _pv, d_t in points:
            if math.dist(p, pos) <= d_t:
                n += 1
    return n


def check_decision(candidates, goal, points, flow, gains: Gains, advanced: bool,
                   max_depth: float, chosen, chosen_u: float) -> list[str]:
    """The chosen go-to is feasible and minimizes the recomputed potential.

    `candidates` holds (position, psi, theta, speed) tuples; `chosen` is the
    commanded target position and `chosen_u` the potential the program
    reported for it.
    """
    scores = []
    for pos, psi, theta, speed in candidates:
        if not 0.0 <= pos[2] <= max_depth:
            scores.append(math.inf)
            continue
        scores.append(potential(pos, candidate_velocity(psi, theta, speed),
                                goal, points, flow, gains, advanced))
    picked = [i for i, c in enumerate(candidates) if c[0] == chosen]
    if not picked:
        return [f"commanded target {chosen} is not a candidate"]
    u = scores[picked[0]]
    if math.isinf(u):
        return [f"commanded target {chosen} is infeasible"]
    best = min(scores)
    problems = []
    if u > best + RTOL * abs(best):
        problems.append(f"chose potential {u!r}, minimum is {best!r}")
    if abs(u - chosen_u) > RTOL * abs(u):
        problems.append(f"reported potential {chosen_u!r}, recomputed {u!r}")
    return problems


# ------------------------------------------------------------------- outputs

@dataclass(frozen=True)
class MissionSpec:
    """What the output checks need from a scenario file, read here with the
    schema's documented defaults."""

    goal: tuple[float, float, float]
    dt: float
    max_steps: int
    max_depth: float
    arrival_radius: float
    body_radius: float
    # (radius, center) of every obstacle when all are static spheres,
    # else None: clearance is then not recomputed
    static_spheres: tuple | None


def read_spec(path) -> MissionSpec:
    data = yaml.safe_load(Path(path).read_text())
    glider = data.get("glider") or {}
    obstacles = data.get("obstacles") or []
    static = None
    if "random_obstacles" not in data and all(
            o.get("shape", "sphere") == "sphere"
            and not any(o.get("velocity", [0, 0, 0])) for o in obstacles):
        static = tuple((float(o["radius"]), tuple(map(float, o["center"])))
                       for o in obstacles)
    return MissionSpec(
        goal=tuple(map(float, data["goal"])),
        dt=float(data.get("dt", 1.0)),
        max_steps=int(data.get("max_steps", 3000)),
        max_depth=float(glider.get("max_depth", 30.0)),
        arrival_radius=float((data.get("sawtooth") or {}).get("arrival_radius", 1.0)),
        body_radius=float(glider.get("body_radius", 0.6)),
        static_spheres=static)


def digests(out_dir) -> dict[str, str]:
    out = Path(out_dir)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES}


def output_bytes(out_dir) -> int:
    return sum((Path(out_dir) / name).stat().st_size for name in OUTPUT_FILES)


def check_outputs(out_dir, spec: MissionSpec) -> tuple[int, list[str]]:
    """Steps simulated, and the problems found in one mission's outputs.

    Depth stays within [0, max_depth]; time_cost, drift and the reached
    status agree with the trajectory; with static spheres, min_clearance and
    the collision status agree with a clearance recomputed from the rows.
    """
    out = Path(out_dir)
    with open(out / "trajectory.csv", newline="") as f:
        rows = [(float(r["t"]), float(r["x"]), float(r["y"]), float(r["z"]))
                for r in csv.DictReader(f)]
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    problems = []
    steps = len(rows) - 1
    if steps < 1:
        return steps, ["trajectory has no steps"]

    for t, x, y, z in rows:
        if not 0.0 <= z <= spec.max_depth:
            problems.append(f"depth {z} outside [0, {spec.max_depth}] at t={t}")
            break

    expected_time = steps * spec.dt
    if abs(summary["time_cost"] - expected_time) > CSV_TOL or \
            abs(rows[-1][0] - expected_time) > CSV_TOL:
        problems.append(f"time_cost {summary['time_cost']} but {steps} steps "
                        f"of {spec.dt} s")

    goal_dist = [math.dist(r[1:], spec.goal) for r in rows]
    if abs(summary["drift"] - goal_dist[-1]) > CSV_TOL:
        problems.append(f"drift {summary['drift']} but final row is "
                        f"{goal_dist[-1]} from the goal")
    # the loop tests arrival before every step, so no row but the last may
    # lie inside the arrival radius
    if any(d < spec.arrival_radius - CSV_TOL for d in goal_dist[:-1]):
        problems.append("trajectory entered the arrival radius before its end")
    status = summary["status"]
    if summary["reached"] != (status == "reached"):
        problems.append(f"reached={summary['reached']} with status {status}")
    if status == "reached" and goal_dist[-1] > spec.arrival_radius + CSV_TOL:
        problems.append("status reached but the final row is outside the "
                        "arrival radius")
    if status == "max_steps" and steps != spec.max_steps:
        problems.append(f"status max_steps after {steps} of {spec.max_steps} steps")
    if summary["collision"] != (status == "collision"):
        problems.append(f"collision={summary['collision']} with status {status}")

    if spec.static_spheres is not None:
        clear = [min((math.dist(r[1:], c) - rad - spec.body_radius
                      for rad, c in spec.static_spheres), default=math.inf)
                 for r in rows]
        mc = summary["min_clearance"]
        if math.isinf(min(clear)):
            if not math.isinf(mc):
                problems.append(f"min_clearance {mc} in open water")
        elif abs(mc - min(clear)) > CSV_TOL:
            problems.append(f"min_clearance {mc}, recomputed {min(clear)}")
        hit = any(c <= -CSV_TOL for c in clear)
        if status == "collision":
            if clear[-1] > CSV_TOL or any(c <= -CSV_TOL for c in clear[:-1]):
                problems.append("collision status but the recomputed clearance "
                                "does not first reach zero on the final row")
        elif hit:
            problems.append("recomputed clearance reaches zero without a "
                            "collision status")
    return steps, problems
