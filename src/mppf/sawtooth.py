"""Sawtooth waypoint pre-planning and plan tracking.

A glider crosses long horizontal distances by alternating dives and climbs.
Before a run, the straight line from start to end is expanded into a list
of waypoints realizing that profile; the potential-field planner then pulls
the vehicle from waypoint to waypoint. Three cases, dispatched on endpoint
depths and the usable water column:

1. Different depths: a single straight glide segment to the end point.
2. Same depth, water shallow enough for one tooth: a single dive to the
   midpoint at the usable depth, then a climb to the end point.
3. Same depth, water deeper than the vehicle may go: repeated full-depth
   teeth of fixed horizontal stride, finished by a shortened tooth whose
   glide angle stays at half the envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from mppf.geometry import Vec3

EQUAL_DEPTH_TOL = 1e-6  # endpoints within this count as the same depth


@dataclass(frozen=True, slots=True)
class SawtoothParams:
    """Pre-planning geometry.

    max_depth bounds the vehicle, water_depth bounds the survey area, and
    depth_margin keeps teeth that far above the usable depth. The stride
    of a full tooth is 2*max_depth/tan(max_glide_angle/2); literal_stride
    switches to the angle-ratio variant 2*max_depth/(max_glide_angle/2)
    kept for fidelity experiments against older planners.
    """

    max_depth: float = 30.0
    water_depth: float = 50.0
    depth_margin: float = 0.0
    max_glide_angle: float = math.radians(45.0)
    arrival_radius: float = 1.0
    replan_cross_track: float = 3.0
    literal_stride: bool = False


@dataclass(frozen=True, slots=True)
class WaypointPlan:
    """Ordered waypoints ending at the target, plus tracking state."""

    waypoints: tuple[Vec3, ...]
    origin: Vec3
    active_index: int = 0
    arrival_radius: float = 1.0

    @property
    def complete(self) -> bool:
        return self.active_index >= len(self.waypoints)

    @property
    def active_waypoint(self) -> Vec3:
        return self.waypoints[self.active_index]


def stride_length(params: SawtoothParams) -> float:
    """Horizontal length of one full tooth at the depth limit."""
    half = 0.5 * params.max_glide_angle
    if params.literal_stride:
        return 2.0 * params.max_depth / half
    return 2.0 * params.max_depth / math.tan(half)


def plan_sawtooth(start: Vec3, end: Vec3, params: SawtoothParams) -> WaypointPlan:
    """Expand the start-to-end line into a sawtooth waypoint list."""
    if abs(start.z - end.z) > EQUAL_DEPTH_TOL:
        # different depths: one straight glide
        return WaypointPlan((end,), start, 0, params.arrival_radius)

    horiz = start.hdist(end)
    if horiz < 1e-9:
        return WaypointPlan((end,), start, 0, params.arrival_radius)

    if params.water_depth <= params.max_depth:
        # single tooth touching the usable water depth
        depth = min(params.water_depth - params.depth_margin, params.max_depth)
        mid = Vec3(0.5 * (start.x + end.x), 0.5 * (start.y + end.y), depth)
        return WaypointPlan((mid, end), start, 0, params.arrival_radius)

    # full-depth teeth; ceil-1 keeps the final shortened tooth nonempty
    h = stride_length(params)
    strides = max(0, math.ceil(horiz / h) - 1)
    ux = (end.x - start.x) / horiz
    uy = (end.y - start.y) / horiz
    tooth_depth = min(params.max_depth, params.water_depth) - params.depth_margin

    pts: list[Vec3] = []
    prev = start
    for k in range(1, strides + 1):
        w = Vec3(start.x + ux * (k * h), start.y + uy * (k * h), start.z)
        pts.append(Vec3(0.5 * (prev.x + w.x), 0.5 * (prev.y + w.y), tooth_depth))
        pts.append(w)
        prev = w

    rem = prev.hdist(end)
    fdepth = end.z + math.tan(0.5 * params.max_glide_angle) * rem / 2.0
    fdepth = min(fdepth, params.max_depth)
    pts.append(Vec3(0.5 * (prev.x + end.x), 0.5 * (prev.y + end.y), fdepth))
    pts.append(end)
    return WaypointPlan(tuple(pts), start, 0, params.arrival_radius)


def replan_from(position: Vec3, end: Vec3, params: SawtoothParams) -> WaypointPlan:
    """Fresh plan from the vehicle's current position to the same end point."""
    return plan_sawtooth(position, end, params)


def advance(plan: WaypointPlan, position: Vec3) -> WaypointPlan:
    """Move to the next waypoint once the active one is reached.

    One increment per call; the caller loops if it wants to swallow
    several coincident arrivals in a single step.
    """
    if plan.complete:
        return plan
    if position.dist(plan.active_waypoint) <= plan.arrival_radius:
        return replace(plan, active_index=plan.active_index + 1)
    return plan


def active_segment(plan: WaypointPlan) -> tuple[Vec3, Vec3]:
    """Endpoints of the leg currently being tracked."""
    if plan.active_index == 0:
        return plan.origin, plan.waypoints[0]
    return plan.waypoints[plan.active_index - 1], plan.waypoints[plan.active_index]


def segment_angles(a: Vec3, b: Vec3) -> tuple[float, float]:
    """Heading and glide angle of the straight leg a -> b.

    Heading defaults to 0 for a purely vertical leg. The glide angle is
    positive climbing (depth decreasing), matching the vehicle convention.
    """
    h = a.hdist(b)
    psi = math.atan2(b.y - a.y, b.x - a.x) if h > 1e-12 else 0.0
    theta = math.atan2(a.z - b.z, h)
    return psi, theta


def cross_track_distance(position: Vec3, a: Vec3, b: Vec3) -> float:
    """Distance from a point to the segment a-b.

    Scalars, in the operation order of the Vec3 expression
    ``position.dist(a + ab * t)``, with ``ab = b - a`` and ``t`` the
    clamped ``(position - a).dot(ab) / ab.norm2()``: the same bits,
    without four Vec3 temporaries per call.
    """
    ax, ay, az = a.x, a.y, a.z
    abx, aby, abz = b.x - ax, b.y - ay, b.z - az
    denom = abx * abx + aby * aby + abz * abz
    if denom == 0.0:
        return position.dist(a)
    px, py, pz = position.x, position.y, position.z
    t = ((px - ax) * abx + (py - ay) * aby + (pz - az) * abz) / denom
    t = min(1.0, max(0.0, t))  # an if chain would let a nan t through
    dx = px - (ax + abx * t)
    dy = py - (ay + aby * t)
    dz = pz - (az + abz * t)
    return math.sqrt(dx * dx + dy * dy + dz * dz)
