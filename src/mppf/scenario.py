"""Scenario files: schema, defaults, validation, and materialization.

A scenario is a YAML mapping with a ``schema_version`` and nested sections
mirroring the planner/environment configuration types. Every field except
``start`` and ``goal`` has the survey defaults built in, so a minimal file
is three lines. ``GROUPS`` states every field of the parameter groups once,
with its range and kind; angles are degrees in files, radians in memory.
Every number must be finite.

Random obstacle fields are generated with ``random.Random`` (the portable
Mersenne Twister), so a (scenario, seed) pair materializes identically on
every platform; the generator name is recorded in run summaries.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections.abc import Container
from dataclasses import dataclass, fields, replace
from pathlib import Path

import yaml

from mppf.environment import (
    CYLINDER,
    SPHERE,
    Bounds,
    Obstacle,
    SonarModel,
    VortexFlow,
)
from mppf.errors import ScenarioError
from mppf.escape import EscapeConfig
from mppf.geometry import ZERO, GliderSpec, Vec3
from mppf.potentials import MODES, PotentialParams
from mppf.sawtooth import SawtoothParams

SCHEMA_VERSION = 1
RNG_NAME = "python-random-mt19937"


@dataclass(frozen=True)
class RandomObstacles:
    """Seeded generation block: ``count`` spheres, uniform in the ranges."""

    count: int
    radius_range: tuple[float, float]
    speed_range: tuple[float, float] = (0.0, 0.0)
    depth_range: tuple[float, float] | None = None
    keepout: float = 8.0  # clear water kept around start and goal
    seed: int | None = None  # defaults to the run seed


@dataclass(frozen=True)
class Scenario:
    name: str
    start: Vec3
    goal: Vec3
    mode: str = "advanced"
    seed: int = 0
    dt: float = 1.0
    max_steps: int = 3000
    glider: GliderSpec = GliderSpec()
    sawtooth: SawtoothParams = SawtoothParams()
    potentials: PotentialParams = PotentialParams()
    escape: EscapeConfig = EscapeConfig()
    sonar: SonarModel = SonarModel()
    bounds: Bounds = Bounds()
    flow: VortexFlow | None = None
    obstacles: tuple[Obstacle, ...] = ()
    random_obstacles: RandomObstacles | None = None


_TOP_KEYS = {"schema_version"} | {f.name for f in fields(Scenario)}

NUM, INT, DEG, BOOL = "num", "int", "deg", "bool"

# The parameter groups, one row per field: file key -> (dataclass field,
# lowest, highest, kind). DEG fields are degrees in files and radians in
# memory. Defaults are the dataclass defaults, except the few that _build
# takes from other groups.
GROUPS = {
    "bounds": {
        "x": ("x", 1.0, None, NUM),  # m
        "y": ("y", 1.0, None, NUM),  # m
        "depth": ("depth", 1.0, None, NUM),  # m
    },
    "glider": {
        "max_heading_step_deg": ("max_heading_step", 1.0, 180.0, DEG),
        "max_glide_deg": ("max_glide_angle", 1.0, 89.0, DEG),
        "speed_down": ("speed_down", 1e-6, None, NUM),  # m/s
        "speed_up": ("speed_up", 1e-6, None, NUM),  # m/s
        "body_radius": ("body_radius", 1e-6, None, NUM),  # m
        "max_depth": ("max_depth", 1e-6, None, NUM),  # m
    },
    "sawtooth": {
        "water_depth": ("water_depth", 1e-6, None, NUM),  # m
        "depth_margin": ("depth_margin", 0.0, None, NUM),  # m
        "literal_stride": ("literal_stride", None, None, BOOL),
        "arrival_radius": ("arrival_radius", 1e-6, None, NUM),  # m
        "replan_cross_track": ("replan_cross_track", 1e-6, None, NUM),  # m
    },
    "potentials": {
        "xi": ("xi", 1e-12, None, NUM),
        "eta": ("eta", 0.0, None, NUM),
        "tau": ("tau", 0.0, None, NUM),
        "kappa": ("kappa", 0.0, None, NUM),
        "flow_align_deg": ("flow_align_max", 1.0, 89.0, DEG),
    },
    "escape": {
        "vertical_speed": ("vertical_speed", 1e-6, None, NUM),  # m/s
        "window": ("window", 1, None, INT),  # steps
        "progress_epsilon": ("progress_epsilon", 1e-9, None, NUM),  # m
        "surface_margin": ("surface_margin", 0.0, None, NUM),  # m
        "decay_tau": ("decay_tau", 1e-6, None, NUM),  # s
        "cz_margin": ("cz_margin", 0.0, None, NUM),  # m
        "overhead_pad": ("overhead_pad", 0.0, None, NUM),  # m
        "overhead_clearance": ("overhead_clearance", 0.0, None, NUM),  # m
    },
    "sonar": {
        "range": ("range", 1e-6, None, NUM),  # m
        "horizontal_fov_deg": ("horizontal_fov", 1.0, 359.0, DEG),
        "vertical_fov_deg": ("vertical_fov", 1.0, 359.0, DEG),
    },
    "flow": {
        "amplitude": ("amplitude", 0.0, None, NUM),  # m/s
        "cell_size": ("cell_size", 1e-6, None, NUM),  # m
        "max_depth": ("max_depth", 1e-6, None, NUM),  # m
    },
}


class _Reader:
    """Collects problems instead of failing on the first bad field."""

    def __init__(self, data: dict):
        self.data = data
        self.problems: list[str] = []

    def section(self, key: str, allowed: Container[str]) -> dict:
        raw = self.data.get(key)
        if raw is None:
            return {}
        if not isinstance(raw, dict):
            self.problems.append(f"{key}: expected a mapping")
            return {}
        for k in raw:
            if k not in allowed:
                self.problems.append(f"{key}.{k}: unknown field")
        return raw

    def num(self, sec: dict, sec_name: str, key: str, default: float | None,
            lo: float | None = None, hi: float | None = None,
            integer: bool = False) -> float | None:
        v = sec.get(key, default)
        if not _is_number(v):
            self.problems.append(f"{sec_name}.{key}: expected a number")
            return default
        if not _finite(v):
            self.problems.append(f"{sec_name}.{key}: expected a finite number")
            return default
        if integer and int(v) != v:
            self.problems.append(f"{sec_name}.{key}: expected an integer")
            return default
        if lo is not None and v < lo:
            self.problems.append(f"{sec_name}.{key}: must be >= {lo}")
            return default
        if hi is not None and v > hi:
            self.problems.append(f"{sec_name}.{key}: must be <= {hi}")
            return default
        return int(v) if integer else float(v)

    def vec(self, container: dict, name: str, key: str,
            dims: int = 3) -> Vec3 | None:
        v = container.get(key)
        if v is None:
            self.problems.append(f"{name}: missing")
            return None
        if (not isinstance(v, (list, tuple)) or len(v) not in (dims, 3)
                or not all(map(_is_number, v))):
            self.problems.append(f"{name}: expected a list of {dims} numbers")
            return None
        if not all(map(_finite, v)):
            self.problems.append(f"{name}: expected finite numbers")
            return None
        vals = [float(c) for c in v] + [0.0] * (3 - len(v))
        return Vec3(*vals)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v: float) -> bool:
    """False for NaN, the infinities and integers beyond the float range."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _read_group(r: _Reader, key: str, default):
    """Parameter group ``key`` from the file over the fields of ``default``.

    Only fields present in the file are read and converted, so an absent
    angle keeps its radian default exactly.
    """
    sec = r.section(key, GROUPS[key])
    values = {}
    for fkey, (field, lo, hi, kind) in GROUPS[key].items():
        if fkey not in sec:
            continue
        if kind == BOOL:
            if isinstance(sec[fkey], bool):
                values[field] = sec[fkey]
            else:
                r.problems.append(f"{key}.{fkey}: expected true/false")
            continue
        v = r.num(sec, key, fkey, None, lo, hi, integer=kind == INT)
        if v is not None:
            values[field] = math.radians(v) if kind == DEG else v
    return replace(default, **values)


def _dump_group(key: str, group) -> dict:
    out = {}
    for fkey, (field, _, _, kind) in GROUPS[key].items():
        v = getattr(group, field)
        out[fkey] = math.degrees(v) if kind == DEG else v
    return out


def _read_obstacle(reader: _Reader, idx: int, raw, bounds: Bounds) -> Obstacle | None:
    name = f"obstacles[{idx}]"
    if not isinstance(raw, dict):
        reader.problems.append(f"{name}: expected a mapping")
        return None
    for k in raw:
        if k not in {"shape", "radius", "center", "velocity"}:
            reader.problems.append(f"{name}.{k}: unknown field")
    shape = raw.get("shape", SPHERE)
    if shape not in (SPHERE, CYLINDER):
        reader.problems.append(f"{name}.shape: must be sphere or cylinder")
        return None
    radius = reader.num(raw, name, "radius", 0.0, lo=0.0)
    if radius <= 0.0:
        reader.problems.append(f"{name}.radius: must be positive")
        return None
    center = reader.vec(raw, f"{name}.center", "center",
                        dims=2 if shape == CYLINDER else 3)
    if center is None:
        return None
    vel = ZERO
    if "velocity" in raw:
        vel = reader.vec(raw, f"{name}.velocity", "velocity") or ZERO
    if shape == CYLINDER and vel != ZERO:
        reader.problems.append(f"{name}.velocity: cylinders are static")
        vel = ZERO
    if not (0.0 <= center.x <= bounds.x and 0.0 <= center.y <= bounds.y):
        reader.problems.append(f"{name}.center: outside the domain bounds")
    return Obstacle(shape, radius, center, vel)


def scenario_from_dict(data: dict, name: str = "scenario",
                       require_version: bool = False) -> Scenario:
    return _build(data, name, require_version)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises
    ------
    ScenarioError
        Listing every offending field.
    """
    p = Path(path)
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as e:
        raise ScenarioError([f"{p}: not parseable as YAML ({e})"]) from e
    if not isinstance(raw, dict):
        raise ScenarioError([f"{p}: expected a mapping at the top level"])
    return _build(raw, raw.get("name", p.stem), require_version=True)


def _build(data, default_name: str, require_version: bool) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(["scenario: expected a mapping"])
    r = _Reader(data)

    version = data.get("schema_version")
    if version is None:
        if require_version:
            r.problems.append("schema_version: missing (expected 1)")
    elif version != SCHEMA_VERSION:
        r.problems.append(f"schema_version: unsupported value {version!r}")

    for k in data:
        if k not in _TOP_KEYS:
            r.problems.append(f"{k}: unknown field")

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        r.problems.append("name: expected a non-empty string")
        name = default_name

    mode = data.get("mode", "advanced")
    if mode not in MODES:
        r.problems.append(f"mode: must be one of {'/'.join(MODES)}")
        mode = "advanced"

    seed = r.num(data, "scenario", "seed", 0, integer=True)
    dt = r.num(data, "scenario", "dt", 1.0)
    if dt <= 0.0:
        r.problems.append("dt: must be positive")
        dt = 1.0
    max_steps = r.num(data, "scenario", "max_steps", 3000, integer=True)
    if max_steps <= 0:
        r.problems.append("max_steps: must be positive")
        max_steps = 3000

    bounds = _read_group(r, "bounds", Bounds())
    glider = _read_group(r, "glider", GliderSpec())
    sawtooth = _read_group(r, "sawtooth", SawtoothParams(
        max_depth=glider.max_depth, water_depth=bounds.depth,
        max_glide_angle=glider.max_glide_angle))
    if sawtooth.depth_margin >= sawtooth.water_depth:
        r.problems.append("sawtooth.depth_margin: must be below water_depth")
    potentials = _read_group(r, "potentials", PotentialParams())
    escape = _read_group(r, "escape", EscapeConfig())
    sonar = _read_group(r, "sonar", SonarModel())
    flow = _read_group(r, "flow", VortexFlow(max_depth=bounds.depth))
    if not data.get("flow"):
        flow = None  # the water is still unless the file describes a flow

    start = r.vec(data, "start", "start")
    goal = r.vec(data, "goal", "goal")
    for label, v in (("start", start), ("goal", goal)):
        if v is None:
            continue
        if not (0.0 <= v.x <= bounds.x and 0.0 <= v.y <= bounds.y
                and 0.0 <= v.z <= bounds.depth):
            r.problems.append(f"{label}: outside the domain bounds")
        elif v.z > glider.max_depth:
            r.problems.append(f"{label}: deeper than the vehicle can go")

    obstacles = []
    raw_obs = data.get("obstacles", [])
    if not isinstance(raw_obs, list):
        r.problems.append("obstacles: expected a list")
        raw_obs = []
    for i, raw in enumerate(raw_obs):
        ob = _read_obstacle(r, i, raw, bounds)
        if ob is not None:
            obstacles.append(ob)

    rand = None
    rb = r.section("random_obstacles", {"count", "radius", "speed", "depth",
                                        "keepout", "seed"})
    if rb:
        count = r.num(rb, "random_obstacles", "count", 0, lo=0, integer=True)
        radius = _read_range(r, rb, "random_obstacles.radius", "radius",
                             (0.5, 7.0), lo=1e-6)
        speed = _read_range(r, rb, "random_obstacles.speed", "speed",
                            (0.0, 0.0), lo=0.0)
        depth = None
        if rb.get("depth") is not None:
            depth = _read_range(r, rb, "random_obstacles.depth", "depth",
                                (0.0, bounds.depth), lo=0.0)
            if depth is not None and depth[1] > bounds.depth:
                r.problems.append("random_obstacles.depth: exceeds the domain depth")
        rsd = rb.get("seed")
        if rsd is not None and (isinstance(rsd, bool) or not isinstance(rsd, int)):
            r.problems.append("random_obstacles.seed: expected an integer")
            rsd = None
        if radius is not None and speed is not None:
            rand = RandomObstacles(count, radius, speed, depth,
                                   r.num(rb, "random_obstacles", "keepout",
                                         8.0, lo=0.0), rsd)

    if r.problems:
        raise ScenarioError(r.problems)
    return Scenario(name=name, start=start, goal=goal, mode=mode,
                    seed=int(seed), dt=dt, max_steps=int(max_steps),
                    glider=glider, sawtooth=sawtooth, potentials=potentials,
                    escape=escape, sonar=sonar, bounds=bounds, flow=flow,
                    obstacles=tuple(obstacles), random_obstacles=rand)


def _read_range(r: _Reader, sec: dict, name: str, key: str,
                default: tuple[float, float], lo: float) -> tuple[float, float] | None:
    v = sec.get(key, list(default))
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(map(_is_number, v))):
        r.problems.append(f"{name}: expected [low, high]")
        return None
    if not all(map(_finite, v)):
        r.problems.append(f"{name}: expected finite numbers")
        return None
    a, b = float(v[0]), float(v[1])
    if a < lo or b < a:
        r.problems.append(f"{name}: expected {lo} <= low <= high")
        return None
    return a, b


def materialize_obstacles(sc: Scenario, seed: int) -> tuple[Obstacle, ...]:
    """Explicit obstacles plus the seeded random field, if any.

    Each generated obstacle draws (radius, x, y, z, heading, speed) in that
    order; a draw landing within keepout of the start or goal is rejected
    and redrawn whole, keeping the stream stable.
    """
    obs = list(sc.obstacles)
    rb = sc.random_obstacles
    if rb is None or rb.count == 0:
        return tuple(obs)
    rng = random.Random(rb.seed if rb.seed is not None else seed)
    zlo, zhi = rb.depth_range if rb.depth_range else (0.0, sc.bounds.depth)
    for i in range(rb.count):
        for _ in range(1000):
            radius = rng.uniform(*rb.radius_range)
            x = rng.uniform(0.0, sc.bounds.x)
            y = rng.uniform(0.0, sc.bounds.y)
            z = rng.uniform(zlo, zhi)
            heading = rng.uniform(0.0, math.tau)
            speed = rng.uniform(*rb.speed_range)
            center = Vec3(x, y, z)
            if (center.dist(sc.start) < radius + rb.keepout
                    or center.dist(sc.goal) < radius + rb.keepout):
                continue
            vel = (Vec3(speed * math.cos(heading), speed * math.sin(heading), 0.0)
                   if speed > 0.0 else ZERO)
            obs.append(Obstacle(SPHERE, radius, center, vel))
            break
        else:
            raise ScenarioError(
                [f"random_obstacles: no room for obstacle {i} outside the keepout zones"])
    return tuple(obs)


def scenario_to_dict(sc: Scenario) -> dict:
    """Fully resolved scenario as plain data (angles in degrees)."""
    d = {
        "schema_version": SCHEMA_VERSION,
        "name": sc.name,
        "mode": sc.mode,
        "seed": sc.seed,
        "dt": sc.dt,
        "max_steps": sc.max_steps,
        "start": [sc.start.x, sc.start.y, sc.start.z],
        "goal": [sc.goal.x, sc.goal.y, sc.goal.z],
        **{key: _dump_group(key, getattr(sc, key)) for key in GROUPS
           if getattr(sc, key) is not None},
        "obstacles": [
            {"shape": ob.shape, "radius": ob.radius,
             "center": [ob.center.x, ob.center.y, ob.center.z],
             "velocity": [ob.velocity.x, ob.velocity.y, ob.velocity.z]}
            for ob in sc.obstacles
        ],
    }
    if sc.random_obstacles is not None:
        rb = sc.random_obstacles
        d["random_obstacles"] = {
            "count": rb.count,
            "radius": list(rb.radius_range),
            "speed": list(rb.speed_range),
            "depth": list(rb.depth_range) if rb.depth_range else None,
            "keepout": rb.keepout,
            "seed": rb.seed,
        }
    return d


def scenario_hash(sc: Scenario) -> str:
    blob = json.dumps(scenario_to_dict(sc), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
