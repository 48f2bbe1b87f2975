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
import sys
from collections.abc import Container
from dataclasses import dataclass, fields, replace
from pathlib import Path

import yaml
from yaml.composer import Composer

from mppf.environment import (
    CYLINDER,
    SPHERE,
    Bounds,
    Obstacle,
    SonarModel,
    VortexFlow,
    surface_distance,
)
from mppf.errors import ScenarioError
from mppf.escape import EscapeConfig
from mppf.geometry import ZERO, GliderSpec, Vec3
from mppf.potentials import MODES, PotentialParams
from mppf.sawtooth import SawtoothParams

SCHEMA_VERSION = 1
RNG_NAME = "python-random-mt19937"


class _PureLoader(yaml.SafeLoader):
    """PyYAML's pure loader, which stops a deep flow nesting in its scanner.

    The scanner reads ahead through every ``[`` or ``{`` that may start a
    simple key, re-checking each open one per token, so the pure
    SafeLoader spends time quadratic in the depth before its composer
    raises RecursionError. The composer takes two frames per level, so no
    nesting deeper than half the recursion limit can compose: refusing it
    in the scanner changes no answer, and the load fails at once with the
    composer's own error.
    """

    def fetch_flow_collection_start(self, TokenClass):
        if self.flow_level >= sys.getrecursionlimit() // 2:
            raise RecursionError("flow collections nested too deeply")
        super().fetch_flow_collection_start(TokenClass)


if yaml.__with_libyaml__:
    class _Loader(Composer, yaml.CSafeLoader):
        """libyaml's C scanner and parser under PyYAML's Python composer.

        libyaml's own composer recurses in C, so a deeply nested document
        overflows the C stack and kills the process; the Python composer
        raises RecursionError instead, a few levels deeper than under
        _PureLoader, whose parser's frames sit above the composer's.
        """

        def __init__(self, stream):
            yaml.CSafeLoader.__init__(self, stream)
            Composer.__init__(self)
else:
    _Loader = _PureLoader


@dataclass(frozen=True)
class RandomObstacles:
    """Seeded generation block: ``count`` spheres, uniform in the ranges."""

    count: int = 0
    radius_range: tuple[float, float] = (0.5, 7.0)
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

    def __post_init__(self):
        # step_kinematics divides by dt
        if not 0.0 < self.dt < math.inf:
            raise ValueError("scenario dt must be finite and positive")


_TOP_KEYS = {"schema_version"} | {f.name for f in fields(Scenario)}

NUM, INT, DEG, BOOL, RANGE = "num", "int", "deg", "bool", "range"

# The parameter groups, one row per field: file key -> (dataclass field,
# lowest, highest, kind). DEG fields are degrees in files and radians in
# memory; a RANGE is [low, high], lowest <= low <= high. Defaults are the
# dataclass defaults, except the few taken from other groups.
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
        # elevation spans +-90 deg; past 180 the pillar sampling band's
        # tan(fov / 2) turns negative and the band would shrink
        "vertical_fov_deg": ("vertical_fov", 1.0, 180.0, DEG),
    },
    "flow": {
        "amplitude": ("amplitude", 0.0, None, NUM),  # m/s
        "cell_size": ("cell_size", 1e-6, None, NUM),  # m
        "max_depth": ("max_depth", 1e-6, None, NUM),  # m
    },
    "random_obstacles": {
        "count": ("count", 0, 10_000, INT),  # placed one by one
        "radius": ("radius_range", 1e-6, None, RANGE),  # m
        "speed": ("speed_range", 0.0, None, RANGE),  # m/s
        "depth": ("depth_range", 0.0, None, RANGE),  # m
        "seed": ("seed", 0, None, INT),  # Random(-n) seeds like Random(n)
        "keepout": ("keepout", 0.0, None, NUM),  # m
    },
}


# The readers below append to `problems` and carry on, so that one pass
# lists every offending field rather than the first.
def _section(problems: list[str], data: dict, key: str,
             allowed: Container[str]) -> dict:
    raw = data.get(key)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        problems.append(f"{key}: expected a mapping")
        return {}
    for k in raw:
        if k not in allowed:
            problems.append(f"{key}.{k}: unknown field")
    return raw


def _number(problems: list[str], sec: dict, sec_name: str, key: str,
            default: float | None, lo: float | None = None,
            hi: float | None = None, integer: bool = False) -> float | None:
    v = sec.get(key, default)
    if not _is_number(v):
        problems.append(f"{sec_name}.{key}: expected a number")
        return default
    if not _finite(v):
        problems.append(f"{sec_name}.{key}: expected a finite number")
        return default
    if integer and int(v) != v:
        problems.append(f"{sec_name}.{key}: expected an integer")
        return default
    if lo is not None and v < lo:
        problems.append(f"{sec_name}.{key}: must be >= {lo}")
        return default
    if hi is not None and v > hi:
        problems.append(f"{sec_name}.{key}: must be <= {hi}")
        return default
    return int(v) if integer else float(v)


def _numbers(problems: list[str], name: str, v, sizes: Container[int],
             expected: str) -> tuple[float, ...] | None:
    """``v`` as floats when it is a list of finite numbers whose length is
    in ``sizes``; otherwise lists one problem and returns None."""
    if (not isinstance(v, (list, tuple)) or len(v) not in sizes
            or not all(map(_is_number, v))):
        problems.append(f"{name}: expected {expected}")
        return None
    if not all(map(_finite, v)):
        problems.append(f"{name}: expected finite numbers")
        return None
    return tuple(map(float, v))


def _vector(problems: list[str], data: dict, name: str, key: str,
            dims: int = 3) -> Vec3 | None:
    """A point of ``dims`` or 3 coordinates; a missing z is 0."""
    v = data.get(key)
    if v is None:
        problems.append(f"{name}: missing")
        return None
    xyz = _numbers(problems, name, v, (dims, 3), f"a list of {dims} numbers")
    return None if xyz is None else Vec3(*xyz, *(0.0,) * (3 - len(xyz)))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v: float) -> bool:
    """False for NaN, the infinities and integers beyond the float range."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _read_group(problems: list[str], data: dict, key: str, default):
    """Parameter group ``key`` from the file over the fields of ``default``.

    Only fields present in the file are read and converted, so an absent
    angle keeps its radian default exactly. A ``null`` keeps the default
    only where that default is itself ``None``.
    """
    sec = _section(problems, data, key, GROUPS[key])
    values = {}
    for fkey, (field, lo, hi, kind) in GROUPS[key].items():
        v = sec.get(fkey)
        if v is None and (fkey not in sec or getattr(default, field) is None):
            continue
        if kind == BOOL:
            if isinstance(v, bool):
                values[field] = v
            else:
                problems.append(f"{key}.{fkey}: expected true/false")
            continue
        if kind == RANGE:
            v = _numbers(problems, f"{key}.{fkey}", v, (2,), "[low, high]")
            if v is not None and not lo <= v[0] <= v[1]:
                problems.append(f"{key}.{fkey}: expected {lo} <= low <= high")
                v = None
        else:
            v = _number(problems, sec, key, fkey, None, lo, hi,
                        integer=kind == INT)
        if v is not None:
            values[field] = math.radians(v) if kind == DEG else v
    return replace(default, **values)


def _dump_group(key: str, group) -> dict:
    out = {}
    for fkey, (field, _, _, kind) in GROUPS[key].items():
        v = getattr(group, field)
        out[fkey] = (math.degrees(v) if kind == DEG
                     else list(v) if kind == RANGE and v is not None else v)
    return out


def _read_obstacle(problems: list[str], idx: int, raw, bounds: Bounds,
                   dt: float) -> Obstacle | None:
    name = f"obstacles[{idx}]"
    if not isinstance(raw, dict):
        problems.append(f"{name}: expected a mapping")
        return None
    for k in raw:
        if k not in {"shape", "radius", "center", "velocity"}:
            problems.append(f"{name}.{k}: unknown field")
    shape = raw.get("shape", SPHERE)
    if shape not in (SPHERE, CYLINDER):
        problems.append(f"{name}.shape: must be sphere or cylinder")
        return None
    radius = _number(problems, raw, name, "radius", None)  # None: a problem is listed
    if radius is None or radius <= 0.0:
        if radius is not None:
            problems.append(f"{name}.radius: must be positive")
        return None
    center = _vector(problems, raw, f"{name}.center", "center",
                     dims=2 if shape == CYLINDER else 3)
    if center is None:
        return None
    vel = ZERO
    if "velocity" in raw:
        vel = _vector(problems, raw, f"{name}.velocity", "velocity") or ZERO
    if shape == CYLINDER and vel != ZERO:
        problems.append(f"{name}.velocity: cylinders are static")
        vel = ZERO
    # a drift within the extent of each axis needs one reflection at most
    if (abs(vel.x) * dt > bounds.x or abs(vel.y) * dt > bounds.y
            or abs(vel.z) * dt > bounds.depth):
        problems.append(f"{name}.velocity: drifts farther than the domain"
                        " in one step")
    # a cylinder spans the whole water column, so its z is never read
    if not (0.0 <= center.x <= bounds.x and 0.0 <= center.y <= bounds.y
            and (shape == CYLINDER or 0.0 <= center.z <= bounds.depth)):
        problems.append(f"{name}.center: outside the domain bounds")
    return Obstacle(shape, radius, center, vel)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises
    ------
    ScenarioError
        Listing every offending field.
    """
    p = Path(path)
    try:
        raw = yaml.load(p.read_bytes(), Loader=_Loader)
    except yaml.YAMLError as e:
        why = " ".join(str(e).split())  # one problem, one line
        raise ScenarioError([f"{p}: not parseable as YAML ({why})"]) from e
    except RecursionError as e:
        raise ScenarioError(
            [f"{p}: not parseable as YAML (nested too deeply)"]) from e
    if not isinstance(raw, dict):
        raise ScenarioError([f"{p}: expected a mapping at the top level"])
    return scenario_from_dict(raw, p.stem, require_version=True)


def scenario_from_dict(data: dict, name: str = "scenario",
                       require_version: bool = False) -> Scenario:
    """Validate parsed data, named ``name`` unless it names itself; raises
    ScenarioError listing every offending field."""
    if not isinstance(data, dict):
        raise ScenarioError(["scenario: expected a mapping"])
    problems: list[str] = []

    version = data.get("schema_version")
    if version is None:
        if require_version:
            problems.append("schema_version: missing (expected 1)")
    elif isinstance(version, (list, dict)):
        # aliases can make its text exponentially longer than the file
        problems.append(
            f"schema_version: unsupported {type(version).__name__} value")
    elif isinstance(version, bool) or version != SCHEMA_VERSION:
        problems.append(f"schema_version: unsupported value {version!r}")

    for k in data:
        if k not in _TOP_KEYS:
            problems.append(f"{k}: unknown field")

    title = data.get("name", name)
    if not isinstance(title, str) or not title:
        problems.append("name: expected a non-empty string")
        title = name
    elif "\0" in title:  # the default output directory is named after it
        problems.append("name: must not contain a NUL character")
        title = name
    elif "/" in title or "\\" in title:  # nor may it leave runs/
        problems.append("name: must not contain a path separator")
        title = name

    mode = data.get("mode", "advanced")
    if mode not in MODES:
        problems.append(f"mode: must be one of {'/'.join(MODES)}")
        mode = "advanced"

    # random.Random(-n) seeds like Random(n), so a negative seed is refused
    seed = _number(problems, data, "scenario", "seed", 0, lo=0, integer=True)
    dt = _number(problems, data, "scenario", "dt", 1.0)
    if dt <= 0.0:
        problems.append("dt: must be positive")
        dt = 1.0
    max_steps = _number(problems, data, "scenario", "max_steps", 3000, integer=True)
    if max_steps <= 0:
        problems.append("max_steps: must be positive")
        max_steps = 3000

    bounds = _read_group(problems, data, "bounds", Bounds())
    glider = _read_group(problems, data, "glider", GliderSpec())
    if glider.max_depth > bounds.depth:
        problems.append("glider.max_depth: deeper than the domain")
    sawtooth = _read_group(problems, data, "sawtooth", SawtoothParams(
        max_depth=glider.max_depth, water_depth=bounds.depth,
        max_glide_angle=glider.max_glide_angle))
    if sawtooth.depth_margin >= sawtooth.water_depth:
        problems.append("sawtooth.depth_margin: must be below water_depth")
    potentials = _read_group(problems, data, "potentials", PotentialParams())
    escape = _read_group(problems, data, "escape", EscapeConfig())
    sonar = _read_group(problems, data, "sonar", SonarModel())
    flow = _read_group(problems, data, "flow", VortexFlow(max_depth=bounds.depth))
    if not data.get("flow"):
        flow = None  # the water is still unless the file describes a flow

    start = _vector(problems, data, "start", "start")
    goal = _vector(problems, data, "goal", "goal")
    for label, v in (("start", start), ("goal", goal)):
        if v is None:
            continue
        if not (0.0 <= v.x <= bounds.x and 0.0 <= v.y <= bounds.y
                and 0.0 <= v.z <= bounds.depth):
            problems.append(f"{label}: outside the domain bounds")
        elif v.z > glider.max_depth:
            problems.append(f"{label}: deeper than the vehicle can go")

    obstacles = []
    raw_obs = data.get("obstacles", [])
    if not isinstance(raw_obs, list):
        problems.append("obstacles: expected a list")
        raw_obs = []
    touched = None  # the first explicit obstacle the hull touches at start
    for i, raw in enumerate(raw_obs):
        ob = _read_obstacle(problems, i, raw, bounds, dt)
        if ob is not None:
            obstacles.append(ob)
            # run_scenario's collision test: clearance <= 0
            if (touched is None and start is not None and surface_distance(
                    ob, start) - glider.body_radius <= 0.0):
                touched = i
    if touched is not None:
        problems.append(f"start: the hull touches obstacles[{touched}]")

    rand = _read_group(problems, data, "random_obstacles", RandomObstacles())
    if rand.depth_range is not None and rand.depth_range[1] > bounds.depth:
        problems.append("random_obstacles.depth: exceeds the domain depth")
    # random spheres drift horizontally, each component at most `speed`
    if rand.speed_range[1] * dt > min(bounds.x, bounds.y):
        problems.append("random_obstacles.speed: drifts farther than the"
                        " domain in one step")
    if not data.get("random_obstacles"):
        rand = None

    if problems:
        raise ScenarioError(problems)
    return Scenario(name=title, start=start, goal=goal, mode=mode,
                    seed=int(seed), dt=dt, max_steps=int(max_steps),
                    glider=glider, sawtooth=sawtooth, potentials=potentials,
                    escape=escape, sonar=sonar, bounds=bounds, flow=flow,
                    obstacles=tuple(obstacles), random_obstacles=rand)


def materialize_obstacles(sc: Scenario, seed: int) -> tuple[Obstacle, ...]:
    """Explicit obstacles plus the seeded random field, if any.

    Each generated obstacle draws (radius, x, y, z, heading, speed) in that
    order; a draw landing within keepout of the start or goal is rejected
    and redrawn whole, keeping the stream stable.
    """
    if seed < 0:  # random.Random(-n) would place seed n's field
        raise ValueError(f"seed must be non-negative, got {seed}")
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
    return {
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


def scenario_hash(sc: Scenario) -> str:
    blob = json.dumps(scenario_to_dict(sc), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
