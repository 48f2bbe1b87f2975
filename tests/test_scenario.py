"""Scenario schema: problem reports, the dict round trip, non-finite input."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf import scenario
from mppf.environment import Bounds, SonarModel, VortexFlow, _advance_obstacle
from mppf.errors import ScenarioError
from mppf.escape import EscapeConfig
from mppf.geometry import GliderSpec
from mppf.potentials import PotentialParams
from mppf.sawtooth import SawtoothParams
from mppf.scenario import load_scenario, scenario_from_dict, scenario_hash, scenario_to_dict

ROOT = Path(__file__).resolve().parent.parent
FILES = (sorted((ROOT / "scenarios").glob("*.yaml"))
         + [ROOT / "missionbench" / "anchorage.yaml"])
BASE = {"schema_version": 1, "name": "bad", "start": [10, 10, 0], "goal": [90, 90, 0]}


def problems(fields):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({**BASE, **fields})
    return err.value.problems


# --- every problem of a bad file, in one pass -------------------------------

BAD = [
    ({"bounds": {"x": 0.5, "y": "wide", "z": 3}},
     ["bounds.z: unknown field", "bounds.x: must be >= 1.0",
      "bounds.y: expected a number"]),
    ({"glider": {"max_heading_step_deg": 181, "max_glide_deg": 0.5,
                 "speed_down": True, "speed_up": 0, "body_radius": [1],
                 "max_depth": -2, "fins": 2}},
     ["glider.fins: unknown field",
      "glider.max_heading_step_deg: must be <= 180.0",
      "glider.max_glide_deg: must be >= 1.0",
      "glider.speed_down: expected a number",
      "glider.speed_up: must be >= 1e-06",
      "glider.body_radius: expected a number",
      "glider.max_depth: must be >= 1e-06"]),
    ({"glider": 5}, ["glider: expected a mapping"]),
    ({"sawtooth": {"water_depth": 20, "depth_margin": 20}},
     ["sawtooth.depth_margin: must be below water_depth"]),
    ({"bounds": {"depth": 12}, "sawtooth": {"depth_margin": 12.5}},
     ["glider.max_depth: deeper than the domain",
      "sawtooth.depth_margin: must be below water_depth"]),
    ({"sawtooth": {"water_depth": 0, "depth_margin": -1,
                   "arrival_radius": "near", "replan_cross_track": 0,
                   "literal_stride": 1, "teeth": 4}},
     ["sawtooth.teeth: unknown field",
      "sawtooth.water_depth: must be >= 1e-06",
      "sawtooth.depth_margin: must be >= 0.0",
      "sawtooth.literal_stride: expected true/false",
      "sawtooth.arrival_radius: expected a number",
      "sawtooth.replan_cross_track: must be >= 1e-06"]),
    ({"potentials": {"xi": 0, "eta": -1, "tau": "x", "kappa": -0.1,
                     "flow_align_deg": 90, "nu": 1}},
     ["potentials.nu: unknown field", "potentials.xi: must be >= 1e-12",
      "potentials.eta: must be >= 0.0", "potentials.tau: expected a number",
      "potentials.kappa: must be >= 0.0",
      "potentials.flow_align_deg: must be <= 89.0"]),
    ({"escape": {"vertical_speed": 0, "window": 2.5, "progress_epsilon": 0,
                 "surface_margin": -1, "decay_tau": 0, "cz_margin": -1,
                 "overhead_pad": "x", "overhead_clearance": -2, "speed": 1}},
     ["escape.speed: unknown field", "escape.vertical_speed: must be >= 1e-06",
      "escape.window: expected an integer",
      "escape.progress_epsilon: must be >= 1e-09",
      "escape.surface_margin: must be >= 0.0",
      "escape.decay_tau: must be >= 1e-06", "escape.cz_margin: must be >= 0.0",
      "escape.overhead_pad: expected a number",
      "escape.overhead_clearance: must be >= 0.0"]),
    ({"escape": {"window": 0}}, ["escape.window: must be >= 1"]),
    ({"sonar": [1, 2]}, ["sonar: expected a mapping"]),
    ({"sonar": {"range": 0, "horizontal_fov_deg": 360, "vertical_fov_deg": 0.5,
                "beams": 3}},
     ["sonar.beams: unknown field", "sonar.range: must be >= 1e-06",
      "sonar.horizontal_fov_deg: must be <= 359.0",
      "sonar.vertical_fov_deg: must be >= 1.0"]),
    ({"sonar": {"vertical_fov_deg": 181}},
     ["sonar.vertical_fov_deg: must be <= 180.0"]),
    ({"flow": {"amplitude": -0.1, "cell_size": 0, "max_depth": "deep",
               "phase": 1}},
     ["flow.phase: unknown field", "flow.amplitude: must be >= 0.0",
      "flow.cell_size: must be >= 1e-06", "flow.max_depth: expected a number"]),
    ({"flow": []}, ["flow: expected a mapping"]),
    ({"random_obstacles": {"count": -1, "radius": [3, 1], "speed": "slow",
                           "depth": [0, 90], "seed": 1.5, "shape": "cube"}},
     ["random_obstacles.shape: unknown field",
      "random_obstacles.count: must be >= 0",
      "random_obstacles.radius: expected 1e-06 <= low <= high",
      "random_obstacles.speed: expected [low, high]",
      "random_obstacles.seed: expected an integer",
      "random_obstacles.depth: exceeds the domain depth"]),
    ({"seed": 1.5, "dt": 0, "max_steps": 0, "mode": "hybrid", "name": "",
      "extra": 1, "schema_version": 2},
     ["schema_version: unsupported value 2", "extra: unknown field",
      "name: expected a non-empty string",
      "mode: must be one of baseline/advanced",
      "scenario.seed: expected an integer", "dt: must be positive",
      "max_steps: must be positive"]),
    ({"start": [10, 10], "goal": [90, 90, 40],
      "obstacles": [5, {"shape": "cube"}, {"radius": 0},
                    {"radius": 2, "center": [500, 10, 5], "spin": 1},
                    {"shape": "cylinder", "radius": 2, "center": [10, 10],
                     "velocity": [1, 0, 0]}]},
     ["start: expected a list of 3 numbers",
      "goal: deeper than the vehicle can go",
      "obstacles[0]: expected a mapping",
      "obstacles[1].shape: must be sphere or cylinder",
      "obstacles[2].radius: must be positive",
      "obstacles[3].spin: unknown field",
      "obstacles[3].center: outside the domain bounds",
      "obstacles[4].velocity: cylinders are static"]),
    # one problem for each bad radius
    ({"obstacles": [{"radius": -1, "center": [50, 50, 5]},
                    {"radius": "x", "center": [50, 50, 5]},
                    {"radius": True, "center": [50, 50, 5]},
                    {"center": [50, 50, 5]}]},
     ["obstacles[0].radius: must be positive",
      "obstacles[1].radius: expected a number",
      "obstacles[2].radius: expected a number",
      "obstacles[3].radius: expected a number"]),
    # the default output directory runs/<name>-... must stay under runs/
    ({"name": "../../escaped"}, ["name: must not contain a path separator"]),
]


@pytest.mark.parametrize("fields,want", BAD, ids=[next(iter(f)) for f, _ in BAD])
def test_problem_list_is_exact(fields, want):
    assert problems(fields) == want


def smallest(key):
    """The reader's smallest value of every number field of group key."""
    return {field: math.radians(lo) if k == scenario.DEG else lo
            for field, lo, _, k in scenario.GROUPS[key].values()
            if k != scenario.BOOL}


def refuses(rows):
    """Each row's kind raises a one-line ValueError naming the field for
    every value, one field at a time."""
    for kind, names, values in rows:
        for name in names:
            for value in values:
                with pytest.raises(ValueError, match=name) as err:
                    kind(**{name: value})
                assert "\n" not in str(err.value)


POSITIVE = (0.0, -1.0, math.nan, math.inf)
NON_NEGATIVE = (-1.0, math.nan, math.inf)
# outside [1, 89] degrees: zero, a step whose half underflows, a negative
# envelope, one past 89 degrees and a vertical one
BAD_ANGLES = (0.0, -0.0, 5e-324, -0.5, math.nextafter(math.radians(89.0), 2.0),
                0.5 * math.pi, math.nan, math.inf)


def test_glider_escape_and_dt_refuse_what_breaks_a_run():
    """A Scenario built in code gets a one-line ValueError where the reader
    would list a problem, not a ZeroDivisionError mid-run (a zero
    decay_tau or dt), a run that ends with a NaN clearance (a NaN hull)
    or one pinned at max_depth (a negative glide envelope). The reader's
    smallest values are accepted, and so are int fields."""
    sc = load_scenario(ROOT / "scenarios" / "concave_trap.yaml")
    for key, kind in (("glider", GliderSpec), ("escape", EscapeConfig)):
        built = kind(**smallest(key))
        assert all(getattr(built, f) == v for f, v in smallest(key).items())
    assert GliderSpec(1, 1, 1, 1, 1, 30).max_depth == 30
    assert GliderSpec(max_heading_step=math.pi).max_heading_step == math.pi
    assert replace(sc, dt=5e-324).dt == 5e-324
    refuses(((GliderSpec, ("max_heading_step",),
              (0.0, -0.0, 5e-324, -0.5, math.nextafter(math.pi, 4.0), math.nan,
               math.inf, -math.inf)),
             (GliderSpec, ("max_glide_angle",), BAD_ANGLES),
             (GliderSpec, ("speed_down", "speed_up", "body_radius", "max_depth"),
              POSITIVE + (-0.0,)),
             (EscapeConfig, ("vertical_speed", "progress_epsilon", "decay_tau"),
              POSITIVE),
             (EscapeConfig, ("window",), (0, -1, 2.5, math.nan)),
             (EscapeConfig, ("surface_margin", "cz_margin", "overhead_pad",
                             "overhead_clearance"), NON_NEGATIVE),
             (lambda **kw: replace(sc, **kw), ("dt",), POSITIVE)))


def test_sawtooth_and_potentials_refuse_what_breaks_a_run():
    """Built in code, a zero or NaN sawtooth envelope or max_depth raised
    mid-plan (ZeroDivisionError, or NaN converted to an integer), a NaN
    arrival_radius never arrived, and a NaN or infinite gain scored every
    candidate NaN. Each now raises a one-line ValueError. The reader's
    smallest values (the sawtooth envelope and max_depth come from the
    glider's) and a gain of zero are accepted."""
    low = {**smallest("sawtooth"), "max_depth": smallest("glider")["max_depth"],
           "max_glide_angle": smallest("glider")["max_glide_angle"]}
    built = SawtoothParams(**low)
    assert all(getattr(built, f) == v for f, v in low.items())
    built = PotentialParams(**smallest("potentials"))
    assert all(getattr(built, f) == v for f, v in smallest("potentials").items())
    assert PotentialParams(xi=0.0, eta=0.0, tau=0.0, kappa=0.0).xi == 0.0
    assert PotentialParams(1, 1, 1, 1, 1).flow_align_max == 1
    refuses(((SawtoothParams, ("max_depth", "water_depth", "arrival_radius",
                               "replan_cross_track"), POSITIVE),
             (SawtoothParams, ("depth_margin",), NON_NEGATIVE),
             (SawtoothParams, ("max_glide_angle",), BAD_ANGLES),
             (PotentialParams, ("xi", "eta", "tau", "kappa"), NON_NEGATIVE),
             (PotentialParams, ("flow_align_max",), BAD_ANGLES)))


def test_keepout_checked_even_when_the_field_cannot_be_built():
    assert problems({"random_obstacles": {"radius": "x", "keepout": -5}}) == [
        "random_obstacles.radius: expected [low, high]",
        "random_obstacles.keepout: must be >= 0.0"]
    assert problems({"random_obstacles": {"speed": [2, 1], "keepout": "far"}}) == [
        "random_obstacles.speed: expected 0.0 <= low <= high",
        "random_obstacles.keepout: expected a number"]


def test_random_group_must_be_a_mapping():
    for value in ([], 5):
        assert problems({"random_obstacles": value}) == [
            "random_obstacles: expected a mapping"]
    assert scenario_from_dict({**BASE, "random_obstacles": {}}
                              ).random_obstacles is None


def test_random_count_is_bounded():
    assert problems({"random_obstacles": {"count": 10_001}}) == [
        "random_obstacles.count: must be <= 10000"]
    assert scenario_from_dict({**BASE, "random_obstacles": {"count": 10_000}}
                              ).random_obstacles.count == 10_000


def test_null_keeps_only_a_null_default():
    assert problems({"bounds": {"x": None}}) == ["bounds.x: expected a number"]
    assert problems({"random_obstacles": {"count": None, "radius": None}}) == [
        "random_obstacles.count: expected a number",
        "random_obstacles.radius: expected [low, high]"]
    rand = scenario_from_dict({**BASE, "random_obstacles": {
        "count": 2, "depth": None, "seed": None}}).random_obstacles
    assert (rand.count, rand.depth_range, rand.seed) == (2, None, None)


def test_negative_seeds_rejected():
    # random.Random(-3) seeds like Random(3): the field of seed 3 would be
    # placed under the label -3
    assert problems({"seed": -3, "random_obstacles": {"count": 1, "seed": -1}}) == [
        "scenario.seed: must be >= 0", "random_obstacles.seed: must be >= 0"]
    assert scenario_from_dict({**BASE, "seed": 0, "random_obstacles": {
        "count": 1, "seed": 0}}).random_obstacles.seed == 0


def test_materialize_obstacles_refuses_a_negative_seed():
    sc = load_scenario(ROOT / "scenarios" / "random_static.yaml")
    assert len(scenario.materialize_obstacles(sc, 3)) == 30
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        scenario.materialize_obstacles(sc, -3)


def test_random_seed_reads_like_every_integer_field():
    assert problems({"random_obstacles": {"seed": True}}) == [
        "random_obstacles.seed: expected a number"]
    rand = scenario_from_dict({**BASE, "random_obstacles": {"seed": 3.0}}
                              ).random_obstacles
    assert rand.seed == 3 and isinstance(rand.seed, int)


def test_boolean_schema_version_rejected():
    # True == 1 in Python, so the version check must rule out bools first
    assert problems({"schema_version": True}) == [
        "schema_version: unsupported value True"]


def test_glider_rated_deeper_than_the_domain_rejected():
    assert problems({"bounds": {"depth": 12}, "glider": {"max_depth": 30}}) == [
        "glider.max_depth: deeper than the domain"]
    sc = scenario_from_dict({**BASE, "bounds": {"depth": 12},
                             "glider": {"max_depth": 12}})
    assert sc.glider.max_depth == sc.bounds.depth == 12


def test_sphere_centre_depth_checked_against_the_domain():
    # the default domain is 50 m deep
    spheres = [{"radius": 2, "center": [50, 50, z]} for z in (500, -9, 50, 0)]
    assert problems({"obstacles": spheres}) == [
        "obstacles[0].center: outside the domain bounds",
        "obstacles[1].center: outside the domain bounds"]
    # a full-depth cylinder never reads its z, so any z loads
    cylinders = [{"shape": "cylinder", "radius": 2, "center": [30, 40, z]}
                 for z in (60, -9)]
    loaded = scenario_from_dict({**BASE, "obstacles": cylinders})
    assert [o.center.z for o in loaded.obstacles] == [60.0, -9.0]
    deep = scenario_from_dict({**BASE, "bounds": {"depth": 600},
                               "obstacles": spheres[:1]})
    assert deep.obstacles[0].center.z == 500.0


def test_start_touching_an_explicit_obstacle_rejected():
    # the default hull radius is 0.6 m; obstacles[1]'s surface is 0.5 m away
    spheres = [{"radius": 2, "center": [90, 90, 5]},
               {"radius": 5, "center": [10, 10, 5.5]},
               {"radius": 1.0e308, "center": [50, 50, 5]}]
    assert problems({"obstacles": spheres}) == [
        "start: the hull touches obstacles[1]"]
    pillar = [{"shape": "cylinder", "radius": 1.5, "center": [10, 12]}]
    assert problems({"obstacles": pillar}) == [
        "start: the hull touches obstacles[0]"]
    # a surface exactly one hull radius away touches: clearance 0 collides
    sphere = [{"radius": 2, "center": [10, 10, 3]}]
    assert problems({"obstacles": sphere, "glider": {"body_radius": 1.0}}) == [
        "start: the hull touches obstacles[0]"]
    clear = scenario_from_dict({**BASE, "obstacles": sphere,
                                "glider": {"body_radius": 0.5}})
    assert len(clear.obstacles) == 1


DRIFT = "drifts farther than the domain in one step"


def test_an_obstacle_drifting_past_the_domain_in_one_step_rejected():
    # one reflection cannot bring these back: before this check, 300 m per
    # step in the default 100 m square ran to x = -150, 450, -550, 850
    fast = [{"radius": 1, "center": [50, 50, 5], "velocity": v}
            for v in ([300, 0, 0], [0, -100.5, 0], [0, 0, 1])]
    assert problems({"obstacles": fast[:2]}) == [
        f"obstacles[0].velocity: {DRIFT}", f"obstacles[1].velocity: {DRIFT}"]
    # the default domain is 50 m deep: 1 m/s for 100 s
    assert problems({"dt": 100, "obstacles": fast[2:]}) == [
        f"obstacles[0].velocity: {DRIFT}"]
    # a drift of exactly the extent loads
    edge = [{"radius": 1, "center": [50, 50, 5], "velocity": [-50, 50, 25]}]
    assert scenario_from_dict({**BASE, "dt": 2, "obstacles": edge}
                              ).obstacles[0].velocity.z == 25.0


def test_a_random_field_drifting_past_the_domain_in_one_step_rejected():
    # random spheres move horizontally at up to the top of the speed range
    wide = {"x": 300, "y": 120}
    assert problems({"bounds": wide, "random_obstacles": {
        "count": 3, "speed": [0, 121]}}) == [f"random_obstacles.speed: {DRIFT}"]
    assert problems({"bounds": wide, "dt": 2, "random_obstacles": {
        "count": 3, "speed": [0, 61]}}) == [f"random_obstacles.speed: {DRIFT}"]
    ok = scenario_from_dict({**BASE, "bounds": wide, "dt": 2,
                             "random_obstacles": {"count": 3, "speed": [0, 60]}})
    assert ok.random_obstacles.speed_range == (0.0, 60.0)


UNIT = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0),
                 st.floats(10.0, 1000.0)),
       st.tuples(UNIT, UNIT, UNIT), st.tuples(UNIT, UNIT, UNIT),
       st.tuples(st.booleans(), st.booleans(), st.booleans()),
       st.floats(0.01, 100.0))
@example((100.0, 100.0, 50.0), (0.0, 1.0, 0.5), (1.0, 1.0, 1.0),
         (False, True, False), 1.0)
def test_an_accepted_drift_stays_inside_the_domain(extent, at, speed, flip, dt):
    # each component's drift per step is a share of the axis's extent
    velocity = [(-f if neg else f) * hi / dt
                for f, neg, hi in zip(speed, flip, extent)]
    data = {**BASE, "dt": dt, "start": [0, 0, 0], "goal": list(extent[:2]) + [0],
            "bounds": dict(zip(("x", "y", "depth"), extent)),
            "glider": {"max_depth": extent[2]},
            "obstacles": [{"radius": 1e-3, "velocity": velocity,
                           "center": [f * hi for f, hi in zip(at, extent)]}]}
    try:
        sc = scenario_from_dict(data)
    except ScenarioError as err:
        # rounding can carry a full-extent drift just past the extent, and
        # a sphere can sit at the start
        assert set(err.problems) <= {f"obstacles[0].velocity: {DRIFT}",
                                     "start: the hull touches obstacles[0]"}
        return
    ob, b = sc.obstacles[0], sc.bounds
    for _ in range(500):
        ob = _advance_obstacle(ob, b, sc.dt)
        c = ob.center
        assert 0.0 <= c.x <= b.x and 0.0 <= c.y <= b.y and 0.0 <= c.z <= b.depth


def test_literal_stride_accepts_only_booleans():
    assert scenario_from_dict({**BASE, "sawtooth": {"literal_stride": True}}
                              ).sawtooth.literal_stride is True
    assert problems({"sawtooth": {"literal_stride": "yes"}}) == [
        "sawtooth.literal_stride: expected true/false"]


# --- resolved dict round trip -----------------------------------------------

# a random field without a depth range resolves to ``depth: null``
NO_DEPTH_RANGE = {**BASE, "random_obstacles": {"count": 4, "radius": [1, 2]}}
ALL_RANDOM = {**BASE, "random_obstacles": {
    "count": 3, "radius": [1, 2], "speed": [0, 0.3], "depth": [0, 10],
    "keepout": 4, "seed": 7}}
# the random dicts pin their hashes, so the random group's dump cannot drift
ROUND_TRIPS = [pytest.param(f, None, id=f.stem) for f in FILES] + [
    pytest.param(NO_DEPTH_RANGE, "e88b226ddd80049c", id="no_depth_range"),
    pytest.param(ALL_RANDOM, "4bae226ef4f0b76f", id="all_random")]


@pytest.mark.parametrize("source,pinned", ROUND_TRIPS)
def test_resolved_dict_round_trips(source, pinned):
    sc = load_scenario(source) if isinstance(source, Path) else scenario_from_dict(source)
    back = scenario_from_dict(scenario_to_dict(sc), require_version=True)
    assert back == sc
    assert scenario_hash(back) == scenario_hash(sc)
    assert pinned is None or scenario_hash(sc) == pinned


def test_absent_fields_keep_the_dataclass_defaults():
    sc = scenario_from_dict(dict(BASE))
    assert (sc.bounds, sc.glider, sc.sawtooth, sc.potentials, sc.escape, sc.sonar,
            sc.flow) == (Bounds(), GliderSpec(), SawtoothParams(), PotentialParams(),
                         EscapeConfig(), SonarModel(), None)
    flow = scenario_from_dict({**BASE, "flow": {"amplitude": 0.2}}).flow
    assert flow == VortexFlow(0.2, 50.0, 50.0)
    assert scenario_from_dict({**BASE, "glider": {"max_glide_deg": 30}}
                              ).glider.max_glide_angle == math.radians(30.0)


def test_libyaml_parses_when_pyyaml_has_it():
    # yaml.CSafeLoader exists only where PyYAML was built with libyaml
    if yaml.__with_libyaml__:
        assert issubclass(scenario._Loader, yaml.CSafeLoader)
    else:
        assert scenario._Loader is scenario._PureLoader


@pytest.mark.parametrize("path", FILES, ids=[f.stem for f in FILES])
def test_both_loaders_read_the_same_scenario(path, monkeypatch):
    raw = path.read_bytes()
    fast = yaml.load(raw, Loader=scenario._Loader)
    for loader in (scenario._PureLoader, yaml.SafeLoader):
        pure = yaml.load(raw, Loader=loader)
        assert fast == pure and repr(fast) == repr(pure)  # repr tells 1 from 1.0
    sc = load_scenario(path)
    monkeypatch.setattr(scenario, "_Loader", scenario._PureLoader)
    pure_sc = load_scenario(path)
    assert pure_sc == sc and scenario_hash(pure_sc) == scenario_hash(sc)


def composes(loader, text):
    try:
        yaml.load(text, Loader=loader)
    except RecursionError:
        return False
    return True


@pytest.mark.parametrize("open_, close", [("[", "]"), ("{a: ", "}")],
                         ids=["sequences", "mappings"])
def test_the_pure_loader_composes_as_deep_as_safeloader(open_, close):
    """The pure loader's scanner refuses only nestings no composer reaches:
    called from the same frame, the deepest flow nesting it composes is
    SafeLoader's deepest, and one level more fails in both."""
    def nested(depth):
        return "a: " + open_ * depth + close * depth + "\n"
    lo, hi = 1, sys.getrecursionlimit()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if composes(scenario._PureLoader, nested(mid)):
            lo = mid
        else:
            hi = mid - 1
    assert lo > 100
    assert composes(yaml.SafeLoader, nested(lo))
    assert not composes(yaml.SafeLoader, nested(lo + 1))
    assert not composes(scenario._PureLoader, nested(lo + 1))


# --- non-finite numbers -----------------------------------------------------

NON_FINITE = [
    ({"seed": math.inf}, ["scenario.seed: expected a finite number"]),
    ({"max_steps": math.nan}, ["scenario.max_steps: expected a finite number"]),
    ({"dt": -math.inf}, ["scenario.dt: expected a finite number"]),
    ({"bounds": {"x": 10**400}}, ["bounds.x: expected a finite number"]),
    ({"glider": {"max_depth": math.nan}},
     ["glider.max_depth: expected a finite number"]),
    ({"escape": {"window": math.inf}}, ["escape.window: expected a finite number"]),
    ({"flow": {"cell_size": math.nan}}, ["flow.cell_size: expected a finite number"]),
    ({"start": [10, 10, math.inf]}, ["start: expected finite numbers"]),
    ({"obstacles": [{"radius": math.nan, "center": [50, 50, 5]}]},
     ["obstacles[0].radius: expected a finite number"]),
    ({"obstacles": [{"radius": 2, "center": [50, 50, math.nan]}]},
     ["obstacles[0].center: expected finite numbers"]),
    ({"random_obstacles": {"count": math.nan, "radius": [1, math.inf]}},
     ["random_obstacles.count: expected a finite number",
      "random_obstacles.radius: expected finite numbers"]),
]


@pytest.mark.parametrize("fields,want", NON_FINITE,
                         ids=[next(iter(f)) for f, _ in NON_FINITE])
def test_non_finite_numbers_are_problems(fields, want):
    assert problems(fields) == want


# --- arbitrary mappings over the schema's keys ------------------------------

# every key the schema knows, from a resolved scenario that sets each section
FULL = scenario_to_dict(scenario_from_dict({
    **BASE, "flow": {"amplitude": 0.1},
    "obstacles": [{"radius": 1.0, "center": [50, 50, 5]}],
    "random_obstacles": {"count": 1, "radius": [1, 2], "depth": [0, 10],
                         "seed": 3}}))

leaf = (st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -1, 0, 0.5,
                         True, None, "x"])
        | st.integers() | st.floats() | st.text(max_size=4))
junk = st.recursive(leaf, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                    max_leaves=6)


def over(value):
    """The resolved value with junk in place of any part of it."""
    if isinstance(value, dict):
        inner = st.fixed_dictionaries(
            {}, optional={k: over(v) for k, v in value.items()} | {"zz": junk})
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        inner = st.lists(over(value[0]), max_size=3)
    elif isinstance(value, list):
        inner = st.tuples(*map(over, value)).map(list)
    else:
        inner = st.just(value)
    return inner | junk


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional={k: over(v) for k, v in FULL.items()}))
@example({"seed": math.inf})
@example({"glider": {"max_depth": math.nan}, "start": [0, 0, 0], "goal": [1, 1, 0]})
def test_arbitrary_mappings_raise_only_scenario_error(data):
    try:
        sc = scenario_from_dict(data)
    except ScenarioError as e:
        assert e.problems and all(isinstance(p, str) for p in e.problems)
    else:
        assert scenario_from_dict(scenario_to_dict(sc)) == sc
