"""Scenario schema: problem reports, the dict round trip, non-finite input."""

import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf.environment import Bounds, SonarModel, VortexFlow
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
     ["sawtooth.depth_margin: must be below water_depth"]),
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
      "random_obstacles.depth: exceeds the domain depth",
      "random_obstacles.seed: expected an integer"]),
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
]


@pytest.mark.parametrize("fields,want", BAD, ids=[next(iter(f)) for f, _ in BAD])
def test_problem_list_is_exact(fields, want):
    assert problems(fields) == want


def test_literal_stride_accepts_only_booleans():
    assert scenario_from_dict({**BASE, "sawtooth": {"literal_stride": True}}
                              ).sawtooth.literal_stride is True
    assert problems({"sawtooth": {"literal_stride": "yes"}}) == [
        "sawtooth.literal_stride: expected true/false"]


# --- resolved dict round trip -----------------------------------------------

# a random field without a depth range resolves to ``depth: null``
NO_DEPTH_RANGE = {**BASE, "random_obstacles": {"count": 4, "radius": [1, 2]}}


@pytest.mark.parametrize("source", FILES + [NO_DEPTH_RANGE],
                         ids=[f.stem for f in FILES] + ["no_depth_range"])
def test_resolved_dict_round_trips(source):
    sc = load_scenario(source) if isinstance(source, Path) else scenario_from_dict(source)
    back = scenario_from_dict(scenario_to_dict(sc), require_version=True)
    assert back == sc
    assert scenario_hash(back) == scenario_hash(sc)


def test_absent_fields_keep_the_dataclass_defaults():
    sc = scenario_from_dict(dict(BASE))
    assert (sc.bounds, sc.glider, sc.sawtooth, sc.potentials, sc.escape, sc.sonar,
            sc.flow) == (Bounds(), GliderSpec(), SawtoothParams(), PotentialParams(),
                         EscapeConfig(), SonarModel(), None)
    flow = scenario_from_dict({**BASE, "flow": {"amplitude": 0.2}}).flow
    assert flow == VortexFlow(0.2, 50.0, 50.0)
    assert scenario_from_dict({**BASE, "glider": {"max_glide_deg": 30}}
                              ).glider.max_glide_angle == math.radians(30.0)


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
     ["obstacles[0].radius: expected a finite number",
      "obstacles[0].radius: must be positive"]),
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
