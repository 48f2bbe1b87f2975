"""Mission benchmark: decision latency and step throughput of mppf.

Run from the repository root:

    python3 missionbench/run.py --workload anchorage --seed 1 --seconds 35 --trace 0

One operation is a mission performed the way `mppf run` performs it: load
the scenario file, `harness.run_scenario`, `harness.emit_outputs` into
missionbench/out/. Its outputs are then checked, untimed (see checks.py).
A round runs every mission of the workload once in each planner mode, in
an order drawn from --seed; a run repeats whole rounds until the next one
would end past --seconds, and runs at least two.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` missions, and `metrics`, each a value with its
unit. With --trace 0 they are the end-to-end metrics (no spans are
recorded); with --trace 1 the run alternates untraced and traced rounds
and reports the per-layer metrics of the traced ones, and the spans go to
missionbench/out/trace-<workload>.jsonl. `--workload all` runs the three
workloads one after another in the same process and prefixes every metric
with its workload's name. README.md lists every metric.

Every time reported is scaled to reference host speed (see speed.py): the
host's speed drifts by more than any bound worth keeping, and samples of
a fixed reference computation taken between decisions measure it. The
wall-clock figures are printed as `#` lines.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
from collections import Counter
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from probe import CHECK_SPAN, Probe  # noqa: E402
from speed import HostSpeed  # noqa: E402

MODES = ("baseline", "advanced")
# workload -> (scenario file, run seed or None for the file's own seed)
WORKLOADS = {
    "open_water": tuple((SCENARIOS / f"{n}.yaml", None) for n in
                        ("sawtooth", "vortex_single", "vortex_multi",
                         "vortex_partial")),
    "traffic": tuple((SCENARIOS / "dynamic.yaml", s) for s in (0, 1, 2, 3)),
    "anchorage": ((HERE / "anchorage.yaml", None),),
}
MIN_ROUNDS = 2  # anchorage needs two rounds for 1000+ decision samples
TRACED_ROUNDS = 2  # at most, to bound the spans kept in memory
SETUPS = 8  # set-ups before the first round; one more precedes every round


@dataclass(frozen=True)
class Mission:
    path: Path
    seed: int | None
    mode: str

    @property
    def key(self) -> str:
        seed = "" if self.seed is None else f"-seed{self.seed}"
        return f"{self.path.stem}{seed}-{self.mode}"


@dataclass
class Record:
    mission: Mission
    traced: bool
    id: int  # the mission id of its spans
    # wall-clock interval of the mission, and those of the benchmark's own
    # work inside it
    t0: int = 0
    t1: int = 0
    own: list = field(default_factory=list)
    decide_t0: array = field(default_factory=lambda: array("q"))
    decide_ns: array = field(default_factory=lambda: array("q"))
    # filled in by Runner.scale once the run's speed samples are all taken:
    # the program's part of the mission and each decision, at reference
    # speed and in wall-clock time
    ns: float = 0.0
    wall_ns: int = 0
    decide: array = field(default_factory=lambda: array("d"))
    steps: int = 0
    status: str = ""
    output_bytes: int = 0
    failed: bool = True
    incorrect: bool = False


def setup(workload: str) -> tuple[int, int]:
    """Import mppf afresh, parse the workload's scenario files and
    materialize their obstacle fields; returns when it started and ended."""
    for name in [n for n in sys.modules if n == "mppf" or n.startswith("mppf.")]:
        del sys.modules[name]
    t0 = perf_counter_ns()
    scenario = importlib.import_module("mppf.scenario")
    for path, seed in WORKLOADS[workload]:
        sc = scenario.load_scenario(path)
        scenario.materialize_obstacles(sc, sc.seed if seed is None else seed)
    t1 = perf_counter_ns()
    loaded = Path(sys.modules["mppf"].__file__).resolve().parent
    if loaded != SRC / "mppf":
        raise SystemExit(f"benchmark needs the checkout's mppf, imported {loaded}")
    return t0, t1


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.missions = [Mission(p, s, m) for p, s in WORKLOADS[workload]
                         for m in MODES]
        self.specs = {p: checks.read_spec(p) for p, _ in WORKLOADS[workload]}
        self.speed = HostSpeed()
        self.probe = Probe(self.speed)
        self.records: list[Record] = []
        self.digests: dict[str, dict] = {}
        self.setups: list[tuple[int, int]] = []
        for _ in range(SETUPS):
            self.setup()

    def setup(self) -> None:
        """One timed set-up, between two host speed samples."""
        self.speed.sample()
        self.setups.append(setup(self.workload))
        self.speed.sample()

    def rounds(self, seconds: float, trace: bool) -> None:
        """Whole rounds until the next would end past `seconds`; with
        `trace`, untraced and traced rounds alternate, up to TRACED_ROUNDS
        traced ones."""
        t_start = perf_counter_ns()
        took: list[int] = []
        while True:
            traced = trace and len(took) % 2 == 1
            order = self.missions[:]
            self.rng.shuffle(order)
            # spread the set-ups over the run, as the timed rounds are
            self.setup()
            t0 = perf_counter_ns()
            self.probe.install(traced)
            try:
                for m in order:
                    self.records.append(self.mission(m, traced))
            finally:
                self.probe.remove()
            t1 = perf_counter_ns()
            took.append(t1 - t0)
            if len(took) >= MIN_ROUNDS and (
                    t1 - t_start + max(took[-2:]) > seconds * 1e9
                    or traced and len(took) == 2 * TRACED_ROUNDS):
                break

    def mission(self, m: Mission, traced: bool) -> Record:
        probe = self.probe
        mark = probe.begin_mission()
        rec = Record(m, traced, probe.mission)
        out_dir = OUT / self.workload / m.key
        scenario = sys.modules["mppf.scenario"]
        harness = sys.modules["mppf.harness"]
        # start every mission from an empty collector, so that the garbage
        # of earlier missions and of the checks is not collected in this one
        gc.collect()
        probe.sample_speed()
        t0 = perf_counter_ns()
        try:
            sc = scenario.load_scenario(m.path)
            result = harness.run_scenario(sc, mode=m.mode, seed=m.seed)
            harness.emit_outputs(result, sc, out_dir)
        except Exception as e:  # a crash fails this mission, not the run
            print(f"# {m.key}: {type(e).__name__}: {e}", file=sys.stderr)
            probe.rollback(mark)
            return rec
        t1 = perf_counter_ns()
        probe.sample_speed()
        rec.t0, rec.t1 = t0, t1
        rec.own = [s[1:3] for s in probe.spans[mark[0]:] if s[0] == CHECK_SPAN]
        rec.steps = len(result.trajectory) - 1
        rec.status = result.status

        problems = list(probe.problems)
        steps, found = checks.check_outputs(out_dir, self.specs[m.path])
        problems += found
        if steps != rec.steps:
            problems.append(f"trajectory.csv has {steps} steps, result {rec.steps}")
        digest = checks.digests(out_dir)
        if self.digests.setdefault(m.key, digest) != digest:
            problems.append("output bytes differ from an earlier repeat")
        rec.output_bytes = checks.output_bytes(out_dir)
        rec.incorrect = bool(problems)
        # the decision hooks fire once per simulated step; a trapped mission
        # senses once more without moving
        trapped = rec.status == "trapped"
        if probe.moves != rec.steps or probe.senses != rec.steps + trapped:
            problems.append(f"{probe.senses} sensing and {probe.moves} move "
                            f"calls for {rec.steps} steps")
        for p in problems[:5]:
            print(f"# {m.key}: {p}", file=sys.stderr)
        rec.failed = bool(problems)
        if rec.failed:
            probe.rollback(mark)
        else:
            rec.decide_t0, rec.decide_ns = probe.decide_t0, probe.decide_ns
        return rec

    def scale(self) -> None:
        """Times of the run's missions at reference speed; call once the
        run's speed samples are all taken."""
        scaled = self.speed.scaled
        for r in self.records:
            if r.failed:
                continue
            # speed samples are left out by the scaling itself
            r.ns = scaled(r.t0, r.t1) - sum(scaled(a, b) for a, b in r.own)
            r.wall_ns = (r.t1 - r.t0 - sum(b - a for a, b in r.own)
                         - self.speed.inside(r.t0, r.t1))
            r.decide = array("d", (scaled(t0, t0 + ns) for t0, ns
                                   in zip(r.decide_t0, r.decide_ns)))

    def setup_s(self) -> float:
        return statistics.median(self.speed.scaled(a, b)
                                 for a, b in self.setups) / 1e9


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def steps_per_s(records, wall: bool = False) -> float:
    ns = sum(r.wall_ns if wall else r.ns for r in records)
    return sum(r.steps for r in records) / (ns / 1e9)


def decision_ms(records, wall: bool = False) -> list[float]:
    """Each decision's median time over the run's repeats of its mission.

    Repeats make the same decisions in the same order (their outputs are
    byte-identical), so the median drops the host's one-off stalls and
    keeps what the decision itself costs.
    """
    repeats: dict[str, list] = {}
    for r in records:
        repeats.setdefault(r.mission.key, []).append(
            r.decide_ns if wall else r.decide)
    return [statistics.median(step) / 1e6 for reps in repeats.values()
            for step in zip(*reps)]


def end_to_end(runner: Runner) -> dict:
    ok = [r for r in runner.records if not r.failed]
    ms = decision_ms(ok)
    return {
        "steps_per_s": (steps_per_s(ok), "1/s"),
        "decide_ms.p50": (quantile(ms, 0.50), "ms"),
        "decide_ms.p99": (quantile(ms, 0.99), "ms"),
        "setup_s": (runner.setup_s(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(runner: Runner) -> dict:
    spans = runner.probe.spans
    child = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total, own, calls = Counter(), Counter(), Counter()
    for i, (name, t0, t1, _, _) in enumerate(spans):
        total[name] += t1 - t0
        own[name] += t1 - t0 - child[i]
        calls[name] += 1

    ok = [r for r in runner.records if not r.failed]
    traced = [r for r in ok if r.traced]
    untraced = [r for r in ok if not r.traced]
    rounds = len(traced) / len(runner.missions)
    steps = sum(r.steps for r in traced)
    decisions = calls["potentials.select_goto"]
    c = runner.probe.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def per(total_ns, n, unit_ns):
        return ratio(total_ns, n) / unit_ns

    sawtooth = sum(total[f"sawtooth.{f}"] for f in
                   ("advance", "active_segment", "cross_track_distance",
                    "replan_from"))
    m = {
        "environment.visible_obstacles.us_per_step":
            (per(total["environment.visible_obstacles"], steps, 1e3), "us"),
        "environment.obstacles_scanned_per_step": (ratio(c["scanned"], steps), "count"),
        "environment.surface_points.us_per_step":
            (per(total["environment.surface_points"], steps, 1e3), "us"),
        "environment.tracked_obstacles_per_step": (ratio(c["tracked"], steps), "count"),
        "environment.points_per_step": (ratio(c["points"], steps), "count"),
        "environment.advance_world.us_per_step":
            (per(total["environment.advance_world"], steps, 1e3), "us"),
        "environment.glider_clearance.us_per_step":
            (per(total["environment.glider_clearance"], steps, 1e3), "us"),
        "environment.glider_clearance.calls_per_step":
            (ratio(calls["environment.glider_clearance"], steps), "count"),
        "geometry.build_sample_surface.us_per_decision":
            (per(total["geometry.build_sample_surface"], decisions, 1e3), "us"),
        "potentials.grid_potentials.self_us_per_decision":
            (per(own["potentials.grid_potentials"], decisions, 1e3), "us"),
        "potentials.select_goto.self_us_per_decision":
            (per(own["potentials.select_goto"], decisions, 1e3), "us"),
        "kernels.total_potential_grid.us_per_decision":
            (per(total["kernels.total_potential_grid"], decisions, 1e3), "us"),
        "kernels.pairs_per_decision": (ratio(c["pairs"], decisions), "count"),
        "kernels.useful_pair_ratio": (ratio(c["useful_pairs"], c["pairs"]), "ratio"),
        "kernels.ns_per_pair":
            (ratio(total["kernels.total_potential_grid"], c["pairs"]), "ns"),
        "escape.obstacles_in_critical_zone.us_per_step":
            (per(total["escape.obstacles_in_critical_zone"], steps, 1e3), "us"),
        "escape.escapes": (ratio(calls["escape.start_escape"], rounds), "count"),
        "escape.escape_steps": (ratio(calls["escape.escape_step"], rounds), "count"),
        "sawtooth.us_per_step": (per(sawtooth, steps, 1e3), "us"),
        "sawtooth.replans": (ratio(calls["sawtooth.replan_from"], rounds), "count"),
        "harness.run_scenario.self_us_per_step":
            (per(own["harness.run_scenario"], steps, 1e3), "us"),
        "harness.emit_outputs.ms_per_mission":
            (per(total["harness.emit_outputs"], len(traced), 1e6), "ms"),
        "harness.output_bytes_per_mission":
            (ratio(sum(r.output_bytes for r in traced), len(traced)), "B"),
        "scenario.load_scenario.ms_per_mission":
            (per(total["scenario.load_scenario"], len(traced), 1e6), "ms"),
        "scenario.materialize_obstacles.ms_per_mission":
            (per(total["scenario.materialize_obstacles"], len(traced), 1e6), "ms"),
        "scenario.materialize_obstacles.calls_per_mission":
            (ratio(calls["scenario.materialize_obstacles"], len(traced)), "count"),
        "trace.overhead_ratio":
            (ratio(steps_per_s(traced), steps_per_s(untraced)), "ratio"),
    }
    return m


def write_trace(runner: Runner, path: Path) -> None:
    """Missions, then spans in recording order; `parent` is a span's line
    index among the spans, -1 at the top."""
    with open(path, "w") as f:
        for r in runner.records:
            f.write(json.dumps({"mission": r.id, "key": r.mission.key,
                                "traced": r.traced, "steps": r.steps,
                                "status": r.status}) + "\n")
        for name, t0, t1, parent, mission in runner.probe.spans:
            f.write(f'{{"name": "{name}", "start_ns": {t0}, "end_ns": {t1}, '
                    f'"parent": {parent}, "mission": {mission}}}\n')


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length of each workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records, metrics = [], {}
    for name in names:
        runner = Runner(name, args.seed)
        runner.rounds(args.seconds, bool(args.trace))
        runner.scale()
        records += runner.records
        tally = Counter((r.mission.key, r.status, r.steps) for r in runner.records)
        for (key, status, steps), n in sorted(tally.items()):
            print(f"# {key}: {status} after {steps} steps (x{n})")
        print(f"# {name}: {len(runner.records)} missions attempted, "
              f"{sum(r.failed for r in runner.records)} failed, kernel backend "
              f"{sys.modules['mppf._kernels'].BACKEND}")
        if args.trace:
            OUT.mkdir(parents=True, exist_ok=True)
            write_trace(runner, OUT / f"trace-{name}.jsonl")
            found = per_layer(runner)
        else:
            found = end_to_end(runner)
            ok = [r for r in runner.records if not r.failed]
            wall = decision_ms(ok, wall=True)
            print(f"# {name} in wall-clock time: steps_per_s "
                  f"{steps_per_s(ok, wall=True):.6g}, decide_ms.p50 "
                  f"{quantile(wall, 0.50):.6g}, decide_ms.p99 "
                  f"{quantile(wall, 0.99):.6g}; host speed "
                  f"{statistics.median(runner.speed.factors()):.4g}x "
                  f"reference over {len(runner.speed.ends)} samples")
        # with several workloads, names carry the workload and peak_rss_mb
        # is the process's peak so far
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({
        "correct": not any(r.incorrect for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
