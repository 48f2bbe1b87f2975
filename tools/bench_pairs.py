"""Alternating benchmark pairs: a parent commit against this working tree.

Runs the mission benchmark (`missionbench/run.py --workload all`) on the
committed files of PARENT and on the working tree, PAIRS times each, with
`--seed` 1..PAIRS. Odd pairs run the parent first, even pairs the working
tree first. One traced pair (`--trace 1`, seed PAIRS + 1, parent first)
follows, for the per-layer figures. The run length is BENCHMARK.json's
`run_seconds`, and each end-to-end metric's direction is its `better`.

    python3 tools/bench_pairs.py HEAD~1 10 BENCH_<n>.json

Writes one JSON object: each run's result and `#` lines (`pairs`,
`traced_runs`), the missions attempted and failed (`missions`), per
workload and end-to-end metric the medians, the inclusive quartiles, the
spreads between them and the share of pairs the working tree wins
(`summary`), and the traced per-layer figures (`traced_per_layer`). The
claim and the reading are left to the author.

The parent is unpacked from `git archive` into a temporary directory,
removed at the end. Runs set PYTHONDONTWRITEBYTECODE=1, so both sides
compile `mppf` on every set-up. Needs only the standard library and git.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "missionbench/run.py"


def command(seed: int, seconds: float, trace: int) -> list[str]:
    return [sys.executable, RUN, "--workload", "all", "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def run_once(tree: Path, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """The run's JSON result and its `#` lines."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(command(seed, seconds, trace), cwd=tree, env=env,
                         check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("#")]


def run_pair(trees: dict[str, Path], seed: int, first: str, seconds: float,
             trace: int) -> dict:
    pair = {"seed": seed, "first": first}
    for side in (first, "change" if first == "parent" else "parent"):
        print(f"seed {seed} trace {trace}: {side}", file=sys.stderr, flush=True)
        pair[side], pair[f"{side}_wall"] = run_once(trees[side], seed, seconds, trace)
    return {k: pair[k] for k in ("seed", "first", "parent", "parent_wall",
                                 "change", "change_wall")}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and end-to-end metric (`better` maps each metric name
    to "higher" or "lower"): medians, inclusive quartiles and their spread
    on each side, the change's median relative to the parent's, and how
    many pairs the change wins, ties counting for neither side."""
    workloads = []
    for key in pairs[0]["parent"]["metrics"]:
        workload, _, name = key.partition(".")
        if name in better and workload not in workloads:
            workloads.append(workload)
    summary = {}
    for workload in workloads:
        summary[workload] = {}
        for name, direction in better.items():
            key = f"{workload}.{name}"
            sides = {side: [p[side]["metrics"][key]["value"] for p in pairs]
                     for side in ("parent", "change")}
            quart = {side: statistics.quantiles(v, n=4, method="inclusive")
                     for side, v in sides.items()}
            med = {side: statistics.median(v) for side, v in sides.items()}
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (c - p) > 0.0
                       for p, c in zip(sides["parent"], sides["change"]))
            summary[workload][name] = {
                "better": direction,
                "parent_median": round(med["parent"], 6),
                "change_median": round(med["change"], 6),
                "change_vs_parent": round(med["change"] / med["parent"] - 1.0, 4),
                "parent_quartiles": [round(quart["parent"][0], 6),
                                     round(quart["parent"][2], 6)],
                "change_quartiles": [round(quart["change"][0], 6),
                                     round(quart["change"][2], 6)],
                "parent_iqr": round(quart["parent"][2] - quart["parent"][0], 6),
                "change_iqr": round(quart["change"][2] - quart["change"][0], 6),
                "change_wins": wins,
                "pairs": len(pairs),
            }
    return summary


def missions(pairs: list[dict]) -> dict:
    """Missions attempted and failed on each side over all pairs, and
    whether every run's outputs checked correct."""
    sides = ("parent", "change")
    return {"attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in sides},
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
            "correct": {s: all(p[s]["correct"] for p in pairs) for s in sides}}


def per_layer(runs: list[dict]) -> dict:
    """Each traced metric's values, one per traced pair, on each side."""
    keys = runs[0]["parent"]["metrics"] if runs else {}
    return {k: {s: [round(r[s]["metrics"][k]["value"], 4) for r in runs]
                for s in ("parent", "change")} for k in keys}


def unpack(commit: str, into: Path) -> None:
    """The committed files of `commit`, from git archive, under `into`."""
    data = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the commit to compare the working tree with")
    ap.add_argument("pairs", type=int, help="untraced pairs to run")
    ap.add_argument("out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    # statistics.quantiles needs two values a side
    if args.pairs < 2:
        ap.error("pairs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    # a SIGTERM unwinds like Ctrl-C: the running benchmark is killed and the
    # parent's checkout removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        unpack(parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        pairs = [run_pair(trees, seed, "parent" if seed % 2 else "change", seconds, 0)
                 for seed in range(1, args.pairs + 1)]
        traced = [run_pair(trees, args.pairs + 1, "parent", seconds, 1)]

    def shown(seed, trace):
        return "python3 " + " ".join(command(seed, seconds, trace)[1:])

    result = {
        "what": f"mission benchmark, parent commit vs this change, "
                f"{args.pairs} alternating pairs",
        "command": shown(0, 0).replace("--seed 0", "--seed <pair>"),
        "traced_command": f"{shown(args.pairs + 1, 1)}, one pair after the "
                          f"untraced ones, parent first; per-layer times are "
                          f"wall-clock microseconds, not scaled",
        "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                f"Python {platform.python_version()}, PYTHONDONTWRITEBYTECODE=1; "
                f"times scaled to reference host speed by missionbench/speed.py",
        "parent": parent,
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the "
                     "runs of a side",
        "summary": summarize(pairs, better),
        "missions": missions(pairs),
        "traced_per_layer": per_layer(traced),
        "pairs": pairs,
        "traced_runs": traced,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
