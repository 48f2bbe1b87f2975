"""The outcome ledger: one line per run of a fixed set of runs.

Runs every bundled scenario plus `missionbench/anchorage.yaml` in both
planner modes: `dynamic` at seeds 0-49, `random_static` at 0-19 and every
other file at 0-2 (188 runs). Prints one line per (scenario, seed, mode),
in that order, with the run's status, its steps, `min_clearance`, its escape
count and each escape event with its time:

    dynamic seed=20 baseline collision steps=118 min_clearance=-0.0870 escapes=1 escape_start:ascending@72

`tools/output_manifest.py` tells *that* some output byte changed; the
`diff` of this ledger at two trees tells *which outcomes* changed:

    python3 tools/outcomes.py > ledger.txt

Needs only the standard library and the `mppf` package of this tree.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mppf.harness import run_scenario  # noqa: E402
from mppf.potentials import MODES  # noqa: E402
from mppf.scenario import load_scenario  # noqa: E402

SCENARIOS = (*sorted((ROOT / "scenarios").glob("*.yaml")),
             ROOT / "missionbench" / "anchorage.yaml")
SEEDS = {"dynamic": range(50), "random_static": range(20)}
ESCAPE_TAGS = ("escape_start:", "escape_end", "trapped")


def runs() -> list[tuple[Path, int]]:
    """(scenario file, seed) of every run; each is run in both modes."""
    return [(path, seed) for path in SCENARIOS
            for seed in SEEDS.get(path.stem, range(3))]


def outcome(name: str, result, mode: str) -> str:
    """The ledger line of one run."""
    events = " ".join(f"{tag}@{t:g}" for t, tag in result.events
                      if tag.startswith(ESCAPE_TAGS))
    return (f"{name} seed={result.seed} {mode} {result.status} "
            f"steps={len(result.trajectory) - 1} "
            f"min_clearance={result.min_clearance:.4f} "
            f"escapes={result.escapes} {events}").rstrip()


def ledger(pairs) -> list[str]:
    """The ledger lines of the given (scenario file, seed) runs, sorted by
    scenario name, seed and mode."""
    rows, loaded = [], {}
    for path, seed in pairs:
        if path not in loaded:
            loaded[path] = load_scenario(path)
        for mode in MODES:
            res = run_scenario(loaded[path], mode=mode, seed=seed)
            rows.append(((path.stem, seed, mode), outcome(path.stem, res, mode)))
    return [line for _, line in sorted(rows)]


def main() -> int:
    print("\n".join(ledger(runs())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
