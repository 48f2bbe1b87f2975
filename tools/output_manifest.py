"""One hash over every standard output file of a fixed set of runs.

Runs the bundled scenarios plus `missionbench/anchorage.yaml`, at seeds
0-2 and in both planner modes (60 runs), writes each run's
`trajectory.csv`, `summary.yaml` and two SVG views with `emit_outputs`
into a temporary directory, and prints every file's sha256, sorted,
followed by one sha256 over those lines. Two trees that print the same
last line produce the same bytes on all 240 files, so a change that must
leave outputs alone is checked by running this on the parent and on the
change; `diff` of the two outputs names any file that differs:

    python3 tools/output_manifest.py | tail -n 1

Needs only the standard library and the `mppf` package of this tree.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mppf.harness import emit_outputs, run_scenario  # noqa: E402
from mppf.potentials import MODES  # noqa: E402
from mppf.scenario import load_scenario  # noqa: E402

SCENARIOS = (*sorted((ROOT / "scenarios").glob("*.yaml")),
             ROOT / "missionbench" / "anchorage.yaml")
SEEDS = (0, 1, 2)


def manifest(out_dir: Path) -> list[str]:
    """`sha256sum`-style lines, sorted, one per emitted file."""
    lines = []
    for path in SCENARIOS:
        sc = load_scenario(path)
        for seed in SEEDS:
            for mode in MODES:
                run_dir = out_dir / path.stem / mode / f"seed{seed}"
                res = run_scenario(sc, mode=mode, seed=seed)
                for f in emit_outputs(res, sc, run_dir).values():
                    digest = hashlib.sha256(f.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {f.relative_to(out_dir)}\n")
    return sorted(lines)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = manifest(Path(tmp))
    sys.stdout.write("".join(lines))
    total = hashlib.sha256("".join(lines).encode()).hexdigest()
    print(f"{total}  {len(lines)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
