"""The byte-identity gate: every standard output file of the 60-run set.

`tools/output_manifest.py` hashes the `trajectory.csv`, `summary.yaml` and
both SVG views of the bundled scenarios plus `missionbench/anchorage.yaml`,
at seeds 0-2 in both planner modes. A change that means to alter outputs
updates PINNED here and lists the runs whose files changed in CHANGES.md
(`diff` of the tool's full output at the parent and at the change names
them).
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_manifest.py"
PINNED = "b019fd8c7fa98da855cf0cfbce54d63f0dd83b5a7dcac36b288e7b4939152e66  240 files"


def test_output_manifest_matches_the_pin(capsys):
    spec = importlib.util.spec_from_file_location("output_manifest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == PINNED
