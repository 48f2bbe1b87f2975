"""The outcome ledger, `tools/outcomes.py`, on a few runs of its set.

The ledger is not pinned: `tools/output_manifest.py` already pins the
bytes. These tests check that it covers its 188 runs once each and that
each line states its own run.
"""

import importlib.util
from pathlib import Path

import pytest

from mppf.harness import run_scenario
from mppf.potentials import MODES
from mppf.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("outcomes", ROOT / "tools" / "outcomes.py")
outcomes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outcomes)


def test_the_ledger_covers_each_run_once():
    pairs = outcomes.runs()
    assert len(set(pairs)) == len(pairs) and len(pairs) * len(MODES) == 188
    stems = [p.stem for p, _ in pairs]
    assert {s: stems.count(s) for s in ("dynamic", "random_static", "anchorage")} == {
        "dynamic": 50, "random_static": 20, "anchorage": 3}
    assert len(set(stems)) == len(list((ROOT / "scenarios").glob("*.yaml"))) + 1


def test_each_line_states_its_run():
    # an escape that ends, one that ends trapped, and a run without escapes,
    # given out of order
    scenarios = ROOT / "scenarios"
    pairs = [(scenarios / "random_static.yaml", 4),
             (scenarios / "concave_trap.yaml", 0),
             (scenarios / "sawtooth.yaml", 1)]
    lines = outcomes.ledger(pairs)
    assert len(lines) == len(pairs) * len(MODES)
    keys = []
    for line in lines:
        name, seed, mode, status, steps, clearance, escapes, *events = line.split(" ")
        seed = int(seed.removeprefix("seed="))
        keys.append((name, seed, mode))
        res = run_scenario(load_scenario(scenarios / f"{name}.yaml"),
                           mode=mode, seed=seed)
        assert status == res.status
        assert steps == f"steps={len(res.trajectory) - 1}"
        assert float(clearance.removeprefix("min_clearance=")) == round(
            res.min_clearance, 4)
        assert escapes == f"escapes={res.escapes}"
        want = [(t, tag) for t, tag in res.events if tag.startswith(
            ("escape_start:", "escape_end", "trapped"))]
        got = [e.split("@") for e in events]
        assert [tag for tag, _ in got] == [tag for _, tag in want]
        assert [float(t) for _, t in got] == pytest.approx([t for t, _ in want])
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert [k[0] for k in keys] == ["concave_trap"] * 2 + ["random_static"] * 2 + ["sawtooth"] * 2
    assert {line.split(" ")[3] for line in lines} == {"reached", "trapped"}
    assert any("escape_end@" in line for line in lines)
