"""Record the libm inputs of the bundled runs and the bits they return.

Runs every bundled scenario plus `missionbench/anchorage.yaml` at seed 0
in both planner modes with `sin`, `cos`, `tan`, `atan2`, `acos`, `asin`,
`exp` and `math.remainder` wrapped, keeps up to PER_FUNCTION of the
distinct arguments each function saw (spread evenly over the order they
first appeared), and prints one JSON object: function name -> list of
`[argument hex..., result hex]`. `tests/test_libm_canary.py` pins this
output, so when the output manifest differs on another host, that test
either names libm or rules it out. To record the pins again:

    python3 tools/libm_canary.py > tests/libm_canary.json

Needs only the standard library and the `mppf` package of this tree.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mppf import _kernels  # noqa: E402
from mppf.harness import run_scenario  # noqa: E402
from mppf.potentials import MODES  # noqa: E402
from mppf.scenario import load_scenario  # noqa: E402

FUNCTIONS = ("sin", "cos", "tan", "atan2", "acos", "asin", "exp", "remainder")
PER_FUNCTION = 50
SCENARIOS = (*sorted((ROOT / "scenarios").glob("*.yaml")),
             ROOT / "missionbench" / "anchorage.yaml")


def record() -> dict[str, list[list[str]]]:
    """The pins: per function, sampled distinct arguments and the result,
    each as float.hex()."""
    seen: dict[str, dict[tuple[float, ...], None]] = {f: {} for f in FUNCTIONS}
    originals = {f: getattr(math, f) for f in FUNCTIONS}

    def wrap(name):
        fn, calls = originals[name], seen[name]

        def wrapped(*args):
            calls[tuple(float(a) for a in args)] = None
            return fn(*args)
        return wrapped

    kernel_acos = _kernels.acos
    try:
        for name in FUNCTIONS:
            setattr(math, name, wrap(name))
        _kernels.acos = math.acos  # the kernel imports acos by name
        for path in SCENARIOS:
            sc = load_scenario(path)
            for mode in MODES:
                run_scenario(sc, mode=mode, seed=0)
    finally:
        for name, fn in originals.items():
            setattr(math, name, fn)
        _kernels.acos = kernel_acos

    pins = {}
    for name in FUNCTIONS:
        args = list(seen[name])
        n = min(len(args), PER_FUNCTION)
        picked = [args[i * len(args) // n] for i in range(n)]
        pins[name] = [[a.hex() for a in arg]
                      + [float(originals[name](*arg)).hex()] for arg in picked]
    return pins


def main() -> int:
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
