"""A libm canary: the bits of the math functions the bundled runs call.

`tests/libm_canary.json` holds about 300 arguments that the bundled runs
pass to `sin`, `cos`, `tan`, `atan2`, `acos`, `asin`, `exp` and
`math.remainder`, each with the result it returned when the file was
recorded by `tools/libm_canary.py`. If the output manifest differs on
some host, this test tells whether that host's libm rounds any of them
differently. The pins have been checked only against glibc 2.36 on
x86-64; another libm may fail here and still be correct to within an ulp.
"""

import json
import math
from pathlib import Path

PINS = Path(__file__).resolve().parent / "libm_canary.json"


def test_libm_returns_the_pinned_bits():
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(["sin", "cos", "tan", "atan2", "acos",
                                   "asin", "exp", "remainder"])
    assert sum(map(len, pins.values())) >= 250
    wrong = []
    for name, rows in pins.items():
        fn = getattr(math, name)
        for *args, want in rows:
            got = float(fn(*map(float.fromhex, args))).hex()
            if got != want:
                wrong.append(f"math.{name}{tuple(args)} = {got}, pinned {want}")
    assert wrong == []
