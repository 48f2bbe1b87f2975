"""Generate the benchmark's `anchorage` scenario: a dense static sphere field.

150 spheres in a 200 m square, between the surface and 30 m, with the
route crossing the middle of the field. The sonar scan covers every
obstacle on every step, and the tracked set grows to about 100 obstacles
(about 900 surface points per decision), which is where per-obstacle
costs show.

Regenerate the committed file from the repository root with:

    python3 missionbench/make_anchorage.py > missionbench/anchorage.yaml

The field is drawn from its own `random.Random(LAYOUT_SEED)`, so the file
does not depend on how mppf materializes random obstacles.
"""

from __future__ import annotations

import math
import random

LAYOUT_SEED = 3
COUNT = 150
SIDE = 200.0
DEPTH = (0.0, 30.0)
RADIUS = (0.5, 7.0)
KEEPOUT = 8.0
START = (40.0, 100.0, 0.0)
GOAL = (160.0, 100.0, 0.0)


def spheres() -> list[tuple[float, tuple[float, float, float]]]:
    """(radius, center) of each sphere, kept clear of start and goal."""
    rng = random.Random(LAYOUT_SEED)
    out = []
    while len(out) < COUNT:
        r = round(rng.uniform(*RADIUS), 3)
        c = (round(rng.uniform(0.0, SIDE), 3), round(rng.uniform(0.0, SIDE), 3),
             round(rng.uniform(*DEPTH), 3))
        if math.dist(c, START) < r + KEEPOUT or math.dist(c, GOAL) < r + KEEPOUT:
            continue
        out.append((r, c))
    return out


def scenario_text() -> str:
    lines = [
        "# Dense static anchorage for the mission benchmark; generated by",
        "# missionbench/make_anchorage.py, do not edit by hand.",
        "schema_version: 1",
        "name: anchorage",
        "mode: advanced",
        "max_steps: 1500",
        f"start: [{START[0]:g}, {START[1]:g}, {START[2]:g}]",
        f"goal: [{GOAL[0]:g}, {GOAL[1]:g}, {GOAL[2]:g}]",
        f"bounds: {{x: {SIDE:g}, y: {SIDE:g}, depth: 50}}",
        "obstacles:",
    ]
    for r, (x, y, z) in spheres():
        lines.append(f"  - {{shape: sphere, radius: {r!r}, "
                     f"center: [{x!r}, {y!r}, {z!r}]}}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(scenario_text(), end="")
