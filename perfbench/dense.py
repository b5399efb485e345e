"""Synthetic dense-N scenarios: a seeded random layout with one announced mover.

N nodes are placed uniformly at random in a square of side 3*sqrt(N) metres,
on the three height levels of the paper's five-node layout (-1, 0, +1 m), so
3-D multilateration has vertical spread to work with. One node, chosen by the
layout seed, makes an announced move to a fresh random point a third of the way into
the run. With the default 30 m radio range every node hears every other, so
receptions grow as N*(N-1) per tick.

The layout seed fixes positions and the move; the noise seed becomes the
scenario seed, which drives the radio noise and link jitter. The document
goes through `Scenario.from_dict`, so the scenario validation runs exactly as
for a user's scenario file.
"""

from __future__ import annotations

import math
import random
from typing import Any

from polsim.scenario import Scenario

HEIGHTS = (-1.0, 0.0, 1.0)


def dense_document(n: int, layout_seed: int, noise_seed: int, duration: int) -> dict[str, Any]:
    """The scenario document for `n` nodes; the same arguments give the same document."""
    if n < 2 or n > 255:
        raise ValueError("dense layouts need 2..255 nodes")
    rng = random.Random(layout_seed * 1_000_003 + n)
    side = 3.0 * math.sqrt(n)

    def point() -> list[float]:
        return [round(rng.uniform(0.0, side), 3), round(rng.uniform(0.0, side), 3), rng.choice(HEIGHTS)]

    nodes = [
        {"id": f"d{i}", "mac": f"02:00:00:00:01:{i:02x}", "position": point()}
        for i in range(1, n + 1)
    ]
    mover = rng.randrange(n)
    return {
        "name": f"dense-{n}",
        "seed": noise_seed,
        "duration": duration,
        "nodes": nodes,
        "movements": [{"node": nodes[mover]["id"], "at": duration // 3, "to": point(), "announce": True}],
    }


def dense_scenario(n: int, layout_seed: int, noise_seed: int, duration: int) -> Scenario:
    return Scenario.from_dict(dense_document(n, layout_seed, noise_seed, duration))
