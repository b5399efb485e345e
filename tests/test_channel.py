"""Radio channel: delivery, noise determinism, asymmetry bounds."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from polsim.channel import MAX_ASYMMETRY_JITTER, ChannelConfig, RadioChannel, UnknownNodeError
from polsim.localization import PathLossModel, rssi_value_from_distance
from polsim.messages import RSSI_MAX, RSSI_MIN, Location, NodeId

A = NodeId.from_str("02:00:00:00:00:01")
B = NodeId.from_str("02:00:00:00:00:02")
C = NodeId.from_str("02:00:00:00:00:03")


def quiet_channel(**overrides) -> RadioChannel:
    cfg = dict(noise_sigma=0.0, asymmetry_jitter=0.0, range=30.0, seed=1)
    cfg.update(overrides)
    return RadioChannel(ChannelConfig(model=PathLossModel(), **cfg))


class TestBroadcast:
    def test_reference_distance_delivery(self):
        ch = quiet_channel()
        ch.register(A, Location(0.0, 0.0, 0.0))
        ch.register(B, Location(1.0, 0.0, 0.0))
        deliveries = ch.broadcast(A)
        assert len(deliveries) == 1
        receiver, rssi = deliveries[0]
        assert receiver == B
        assert rssi == pytest.approx(-40.0)

    def test_out_of_range_dropped(self):
        ch = quiet_channel(range=5.0)
        ch.register(A, Location(0.0, 0.0, 0.0))
        ch.register(B, Location(1.0, 0.0, 0.0))
        ch.register(C, Location(50.0, 0.0, 0.0))
        receivers = [r for r, _ in ch.broadcast(A)]
        assert receivers == [B]

    def test_unregistered_sender_errors(self):
        ch = quiet_channel()
        with pytest.raises(UnknownNodeError):
            ch.broadcast(A)

    def test_same_seed_same_deliveries(self):
        def one_run():
            ch = RadioChannel(ChannelConfig(seed=99))
            ch.register(A, Location(0.0, 0.0, 0.0))
            ch.register(B, Location(1.0, 0.0, 0.0))
            ch.register(C, Location(2.0, 0.0, 0.0))
            out = []
            for _ in range(20):
                out.append([(str(r), rssi) for r, rssi in ch.broadcast(A)])
            return out

        assert one_run() == one_run()

    def test_sender_not_delivered_to_itself(self):
        ch = quiet_channel()
        ch.register(A, Location(0.0, 0.0, 0.0))
        ch.register(B, Location(1.0, 0.0, 0.0))
        assert all(r != A for r, _ in ch.broadcast(A))


class TestMove:
    def test_move_changes_rssi_exactly(self):
        ch = quiet_channel()
        ch.register(A, Location(0.0, 0.0, 0.0))
        ch.register(B, Location(1.0, 0.0, 0.0))
        before = ch.broadcast(A)[0][1]
        ch.move(B, Location(2.0, 0.0, 0.0))
        after = ch.broadcast(A)[0][1]
        assert before == pytest.approx(-40.0)
        # doubling the distance with n=2 drops the level by 20*log10(2)
        assert before - after == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_move_to_same_position_no_change(self):
        ch = quiet_channel()
        ch.register(A, Location(0.0, 0.0, 0.0))
        ch.register(B, Location(1.5, 0.0, 0.0))
        before = ch.broadcast(A)[0][1]
        ch.move(B, Location(1.5, 0.0, 0.0))
        assert ch.broadcast(A)[0][1] == pytest.approx(before)

    def test_unknown_node_errors(self):
        ch = quiet_channel()
        with pytest.raises(UnknownNodeError):
            ch.move(A, Location(0.0, 0.0, 0.0))


class TestAsymmetry:
    def test_pairwise_spread_bounded_without_noise(self):
        ch = RadioChannel(
            ChannelConfig(noise_sigma=0.0, asymmetry_jitter=1.0, range=30.0, seed=5)
        )
        positions = {
            A: Location(0.0, 0.0, 0.0),
            B: Location(1.0, 1.0, 0.0),
            C: Location(2.0, 0.0, 1.0),
        }
        for node, pos in positions.items():
            ch.register(node, pos)
        for x in (A, B, C):
            for y in (A, B, C):
                if x == y:
                    continue
                fwd = dict(ch.broadcast(x))[y]
                rev = dict(ch.broadcast(y))[x]
                assert abs(fwd - rev) <= 5.0
                assert abs(fwd - rev) <= 2.0  # 2 * jitter bound

    def test_jitter_fixed_per_link(self):
        ch = RadioChannel(ChannelConfig(noise_sigma=0.0, asymmetry_jitter=1.5, seed=7))
        ch.register(A, Location(0.0, 0.0, 0.0))
        ch.register(B, Location(1.0, 0.0, 0.0))
        values = {ch.broadcast(A)[0][1] for _ in range(10)}
        assert len(values) == 1  # no per-reception variation without noise

    def test_jitter_bound_enforced(self):
        with pytest.raises(ValueError):
            ChannelConfig(asymmetry_jitter=3.0)

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
    def test_seed_at_either_end_of_64_bits_hashes(self, seed):
        ch = RadioChannel(ChannelConfig(asymmetry_jitter=1.5, seed=seed))
        assert abs(ch.link_jitter(A, B)) <= 1.5

    @pytest.mark.parametrize("seed", [-(2**63) - 1, 2**63])
    def test_seed_past_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            ChannelConfig(seed=seed)


class TestMonotonicity:
    def test_farther_is_weaker(self):
        ch = quiet_channel(range=100.0)
        ch.register(A, Location(0.0, 0.0, 0.0))
        previous = 0.0
        for i, d in enumerate((1.0, 2.0, 4.0, 8.0, 16.0)):
            node = NodeId(bytes([3, 0, 0, 0, 0, i]))
            ch.register(node, Location(d, 0.0, 0.0))
        levels = [rssi for _, rssi in ch.broadcast(A)]
        assert levels == sorted(levels, reverse=True)
        assert len(set(levels)) == len(levels)


class TestDeliveredValues:
    """A delivery is one noise draw and a clamp into a plain float."""

    NEAR = NodeId(bytes([4, 0, 0, 0, 0, 0]))  # 1e-4 m: the model level is 0 dB
    FAR = NodeId(bytes([4, 0, 0, 0, 0, 1]))   # 1e6 m: the model level is -120 dB

    @settings(max_examples=150, deadline=None)
    @given(
        p0=st.floats(-60.0, 0.0),
        sigma=st.one_of(st.just(0.0), st.floats(0.1, 60.0)),
        jitter=st.floats(0.0, MAX_ASYMMETRY_JITTER),
        seed=st.integers(-(2**63), 2**63 - 1),
        distances=st.lists(st.floats(0.5, 200.0), max_size=4),
    )
    @example(p0=0.0, sigma=0.0, jitter=0.0, seed=1, distances=[1.0])
    @example(p0=-40.0, sigma=3.0, jitter=2.5, seed=5, distances=[])
    @example(p0=-60.0, sigma=60.0, jitter=1.0, seed=3, distances=[2.0, 9.0, 40.0])  # past both clamps
    def test_float_in_range_drawn_like_the_channel(self, p0, sigma, jitter, seed, distances):
        model = PathLossModel(p0=p0)
        config = ChannelConfig(model=model, noise_sigma=sigma, asymmetry_jitter=jitter, range=1e7, seed=seed)
        ch = RadioChannel(config)
        ch.register(A, Location(0.0, 0.0, 0.0))
        placed = {self.NEAR: 1e-4, self.FAR: 1e6}
        placed.update({NodeId(bytes([5, 0, 0, 0, 0, i])): d for i, d in enumerate(distances)})
        for node, d in placed.items():
            ch.register(node, Location(d, 0.0, 0.0))
        noise = random.Random()
        noise.setstate(RadioChannel(config)._noise.getstate())
        for _ in range(3):
            got = ch.broadcast(A)
            assert [r for r, _ in got] == sorted(placed)
            for receiver, value in got:
                level = rssi_value_from_distance(model, placed[receiver]) + ch.link_jitter(A, receiver)
                assert type(value) is float
                assert RSSI_MIN <= value <= RSSI_MAX
                assert value == min(RSSI_MAX, max(RSSI_MIN, level + noise.gauss(0.0, sigma)))
            if sigma == 0.0 and jitter == 0.0:
                assert dict(got)[self.NEAR] == RSSI_MAX and dict(got)[self.FAR] == RSSI_MIN


class UncachedChannel:
    """Recomputes every delivery from the positions: path loss + link jitter
    + one seeded noise draw per delivery, in receiver order."""

    def __init__(self, config: ChannelConfig):
        self.config = config
        self.positions: dict[NodeId, Location] = {}
        self.jitter = RadioChannel(config)  # link_jitter is a pure function of (seed, link)
        self.noise = random.Random()
        self.noise.setstate(RadioChannel(config)._noise.getstate())

    def broadcast(self, sender: NodeId) -> list[tuple[NodeId, float]]:
        origin = self.positions[sender]
        out = []
        for receiver in sorted(self.positions):
            if receiver == sender:
                continue
            d = origin.distance_to(self.positions[receiver])
            if d > self.config.range:
                continue
            level = rssi_value_from_distance(self.config.model, max(d, 1e-9))
            level += self.jitter.link_jitter(sender, receiver)
            if self.config.noise_sigma > 0:
                level += self.noise.gauss(0.0, self.config.noise_sigma)
            out.append((receiver, min(RSSI_MAX, max(RSSI_MIN, level))))
        return out


NODES = [NodeId(bytes([2, 0, 0, 0, 1, i])) for i in range(6)]
# node positions, in NODES order, for the 10 m range of TestLinkLevelCache
LAYOUTS = {
    # 3 or 4 receivers per sender
    "row-of-5": [Location(3.0 * i, (i % 2) * 1.5, float(i % 3 - 1)) for i in range(5)],
    # 3 receivers per sender: an odd count, so the spare normal of one
    # broadcast is the first delivery's noise of the next sender's
    "square-of-4": [
        Location(0.0, 0.0, 0.0), Location(4.0, 0.0, 0.0), Location(0.0, 4.0, 0.0), Location(4.0, 4.0, 1.0)
    ],
}
# each layout with and without noise; a row-of-5 input keeps the bare sigma id
SIGMA_LAYOUTS = [
    pytest.param(sigma, layout, id=str(sigma) if layout == "row-of-5" else f"{sigma}-{layout}")
    for layout in LAYOUTS
    for sigma in (2.0, 0.0)
]


class TestLinkLevelCache:
    """Cached link levels must give exactly the deliveries of a recomputation."""

    def pair(self, **overrides):
        cfg = dict(noise_sigma=2.0, asymmetry_jitter=1.5, range=10.0, seed=11)
        cfg.update(overrides)
        config = ChannelConfig(model=PathLossModel(), **cfg)
        return RadioChannel(config), UncachedChannel(config)

    def register(self, ch, ref, node, pos):
        ch.register(node, pos)
        ref.positions[node] = pos

    def move(self, ch, ref, node, pos):
        ch.move(node, pos)
        ref.positions[node] = pos

    def receivers(self, ch, ref, sender):
        """Broadcast once on both channels; the deliveries must be equal."""
        got = ch.broadcast(sender)
        assert got == ref.broadcast(sender)
        return [r for r, _ in got]

    def assert_rounds(self, ch, ref, rounds=3):
        for _ in range(rounds):
            for sender in sorted(ref.positions):
                self.receivers(ch, ref, sender)

    def place(self, ch, ref, layout):
        for node, pos in zip(NODES, LAYOUTS[layout]):
            self.register(ch, ref, node, pos)

    @pytest.mark.parametrize("sigma, layout", SIGMA_LAYOUTS)
    def test_matches_uncached_recomputation(self, sigma, layout):
        ch, ref = self.pair(noise_sigma=sigma)
        self.place(ch, ref, layout)
        self.assert_rounds(ch, ref)
        if layout == "square-of-4":
            assert [len(self.receivers(ch, ref, sender)) for sender in NODES[:4]] == [3, 3, 3, 3]

    @pytest.mark.parametrize("sigma, layout", SIGMA_LAYOUTS)
    def test_move_of_sender_and_of_receiver(self, sigma, layout):
        ch, ref = self.pair(noise_sigma=sigma)
        self.place(ch, ref, layout)
        self.assert_rounds(ch, ref, rounds=1)
        self.move(ch, ref, NODES[0], Location(1.0, 4.0, 0.0))  # a sender moves
        self.assert_rounds(ch, ref)
        self.move(ch, ref, NODES[3], Location(5.0, -2.0, 1.0))  # a receiver of NODES[2] moves
        assert NODES[3] in self.receivers(ch, ref, NODES[2])
        self.assert_rounds(ch, ref)

    @pytest.mark.parametrize("sigma, layout", SIGMA_LAYOUTS)
    def test_late_register(self, sigma, layout):
        ch, ref = self.pair(noise_sigma=sigma)
        self.place(ch, ref, layout)
        self.assert_rounds(ch, ref, rounds=1)
        self.register(ch, ref, NODES[5], Location(4.0, 1.0, 0.0))
        assert NODES[5] in self.receivers(ch, ref, NODES[1])
        self.assert_rounds(ch, ref)

    @pytest.mark.parametrize("sigma", [2.0, 0.0])
    def test_receiver_leaves_range_and_returns(self, sigma):
        ch, ref = self.pair(noise_sigma=sigma)
        self.register(ch, ref, NODES[0], Location(0.0, 0.0, 0.0))
        self.register(ch, ref, NODES[1], Location(9.0, 0.0, 0.0))
        self.register(ch, ref, NODES[2], Location(0.0, 5.0, 0.0))
        assert NODES[1] in self.receivers(ch, ref, NODES[0])
        self.move(ch, ref, NODES[1], Location(10.5, 0.0, 0.0))  # out of range of NODES[0]
        assert NODES[1] not in self.receivers(ch, ref, NODES[0])
        self.assert_rounds(ch, ref)
        self.move(ch, ref, NODES[1], Location(10.0, 0.0, 0.0))  # exactly at the range: in
        assert NODES[1] in self.receivers(ch, ref, NODES[0])
        self.assert_rounds(ch, ref)
