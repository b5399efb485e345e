"""Scenario validation and the builtin experiment definitions."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from polsim.channel import ChannelConfig
from polsim.cli import main
from polsim.filters import (
    DynamicMovingAverageState,
    GaussianState,
    KalmanState,
    MedianState,
    MovingAverageState,
    TriggerState,
)
from polsim.kinds import _schema
from polsim.localization import PathLossModel
from polsim.messages import Location, NodeId
from polsim.protocol import FilterParams, ProtocolParams
from polsim.scenario import (
    AttackKind,
    BUILTIN_NAMES,
    NodeSpec,
    Scenario,
    ScenarioError,
    builtin_scenario,
)


def minimal_doc() -> dict:
    return {
        "name": "test",
        "seed": 1,
        "duration": 100,
        "nodes": [
            {"id": "a", "mac": "02:00:00:00:00:01", "position": [0, 0, 0]},
            {"id": "b", "mac": "02:00:00:00:00:02", "position": [1, 0, 0]},
        ],
    }


# every bounded parameter, with the arguments its dataclass needs besides it
_BOUNDED = [
    *((ProtocolParams, name, {}) for name in (
        "epsilon", "tau", "trust_step", "consistency_tol", "pool_ttl", "bft_window",
        "history_window", "location_grid", "verify_slack_cells", "min_anchors",
        "anchor_freshness", "residual_cap", "max_gdop", "alert_cooldown", "moved_ttl",
    )),
    *((ChannelConfig, name, {}) for name in ("noise_sigma", "asymmetry_jitter", "range")),
    *((PathLossModel, name, {}) for name in ("p0", "n", "d0")),
    *((TriggerState, name, {"threshold": 6.0, "cooldown": 30})
      for name in ("threshold", "cooldown", "rebaseline_after", "warmup")),
    *((FilterParams, name, {}) for name in ("trigger_threshold", "trigger_cooldown", "warmup")),
    *((KalmanState, name, {}) for name in ("q", "r")),
    (MedianState, "window", {}),
    (MovingAverageState, "window", {}),
    *((DynamicMovingAverageState, name, {}) for name in ("max_window", "threshold")),
    *((GaussianState, name, {}) for name in ("sigma", "window")),
]


@pytest.mark.parametrize(
    "cls, name, args", _BOUNDED, ids=[f"{cls.__name__}.{name}" for cls, name, _ in _BOUNDED]
)
def test_nan_fails_every_bound(cls, name, args):
    """NaN compares false with everything, so a bound written `x <= 0` would let it pass."""
    with pytest.raises(ValueError):
        cls(**{**args, name: math.nan})


class TestValidation:
    def test_minimal_document_valid(self):
        scenario = Scenario.from_dict(minimal_doc())
        assert scenario.duration == 100
        assert len(scenario.nodes) == 2

    def test_unknown_top_level_key_rejected(self):
        doc = minimal_doc()
        doc["surprise"] = 1
        with pytest.raises(ScenarioError, match="unknown key 'surprise'"):
            Scenario.from_dict(doc)

    def test_unknown_nested_keys_rejected(self):
        doc = minimal_doc()
        doc["nodes"][0]["colour"] = "red"
        doc["channel"] = {"p0": -40, "gain": 3}
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict(doc)
        text = str(err.value)
        assert "colour" in text and "gain" in text

    def test_all_violations_reported_at_once(self):
        doc = minimal_doc()
        doc["duration"] = -5
        doc["nodes"].append({"id": "a", "mac": "02:00:00:00:00:03", "position": [0, 1, 0]})
        doc["movements"] = [{"node": "zz", "at": 10, "to": [0, 0, 0]}]
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict(doc)
        assert len(err.value.violations) >= 3

    def test_movement_time_bounds(self):
        doc = minimal_doc()
        doc["movements"] = [{"node": "a", "at": 100, "to": [0, 0, 0]}]
        with pytest.raises(ScenarioError, match="outside"):
            Scenario.from_dict(doc)

    def test_attack_requires_known_victim(self):
        doc = minimal_doc()
        doc["attacks"] = [
            {"type": "identity_spoof", "at": 10, "params": {"victim": "zz", "attacker_position": [0, 0, 0]}}
        ]
        with pytest.raises(ScenarioError, match="not a scenario node"):
            Scenario.from_dict(doc)

    def test_transmitter_ids_within_range_and_apart_from_the_macs_are_accepted(self):
        doc = minimal_doc()
        doc["nodes"][1]["mac"] = "02:00:00:00:aa:f0"  # the id of a transmitter at index 0
        spoof = {"type": "identity_spoof", "at": 3, "params": {"victim": "a", "attacker_position": [0, 0, 0]}}
        bft = {"type": "malicious_bft", "at": 3, "params": {"attacker": "a", "victim": "b"}}
        # indices 1 to 15 transmit; a lying BFT comes from its attacker node at any index
        doc["attacks"] = [bft, *[spoof] * 15, bft]
        scenario = Scenario.from_dict(doc)
        assert len(scenario.attacks) == 17

    def test_duplicate_macs_rejected(self):
        doc = minimal_doc()
        doc["nodes"][1]["mac"] = doc["nodes"][0]["mac"]
        with pytest.raises(ScenarioError, match="duplicate mac"):
            Scenario.from_dict(doc)

    def test_json_roundtrip(self):
        scenario = builtin_scenario("paper-fig7", seed=5)
        clone = Scenario.from_json(scenario.to_json())
        assert clone.to_dict() == scenario.to_dict()

    def test_integer_for_a_number_is_stored_as_a_float(self):
        doc = minimal_doc()
        doc["channel"] = {"p0": -40, "range": 30}
        doc["protocol"] = {"tau": 3}
        doc["attacks"] = [{"type": "malicious_bft", "at": 3,
                           "params": {"attacker": "a", "victim": "b", "fake_rssi": -90}}]
        scenario = Scenario.from_dict(doc)
        stored = (scenario.channel.model.p0, scenario.channel.range, scenario.protocol.tau,
                  scenario.nodes[1].position.x, scenario.attacks[0].params["fake_rssi"])
        assert [type(v) for v in stored] == [float] * 5
        assert stored == (-40.0, 30.0, 3.0, 1.0, -90.0)
        text = scenario.to_json()
        assert Scenario.from_json(text).to_json() == text

    def test_bad_json_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            Scenario.from_json("{nope")

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("verify_slack_cells", -1, "verify_slack_cells"),
            ("min_anchors", 0, "min_anchors"),
            ("min_anchors", 3, "min_anchors"),
            ("alert_cooldown", -5, "alert_cooldown"),
            ("moved_ttl", -1, "moved_ttl"),
            # initial_trust is no longer a parameter: a value outside its old
            # [0, 1] bound, like any value, fails as an unknown key.
            ("initial_trust", 7.0, "unknown key 'initial_trust'"),
            ("initial_trust", -0.5, "unknown key 'initial_trust'"),
            # a count above 1 is whole: int() would drop the fraction
            ("tau", 2.9, "tau must be a whole number"),
        ],
        ids=["verify_slack_cells--1", "min_anchors-0", "min_anchors-3", "alert_cooldown--5",
             "moved_ttl--1", "initial_trust-7.0", "initial_trust--0.5", "tau-2.9"],
    )
    def test_protocol_bound_is_a_scenario_error(self, key, bad, message):
        doc = minimal_doc()
        doc["protocol"] = {key: bad}
        with pytest.raises(ScenarioError, match=f"protocol: {message}"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"nodes": 5}, "nodes must be a list"),
            ({"movements": 5}, "movements must be a list"),
            ({"attacks": 5}, "attacks must be a list"),
            ({"tick_ms": "x"}, "unknown key 'tick_ms'"),
            ({"tick_ms": 2.5}, "unknown key 'tick_ms'"),
            ({"tick_ms": True}, "unknown key 'tick_ms'"),
            ({"duration": True}, "duration must be a positive integer"),
            ({"seed": True}, "seed must be an integer"),
            # a top-level key: its message names no section
            ({"seed": 2**64}, r"(?<!channel: )seed must be in \[-2\*\*63, 2\*\*63\)"),
            ({"seed": -(2**63) - 1}, r"(?<!channel: )seed must be in \[-2\*\*63, 2\*\*63\)"),
            ({"nodes": [{"mac": "02:00:00:00:00:01", "position": [0, 0, 0]}]},
             r"nodes\[0\]: missing key 'id'"),
            ({"movements": [{"node": "a", "at": 3}]}, r"movements\[0\]: missing key 'to'"),
            ({"attacks": [{"at": 3}]}, r"attacks\[0\]: missing key 'type'"),
            ({"movements": [{"node": "a", "at": True, "to": [0, 0, 0]}]},
             r"movements\[0\]: at must be an integer, not True"),
            ({"nodes": [{"id": "a", "mac": "02:00:00:00:00:01", "position": [0, 0, 0], "payload_period": 2.9}]},
             r"nodes\[0\]: payload_period must be a positive integer, not 2.9"),
            ({"protocol": {"pool_ttl": "7"}}, "protocol: pool_ttl must be an integer, not '7'"),
            ({"filters": {"trigger_cooldown": 2.9}}, "filters: trigger_cooldown must be an integer, not 2.9"),
            ({"movements": [{"node": "a", "at": 3, "to": [0, 0, 0], "announce": "no"}]},
             r"movements\[0\]: announce must be true or false, not 'no'"),
            ({"channel": {"noise_sigma": "1.5"}}, "channel: noise_sigma must be a number, not '1.5'"),
            ({"attacks": [{"type": "malicious_bft", "at": 3,
                           "params": {"attacker": "a", "victim": "b", "until": "x"}}]},
             r"attacks\[0\]: params: until must be an integer, not 'x'"),
            ({"attacks": [{"type": "malicious_bft", "at": 3,
                           "params": {"attacker": "a", "victim": "b", "fake_rssi": 5}}]},
             r"attacks\[0\]: params: fake_rssi must be a number in \[-120.0, 0.0\], not 5"),
            ({"attacks": [{"type": "identity_spoof", "at": 3,
                           "params": {"victim": "a", "attacker_position": [0, 0, 0], "period": True}}]},
             r"attacks\[0\]: params: period must be a positive integer, not True"),
            # Python's JSON reader parses NaN and +-Infinity; no number may be either
            ({"channel": {"noise_sigma": math.nan}}, "channel: noise_sigma must be a number, not nan"),
            ({"protocol": {"tau": math.inf}}, "protocol: tau must be a number or null, not inf"),
            ({"filters": {"trigger_threshold": -math.inf}},
             "filters: trigger_threshold must be a number, not -inf"),
            ({"nodes": [{"id": "a", "mac": "02:00:00:00:00:01", "position": [math.nan, 0, 0]}]},
             r"nodes\[0\]: position must be \[x, y, z\] numbers, not \[nan, 0, 0\]"),
            ({"attacks": [{"type": "identity_spoof", "at": 3,
                           "params": {"victim": "a", "attacker_position": [0, 0, math.inf]}}]},
             r"attacks\[0\]: params: attacker_position must be \[x, y, z\] numbers, not \[0, 0, inf\]"),
            # a BFT about its own sender, and transmitter ids out of range or on a node's mac
            ({"attacks": [{"type": "malicious_bft", "at": 3, "params": {"attacker": "b", "victim": "b"}}]},
             r"attacks\[0\]: attacker and victim must differ, both are 'b'"),
            ({"attacks": [{"type": "replay", "at": 3, "params": {"victim": "a", "attacker_position": [0, 0, 0]}}
                          for _ in range(17)]},
             r"attacks\[16\]: a replay attack sends from 02:00:00:00:aa:\(f0 \+ its index\), "
             r"so its index must be below 16"),
            ({"nodes": [{"id": "a", "mac": "02:00:00:00:aa:f0", "position": [0, 0, 0]}],
              "attacks": [{"type": "identity_spoof", "at": 3,
                           "params": {"victim": "a", "attacker_position": [0, 0, 0]}}]},
             r"attacks\[0\]: transmitter id 02:00:00:00:aa:f0 is the mac of a scenario node"),
            # an id is an unquoted rssi.csv field: no field separator, quote or line end
            *(
                ({"nodes": [{"id": bad, "mac": "02:00:00:00:00:01", "position": [0, 0, 0]}]},
                 re.escape(f"nodes[0]: id must be a string without ',', '\"', '\\r' or '\\n' "
                           f"(an rssi.csv field), not {bad!r}"))
                for bad in ("n,1", 'n"1', "n\r1", "n\n1")
            ),
            # a mac is six two-hex-digit octets: nothing int(..., 16) would also read
            *(
                ({"nodes": [{"id": "a", "mac": mac, "position": [0, 0, 0]}]},
                 re.escape(f"nodes[0]: mac octet {octet!r} of {mac!r} is not two hex digits"))
                for mac, octet in (
                    ("0x2:00:00:00:00:01", "0x2"), ("+2:00:00:00:00:01", "+2"), (" 2:00:00:00:00:01", " 2"),
                    ("0_2:00:00:00:00:01", "0_2"), ("002:00:00:00:00:01", "002"), ("2:0:0:0:0:1", "2"),
                    ("zz:00:00:00:00:01", "zz"),
                )
            ),
            ({"nodes": [{"id": "a", "mac": "02:00:00:00:01", "position": [0, 0, 0]}]},
             re.escape("nodes[0]: mac must be six octets joined by ':', not '02:00:00:00:01'")),
            # an attack that can never act: over before it starts, or a replay of no payload
            *(
                ({"attacks": [{"type": kind, "at": 20, "params": {**params, "until": 10}}]},
                 re.escape("attacks[0]: params: until 10 is before at 20"))
                for kind, params in (
                    ("malicious_bft", {"attacker": "a", "victim": "b"}),
                    ("identity_spoof", {"victim": "a", "attacker_position": [0, 0, 0]}),
                )
            ),
            *(
                ({"attacks": [{"type": "replay", "at": 3,
                               "params": {"victim": "a", "attacker_position": [0, 0, 0], "count": count}}]},
                 re.escape(f"attacks[0]: params: count must be a positive integer or null, not {count}"))
                for count in (0, -1)
            ),
        ],
        ids=["nodes-not-list", "movements-not-list", "attacks-not-list", "tick-ms-string",
             "tick-ms-float", "tick-ms-bool", "duration-bool", "seed-bool", "seed-too-big",
             "seed-too-small",
             "node-missing-id", "movement-missing-to", "attack-missing-type", "movement-at-bool",
             "payload-period-float", "pool-ttl-string", "trigger-cooldown-float", "announce-string",
             "channel-string-number", "attack-until-string", "attack-fake-rssi-out-of-range",
             "attack-period-bool", "channel-nan", "protocol-infinity", "filters-minus-infinity",
             "node-position-nan", "attacker-position-infinity", "bft-attacker-is-victim",
             "transmitter-index-16", "transmitter-id-is-a-node-mac",
             "node-id-comma", "node-id-quote", "node-id-cr", "node-id-lf",
             "mac-0x", "mac-plus", "mac-space", "mac-underscore", "mac-three-digits", "mac-one-digit",
             "mac-not-hex", "mac-five-octets", "bft-until-before-at", "spoof-until-before-at",
             "replay-count-zero", "replay-count-negative"],
    )
    def test_malformed_document_is_a_scenario_error(self, patch, message, tmp_path, capsys):
        doc = minimal_doc()
        doc.update(patch)
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
        assert re.search(f"scenario error: .*{message}", capsys.readouterr().err)
        assert not out.exists()

    def test_attack_bounds_that_can_act_load(self):
        """An attack may end at the tick it starts, and a replay may send once."""
        doc = minimal_doc()
        doc["attacks"] = [
            {"type": "malicious_bft", "at": 20, "params": {"attacker": "a", "victim": "b", "until": 20}},
            {"type": "replay", "at": 3, "params": {"victim": "a", "attacker_position": [0, 0, 0], "count": 1}},
        ]
        scenario = Scenario.from_dict(doc)
        assert [a.params.get("until", a.params.get("count")) for a in scenario.attacks] == [20, 1]

    @pytest.mark.parametrize("bad", ["n,1", 'n"1', "n\r1", "n\n1"])
    def test_node_spec_built_in_code_rejects_a_bad_id(self, bad):
        """The id rule of the loader holds for a NodeSpec built without it."""
        with pytest.raises(ValueError, match=re.escape(f"node id must be a string without ',', '\"'")):
            NodeSpec(bad, NodeId.from_str("02:00:00:00:00:01"), Location(0.0, 0.0, 0.0))

    def test_malformed_document_exits_1_before_running(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = minimal_doc()
        doc["nodes"] = 5
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
        assert "scenario error: nodes must be a list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "filters, message",
        [
            ({"smoother_params": {"window": 4}}, "odd"),
            ({"smoother_params": {"r": 0}}, "r > 0"),
            ({"trigger_threshold": 0}, "threshold must be positive"),
            ({"smoother_params": [3]}, "smoother_params must be an object"),
            ({"smoother": "moving_average", "smoother_params": {"windw": 3}}, "windw"),
            ({"warmup": -5}, "warmup must be >= 0"),
            ({"median_window": 5}, "unknown key 'median_window'"),
            ({"smoother_params": {"window": "7"}}, "window must be an integer, not '7'"),
            ({"smoother_params": {"window": True}}, "window must be an integer, not True"),
            ({"smoother_params": {"window": 7.9}}, "window must be an integer, not 7.9"),
            ({"smoother_params": {"q": "0.5"}}, "q must be a number, not '0.5'"),
            ({"smoother_params": {"q": math.nan}}, "q must be a number, not nan"),
            ({"smoother": "gaussian", "smoother_params": {"window": 10**9}}, "window must be in"),
        ],
        ids=["even-window", "kalman-r-zero", "zero-threshold", "params-not-object",
             "params-typo", "negative-warmup", "dropped-key", "window-string", "window-bool",
             "window-float", "q-string", "q-nan", "gaussian-window-past-bound"],
    )
    def test_bad_filter_config_exits_1_before_running(self, filters, message, tmp_path, capsys):
        doc = minimal_doc()
        doc["filters"] = filters
        with pytest.raises(ScenarioError, match=f"filters: .*{message}"):
            Scenario.from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
        assert "scenario error: filters:" in capsys.readouterr().err
        assert not out.exists()

    def test_protocol_bound_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = minimal_doc()
        doc["protocol"] = {"verify_slack_cells": -1}
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "verify_slack_cells" in capsys.readouterr().err


def non_default(cls, **strategies):
    """`cls` with every field drawn from its strategy and away from its default
    (a field whose default is null keeps the strategy as given)."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    assert set(strategies) == set(defaults), "draw every field"
    return st.builds(cls, **{
        name: s if defaults[name] is None else s.filter(lambda v, d=defaults[name]: v != d)
        for name, s in strategies.items()
    })


POSITIVE = st.floats(min_value=0.01, max_value=1000.0)
TICKS = st.integers(min_value=1, max_value=10_000)
COUNTS = st.integers(min_value=0, max_value=10_000)
# (smoother, its parameters); the default smoother has no params to differ from
SMOOTHERS = st.one_of(
    st.tuples(st.just("median"), st.fixed_dictionaries({"window": st.sampled_from([1, 3, 7, 9])})),
    st.tuples(st.just("kalman"), st.fixed_dictionaries({"q": st.floats(0.0, 1.0), "r": POSITIVE})),
    st.tuples(st.just("gaussian"), st.fixed_dictionaries({"sigma": POSITIVE, "window": TICKS})),
    st.tuples(st.just("exp_smoothing"), st.fixed_dictionaries({"alpha": st.floats(0.01, 1.0)})),
)


@st.composite
def scenarios(draw):
    smoother, smoother_params = draw(SMOOTHERS)
    channel = non_default(
        ChannelConfig,
        model=non_default(
            PathLossModel, p0=st.floats(-90.0, -10.0), n=st.floats(0.5, 6.0), d0=st.floats(0.1, 10.0)
        ),
        noise_sigma=st.floats(0.0, 10.0),
        asymmetry_jitter=st.floats(0.0, 2.5),
        range=POSITIVE,
        seed=st.integers(0, 2**32),
    )
    filters = non_default(
        FilterParams,
        trigger_threshold=POSITIVE,
        trigger_cooldown=COUNTS,
        warmup=COUNTS,
        smoother=st.just(smoother),
        smoother_params=st.just(smoother_params),
    )
    protocol = non_default(
        ProtocolParams,
        epsilon=st.floats(0.01, 0.99),
        tau=st.one_of(st.none(), st.floats(0.01, 0.99), st.integers(1, 50)),  # null, a fraction, a count
        trust_step=POSITIVE,
        consistency_tol=POSITIVE,
        pool_ttl=TICKS,
        bft_window=TICKS,
        history_window=TICKS,
        location_grid=POSITIVE,
        verify_slack_cells=COUNTS,
        min_anchors=st.integers(4, 50),
        anchor_freshness=TICKS,
        residual_cap=POSITIVE,
        max_gdop=POSITIVE,
        alert_cooldown=COUNTS,
        moved_ttl=COUNTS,
    )
    return dataclasses.replace(
        builtin_scenario(draw(st.sampled_from(BUILTIN_NAMES))),
        channel=draw(channel), filters=draw(filters), protocol=draw(protocol),
    )


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_every_parameter_survives_the_document(self, scenario):
        doc = scenario.to_dict()
        clone = Scenario.from_dict(json.loads(json.dumps(doc)))
        assert clone.to_dict() == doc
        # equal dataclasses, so a field that either side drops comes back as its default and fails
        assert (clone.channel, clone.filters, clone.protocol) == (
            scenario.channel, scenario.filters, scenario.protocol
        )
        assert clone.seed == scenario.seed == scenario.channel.seed

    def test_unknown_annotation_fails_when_the_schema_is_built(self):
        @dataclasses.dataclass
        class Odd:
            values: list

        with pytest.raises(KeyError):
            _schema(Odd)


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {"paper-fig7", "static-honest", "spoof-attack", "malicious-bft"}
        with pytest.raises(ScenarioError):
            builtin_scenario("unknown-name")

    def test_fig7_geometry_constraints(self):
        scenario = builtin_scenario("paper-fig7")
        nodes = {n.label: n for n in scenario.nodes}
        # three height levels: one node a metre below, one a metre above
        heights = sorted(n.position.z for n in scenario.nodes)
        assert heights == [-1.0, 0.0, 0.0, 0.0, 1.0]
        assert nodes["n1"].position.z == -1.0
        assert nodes["n4"].position.z == 1.0
        assert {nodes[k].position.z for k in ("n2", "n3", "n5")} == {0.0}
        # plane distances stay within the stated bracket
        labels = list(nodes)
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                pa, pb = nodes[a].position, nodes[b].position
                d = math.hypot(pa.x - pb.x, pa.y - pb.y)
                assert 0.5 <= d <= 2.3, (a, b, d)

    def test_fig7_movement_schedule(self):
        scenario = builtin_scenario("paper-fig7")
        assert scenario.duration == 900
        moves = scenario.movements
        assert [m.at for m in moves] == [300, 600]
        assert all(m.node == "n5" for m in moves)
        start = scenario.node("n5").position
        away = moves[0].to
        assert start.distance_to(away) >= 3.0  # clearly out of the group
        assert moves[1].to == start
        assert all(m.announce for m in moves)

    def test_static_honest_is_event_free(self):
        scenario = builtin_scenario("static-honest")
        assert scenario.movements == ()
        assert scenario.attacks == ()

    def test_spoof_attack_references_existing_victim(self):
        scenario = builtin_scenario("spoof-attack")
        (attack,) = scenario.attacks
        assert attack.kind is AttackKind.IDENTITY_SPOOF
        victim = attack.params["victim"]
        assert victim in {n.label for n in scenario.nodes}
        # the attacker transmits from roughly 5 m away from the victim
        vpos = scenario.node(victim).position
        apos = attack.params["attacker_position"]
        d = ((vpos.x - apos[0]) ** 2 + (vpos.y - apos[1]) ** 2 + (vpos.z - apos[2]) ** 2) ** 0.5
        assert 4.0 <= d <= 6.0

    def test_seed_override(self):
        assert builtin_scenario("paper-fig7", seed=9).seed == 9
        assert builtin_scenario("paper-fig7", seed=9).channel.seed == 9
