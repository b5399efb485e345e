"""Scenario validation and the builtin experiment definitions."""

import json
import math

import pytest

from polsim.cli import main
from polsim.scenario import (
    AttackKind,
    BUILTIN_NAMES,
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

    def test_duplicate_macs_rejected(self):
        doc = minimal_doc()
        doc["nodes"][1]["mac"] = doc["nodes"][0]["mac"]
        with pytest.raises(ScenarioError, match="duplicate mac"):
            Scenario.from_dict(doc)

    def test_json_roundtrip(self):
        scenario = builtin_scenario("paper-fig7", seed=5)
        clone = Scenario.from_json(scenario.to_json())
        assert clone.to_dict() == scenario.to_dict()

    def test_bad_json_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            Scenario.from_json("{nope")

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("verify_slack_cells", -1),
            ("min_anchors", 0),
            ("min_anchors", 3),
            ("alert_cooldown", -5),
            ("moved_ttl", -1),
            ("initial_trust", 7.0),
            ("initial_trust", -0.5),
        ],
    )
    def test_protocol_bound_is_a_scenario_error(self, key, bad):
        doc = minimal_doc()
        doc["protocol"] = {key: bad}
        with pytest.raises(ScenarioError, match=f"protocol: {key}"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"nodes": 5}, "nodes must be a list"),
            ({"movements": 5}, "movements must be a list"),
            ({"attacks": 5}, "attacks must be a list"),
            ({"tick_ms": "x"}, "tick_ms must be a positive integer"),
            ({"tick_ms": 2.5}, "tick_ms must be a positive integer"),
            ({"tick_ms": True}, "tick_ms must be a positive integer"),
            ({"duration": True}, "duration must be a positive integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"nodes": [{"mac": "02:00:00:00:00:01", "position": [0, 0, 0]}]},
             r"nodes\[0\]: missing key 'id'"),
            ({"movements": [{"node": "a", "at": 3}]}, r"movements\[0\]: missing key 'to'"),
            ({"attacks": [{"at": 3}]}, r"attacks\[0\]: missing key 'type'"),
        ],
        ids=["nodes-not-list", "movements-not-list", "attacks-not-list", "tick-ms-string",
             "tick-ms-float", "tick-ms-bool", "duration-bool", "seed-bool", "node-missing-id",
             "movement-missing-to", "attack-missing-type"],
    )
    def test_malformed_document_is_a_scenario_error(self, patch, message):
        doc = minimal_doc()
        doc.update(patch)
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_dict(doc)

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
        ],
        ids=["even-window", "kalman-r-zero", "zero-threshold", "params-not-object",
             "params-typo", "negative-warmup", "dropped-key"],
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
