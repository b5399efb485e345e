"""Declarative simulation scenarios: nodes, movement, attacks, radio, parameters.

A scenario is a plain JSON document; `Scenario.from_dict` validates it
strictly (unknown keys are rejected, all violations are reported at once).
Four builtin scenarios cover the evaluation setups: the five-node movement
experiment, an all-static honest network, an identity-spoofing attack, and a
lying-BFT attack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .channel import ChannelConfig
from .localization import PathLossModel
from .messages import Location, NodeId, SensorType
from .protocol import FilterParams, ProtocolParams


class ScenarioError(ValueError):
    """Scenario document is invalid; `violations` lists every problem found."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class AttackKind(Enum):
    IDENTITY_SPOOF = "identity_spoof"
    MALICIOUS_BFT = "malicious_bft"
    REPLAY = "replay"


SENSOR_TYPES = {t.name.lower(): t for t in SensorType}


@dataclass(frozen=True)
class NodeSpec:
    label: str
    mac: NodeId
    position: Location
    sensor_type: SensorType = SensorType.TEMPERATURE
    payload_period: int = 1


@dataclass(frozen=True)
class MovementSpec:
    node: str
    at: int
    to: Location
    announce: bool = True


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    at: int
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    duration: int
    nodes: tuple[NodeSpec, ...]
    movements: tuple[MovementSpec, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    filters: FilterParams = FilterParams()  # frozen, so one validated default serves all
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    tick_ms: int = 1000

    def node(self, label: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.label == label:
                return spec
        raise KeyError(label)

    def with_seed(self, seed: int) -> "Scenario":
        channel = ChannelConfig(
            model=self.channel.model,
            noise_sigma=self.channel.noise_sigma,
            asymmetry_jitter=self.channel.asymmetry_jitter,
            range=self.channel.range,
            seed=seed,
        )
        return Scenario(
            name=self.name,
            seed=seed,
            duration=self.duration,
            nodes=self.nodes,
            movements=self.movements,
            attacks=self.attacks,
            channel=channel,
            filters=self.filters,
            protocol=self.protocol,
            tick_ms=self.tick_ms,
        )

    def with_channel(self, **overrides: Any) -> "Scenario":
        base = {
            "model": self.channel.model,
            "noise_sigma": self.channel.noise_sigma,
            "asymmetry_jitter": self.channel.asymmetry_jitter,
            "range": self.channel.range,
            "seed": self.channel.seed,
        }
        base.update(overrides)
        return Scenario(
            name=self.name,
            seed=self.seed,
            duration=self.duration,
            nodes=self.nodes,
            movements=self.movements,
            attacks=self.attacks,
            channel=ChannelConfig(**base),
            filters=self.filters,
            protocol=self.protocol,
            tick_ms=self.tick_ms,
        )

    # -- JSON ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
            "tick_ms": self.tick_ms,
            "nodes": [
                {
                    "id": n.label,
                    "mac": str(n.mac),
                    "position": list(n.position.as_tuple()),
                    "sensor_type": n.sensor_type.name.lower(),
                    "payload_period": n.payload_period,
                }
                for n in self.nodes
            ],
            "movements": [
                {"node": m.node, "at": m.at, "to": list(m.to.as_tuple()), "announce": m.announce}
                for m in self.movements
            ],
            "attacks": [
                {"type": a.kind.value, "at": a.at, "params": dict(a.params)} for a in self.attacks
            ],
            "channel": {
                "p0": self.channel.model.p0,
                "n": self.channel.model.n,
                "d0": self.channel.model.d0,
                "noise_sigma": self.channel.noise_sigma,
                "asymmetry_jitter": self.channel.asymmetry_jitter,
                "range": self.channel.range,
            },
            "filters": {
                "trigger_threshold": self.filters.trigger_threshold,
                "trigger_cooldown": self.filters.trigger_cooldown,
                "warmup": self.filters.warmup,
                "smoother": self.filters.smoother,
                "smoother_params": self.filters.smoother_params,
            },
            "protocol": {
                "epsilon": self.protocol.epsilon,
                "tau": self.protocol.tau,
                "trust_step": self.protocol.trust_step,
                "consistency_tol": self.protocol.consistency_tol,
                "pool_ttl": self.protocol.pool_ttl,
                "bft_window": self.protocol.bft_window,
                "history_window": self.protocol.history_window,
                "location_grid": self.protocol.location_grid,
                "verify_slack_cells": self.protocol.verify_slack_cells,
                "min_anchors": self.protocol.min_anchors,
                "anchor_freshness": self.protocol.anchor_freshness,
                "residual_cap": self.protocol.residual_cap,
                "max_gdop": self.protocol.max_gdop,
                "alert_cooldown": self.protocol.alert_cooldown,
                "moved_ttl": self.protocol.moved_ttl,
                "initial_trust": self.protocol.initial_trust,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError([f"not valid JSON: {exc}"]) from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Scenario":
        errors: list[str] = []

        def reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
            for key in obj:
                if key not in allowed:
                    errors.append(f"{where}: unknown key {key!r}")

        def list_of(key: str) -> list:
            value = doc.get(key, [])
            if isinstance(value, list):
                return value
            errors.append(f"{key} must be a list")
            return []

        if not isinstance(doc, dict):
            raise ScenarioError(["scenario document must be a JSON object"])
        reject_unknown(
            doc,
            {"name", "seed", "duration", "tick_ms", "nodes", "movements", "attacks",
             "channel", "filters", "protocol"},
            "scenario",
        )
        name = doc.get("name", "custom")
        seed = doc.get("seed", 0)
        duration = doc.get("duration", 0)
        tick_ms = doc.get("tick_ms", 1000)
        if not _is_int(duration) or duration < 1:
            errors.append("duration must be a positive integer")
        if not _is_int(seed):
            errors.append("seed must be an integer")
        if not _is_int(tick_ms) or tick_ms < 1:
            errors.append("tick_ms must be a positive integer")

        nodes: list[NodeSpec] = []
        labels: set[str] = set()
        macs: set[str] = set()
        for i, nd in enumerate(list_of("nodes")):
            where = f"nodes[{i}]"
            if not isinstance(nd, dict):
                errors.append(f"{where}: must be an object")
                continue
            reject_unknown(nd, {"id", "mac", "position", "sensor_type", "payload_period"}, where)
            try:
                label = str(nd["id"])
                mac = NodeId.from_str(nd["mac"])
                pos = Location(*[float(c) for c in nd["position"]])
                stype = SENSOR_TYPES.get(nd.get("sensor_type", "temperature"))
                if stype is None:
                    raise ValueError(f"unknown sensor_type {nd['sensor_type']!r}")
                period = int(nd.get("payload_period", 1))
                if period < 1:
                    raise ValueError("payload_period must be >= 1")
                if label in labels:
                    raise ValueError(f"duplicate node id {label!r}")
                if str(mac) in macs:
                    raise ValueError(f"duplicate mac {mac}")
                labels.add(label)
                macs.add(str(mac))
                nodes.append(NodeSpec(label, mac, pos, stype, period))
            except KeyError as exc:
                errors.append(f"{where}: missing key {exc}")
            except (ValueError, TypeError) as exc:
                errors.append(f"{where}: {exc}")
        if not nodes and "nodes" not in doc:
            errors.append("scenario needs a nodes list")

        movements: list[MovementSpec] = []
        for i, mv in enumerate(list_of("movements")):
            where = f"movements[{i}]"
            if not isinstance(mv, dict):
                errors.append(f"{where}: must be an object")
                continue
            reject_unknown(mv, {"node", "at", "to", "announce"}, where)
            try:
                node = str(mv["node"])
                at = int(mv["at"])
                to = Location(*[float(c) for c in mv["to"]])
                announce = bool(mv.get("announce", True))
                if node not in labels:
                    raise ValueError(f"unknown node {node!r}")
                if _is_int(duration) and not (0 <= at < duration):
                    raise ValueError(f"movement time {at} outside [0, {duration})")
                movements.append(MovementSpec(node, at, to, announce))
            except KeyError as exc:
                errors.append(f"{where}: missing key {exc}")
            except (ValueError, TypeError) as exc:
                errors.append(f"{where}: {exc}")

        attacks: list[AttackSpec] = []
        for i, at_doc in enumerate(list_of("attacks")):
            where = f"attacks[{i}]"
            if not isinstance(at_doc, dict):
                errors.append(f"{where}: must be an object")
                continue
            reject_unknown(at_doc, {"type", "at", "params"}, where)
            try:
                kind = AttackKind(at_doc["type"])
                at = int(at_doc["at"])
                params = dict(at_doc.get("params", {}))
                if _is_int(duration) and not (0 <= at < duration):
                    raise ValueError(f"attack time {at} outside [0, {duration})")
                errors.extend(_check_attack_params(kind, params, labels, where))
                attacks.append(AttackSpec(kind, at, params))
            except KeyError as exc:
                errors.append(f"{where}: missing key {exc}")
            except (ValueError, TypeError) as exc:
                errors.append(f"{where}: {exc}")

        if not _is_int(seed):
            seed = 0
        channel = ChannelConfig(seed=seed)
        ch_doc = doc.get("channel", {})
        if isinstance(ch_doc, dict):
            reject_unknown(
                ch_doc, {"p0", "n", "d0", "noise_sigma", "asymmetry_jitter", "range"}, "channel"
            )
            try:
                channel = ChannelConfig(
                    model=PathLossModel(
                        p0=float(ch_doc.get("p0", -40.0)),
                        n=float(ch_doc.get("n", 2.0)),
                        d0=float(ch_doc.get("d0", 1.0)),
                    ),
                    noise_sigma=float(ch_doc.get("noise_sigma", 1.0)),
                    asymmetry_jitter=float(ch_doc.get("asymmetry_jitter", 1.0)),
                    range=float(ch_doc.get("range", 30.0)),
                    seed=seed,
                )
            except (ValueError, TypeError) as exc:
                errors.append(f"channel: {exc}")
        else:
            errors.append("channel: must be an object")

        filters = FilterParams()
        f_doc = doc.get("filters", {})
        if isinstance(f_doc, dict):
            reject_unknown(
                f_doc,
                {"trigger_threshold", "trigger_cooldown", "warmup", "smoother", "smoother_params"},
                "filters",
            )
            try:
                filters = FilterParams(
                    trigger_threshold=float(f_doc.get("trigger_threshold", 6.0)),
                    trigger_cooldown=int(f_doc.get("trigger_cooldown", 30)),
                    warmup=int(f_doc.get("warmup", 10)),
                    smoother=str(f_doc.get("smoother", "median_kalman")),
                    smoother_params=f_doc.get("smoother_params"),
                )
            except (ValueError, TypeError) as exc:
                errors.append(f"filters: {exc}")
        else:
            errors.append("filters: must be an object")

        protocol = ProtocolParams()
        p_doc = doc.get("protocol", {})
        if isinstance(p_doc, dict):
            reject_unknown(
                p_doc,
                {"epsilon", "tau", "trust_step", "consistency_tol", "pool_ttl", "bft_window",
                 "history_window", "location_grid", "verify_slack_cells", "min_anchors",
                 "anchor_freshness", "residual_cap", "max_gdop", "alert_cooldown",
                 "moved_ttl", "initial_trust"},
                "protocol",
            )
            try:
                protocol = ProtocolParams(
                    epsilon=float(p_doc.get("epsilon", 0.3)),
                    tau=(float(p_doc["tau"]) if p_doc.get("tau") is not None else None),
                    trust_step=float(p_doc.get("trust_step", 0.1)),
                    consistency_tol=float(p_doc.get("consistency_tol", 5.0)),
                    pool_ttl=int(p_doc.get("pool_ttl", 120)),
                    bft_window=int(p_doc.get("bft_window", 120)),
                    history_window=int(p_doc.get("history_window", 64)),
                    location_grid=float(p_doc.get("location_grid", 0.5)),
                    verify_slack_cells=int(p_doc.get("verify_slack_cells", 1)),
                    min_anchors=int(p_doc.get("min_anchors", 4)),
                    anchor_freshness=int(p_doc.get("anchor_freshness", 45)),
                    residual_cap=float(p_doc.get("residual_cap", 0.5)),
                    max_gdop=float(p_doc.get("max_gdop", 4.0)),
                    alert_cooldown=int(p_doc.get("alert_cooldown", 30)),
                    moved_ttl=int(p_doc.get("moved_ttl", 120)),
                    initial_trust=float(p_doc.get("initial_trust", 1.0)),
                )
            except (ValueError, TypeError) as exc:
                errors.append(f"protocol: {exc}")
        else:
            errors.append("protocol: must be an object")

        if errors:
            raise ScenarioError(errors)
        return cls(
            name=str(name),
            seed=seed,
            duration=duration,
            nodes=tuple(nodes),
            movements=tuple(movements),
            attacks=tuple(attacks),
            channel=channel,
            filters=filters,
            protocol=protocol,
            tick_ms=tick_ms,
        )


def _is_int(value: Any) -> bool:
    """An int proper: JSON true/false load as bool, which is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_attack_params(
    kind: AttackKind, params: dict[str, Any], labels: set[str], where: str
) -> list[str]:
    errors: list[str] = []
    allowed = {
        AttackKind.IDENTITY_SPOOF: {"victim", "attacker_position", "period", "suppress_victim", "until"},
        AttackKind.MALICIOUS_BFT: {"attacker", "victim", "fake_rssi", "period", "until"},
        AttackKind.REPLAY: {"victim", "attacker_position", "period", "capture_at", "count"},
    }[kind]
    for key in params:
        if key not in allowed:
            errors.append(f"{where}: unknown param {key!r} for {kind.value}")
    for role in ("victim", "attacker"):
        if role in allowed and role in params and params[role] not in labels:
            errors.append(f"{where}: {role} {params[role]!r} is not a scenario node")
    if "victim" in allowed and "victim" not in params:
        errors.append(f"{where}: {kind.value} needs a victim")
    if kind is AttackKind.MALICIOUS_BFT and "attacker" not in params:
        errors.append(f"{where}: {kind.value} needs an attacker")
    if kind in (AttackKind.IDENTITY_SPOOF, AttackKind.REPLAY):
        pos = params.get("attacker_position")
        if not (isinstance(pos, (list, tuple)) and len(pos) == 3):
            errors.append(f"{where}: attacker_position must be [x, y, z]")
    period = params.get("period", 1)
    if not isinstance(period, int) or period < 1:
        errors.append(f"{where}: period must be a positive integer")
    return errors


# -- builtin scenarios ---------------------------------------------------------

# Five nodes on three height levels; node 5 leaves the group and returns.
# Heights are -1/0/+1 m and pairwise plane distances stay within 0.5..2.3 m.
_FIG7_NODES = [
    ("n1", "02:00:00:00:00:01", (0.0, 0.0, -1.0)),
    ("n2", "02:00:00:00:00:02", (1.0, 0.0, 0.0)),
    ("n3", "02:00:00:00:00:03", (0.0, 1.5, 0.0)),
    ("n4", "02:00:00:00:00:04", (2.0, 1.0, 1.0)),
    ("n5", "02:00:00:00:00:05", (1.0, 2.0, 0.0)),
]

BUILTIN_NAMES = ("paper-fig7", "static-honest", "spoof-attack", "malicious-bft")


def _fig7_nodespecs() -> tuple[NodeSpec, ...]:
    return tuple(
        NodeSpec(label, NodeId.from_str(mac), Location(*pos), SensorType.TEMPERATURE, 1)
        for label, mac, pos in _FIG7_NODES
    )


def builtin_scenario(name: str, seed: int = 42) -> Scenario:
    """Return one of the built-in scenarios, reseeded via `seed`."""
    nodes = _fig7_nodespecs()
    if name == "paper-fig7":
        return Scenario(
            name=name,
            seed=seed,
            duration=900,
            nodes=nodes,
            movements=(
                MovementSpec("n5", 300, Location(1.0, 6.0, 0.0), announce=True),
                MovementSpec("n5", 600, Location(1.0, 2.0, 0.0), announce=True),
            ),
            channel=ChannelConfig(seed=seed),
        )
    if name == "static-honest":
        return Scenario(
            name=name,
            seed=seed,
            duration=900,
            nodes=nodes,
            channel=ChannelConfig(seed=seed),
        )
    if name == "spoof-attack":
        return Scenario(
            name=name,
            seed=seed,
            duration=900,
            nodes=nodes,
            attacks=(
                AttackSpec(
                    AttackKind.IDENTITY_SPOOF,
                    at=400,
                    params={
                        "victim": "n1",
                        "attacker_position": [0.0, -5.0, -1.0],
                        "period": 1,
                        "suppress_victim": True,
                    },
                ),
            ),
            channel=ChannelConfig(seed=seed),
        )
    if name == "malicious-bft":
        return Scenario(
            name=name,
            seed=seed,
            duration=900,
            nodes=nodes,
            attacks=(
                AttackSpec(
                    AttackKind.MALICIOUS_BFT,
                    at=200,
                    params={"attacker": "n4", "victim": "n2", "fake_rssi": -90.0, "period": 40},
                ),
            ),
            channel=ChannelConfig(seed=seed),
        )
    raise ScenarioError([f"unknown builtin scenario {name!r}; choose from {BUILTIN_NAMES}"])
