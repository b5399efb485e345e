"""Declarative simulation scenarios: nodes, movement, attacks, radio, parameters.

A scenario is a plain JSON document; `Scenario.from_dict` validates it
strictly (unknown keys are rejected, all violations are reported at once).
Four builtin scenarios cover the evaluation setups: the five-node movement
experiment, an all-static honest network, an identity-spoofing attack, and a
lying-BFT attack.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, replace
from enum import Enum
from typing import Any

from .channel import ChannelConfig
from .kinds import _BOOL, _INT, _NUMBER, _NUMBER_TYPES, _STR, Kind, _checked, _kind, _schema
from .localization import PathLossModel
from .messages import RSSI_MAX, RSSI_MIN, Location, NodeId, SensorType
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

# an identity_spoof or replay attack sends from a channel position of its own
# under an id ending in 0xf0 + the attack's index, so 16 fit; link jitter
# hashes that id, which makes the scheme part of the attack's traces
MAX_TRANSMITTERS = 16


def transmitter_id(index: int) -> NodeId:
    """The channel id 02:00:00:00:aa:(f0 + index) of the attack at `index`."""
    return NodeId(bytes([0x02, 0, 0, 0, 0xAA, 0xF0 + index]))


@dataclass(frozen=True)
class NodeSpec:
    label: str
    mac: NodeId
    position: Location
    sensor_type: SensorType = SensorType.TEMPERATURE
    payload_period: int = 1

    def __post_init__(self) -> None:
        # the loader reports a bad id in its ScenarioError; this check holds
        # for a spec built in code, whose label would split its rssi.csv rows
        try:
            _NODE_ID(self.label)
        except ValueError as exc:
            raise ValueError(f"node id {exc}") from None


@dataclass(frozen=True)
class MovementSpec:
    node: str
    at: int
    to: Location
    announce: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {"node": self.node, "at": self.at, "to": list(self.to.as_tuple()), "announce": self.announce}


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    at: int
    params: dict[str, Any] = field(default_factory=dict)

    def param(self, name: str) -> Any:
        """The parameter as given, or its `_ATTACK_PARAMS` default; KeyError for a required one."""
        default = _ATTACK_PARAMS[name][1]
        return self.params[name] if default is MISSING else self.params.get(name, default)

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.kind.value, "at": self.at, "params": dict(self.params)}


@dataclass(frozen=True)
class Scenario:
    name: str
    duration: int
    nodes: tuple[NodeSpec, ...]
    movements: tuple[MovementSpec, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    filters: FilterParams = FilterParams()  # frozen, so one validated default serves all
    protocol: ProtocolParams = field(default_factory=ProtocolParams)

    @property
    def seed(self) -> int:
        """The run seed; the channel's noise and link jitter are its only consumers."""
        return self.channel.seed

    def node(self, label: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.label == label:
                return spec
        raise KeyError(label)

    def with_seed(self, seed: int) -> "Scenario":
        return self.with_channel(seed=seed)

    def with_channel(self, **overrides: Any) -> "Scenario":
        return replace(self, channel=replace(self.channel, **overrides))

    # -- JSON ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
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
            "movements": [m.to_dict() for m in self.movements],
            "attacks": [a.to_dict() for a in self.attacks],
            "channel": {**_values(self.channel.model, _MODEL_KINDS), **_values(self.channel, _CHANNEL_KINDS)},
            "filters": _values(self.filters, _FILTER_KINDS),
            "protocol": _values(self.protocol, _PROTOCOL_KINDS),
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
        if not isinstance(doc, dict):
            raise ScenarioError(["scenario document must be a JSON object"])
        errors: list[str] = []
        top = _checked(doc, _TOP_KINDS, "", errors, ("duration", "nodes"))
        duration = top.get("duration")

        nodes: list[NodeSpec] = []
        labels: set[str] = set()
        macs: set[NodeId] = set()
        for i, nd in enumerate(top.get("nodes", ())):
            where = f"nodes[{i}]: "
            seen = len(errors)
            spec = _checked(nd, _NODE_KINDS, where, errors, ("id", "mac", "position"))
            if len(errors) > seen:
                continue
            label = spec.pop("id")
            try:
                mac = NodeId.from_str(spec.pop("mac"))
            except ValueError as exc:
                errors.append(f"{where}{exc}")
                continue
            if label in labels:
                errors.append(f"{where}duplicate node id {label!r}")
            elif mac in macs:
                errors.append(f"{where}duplicate mac {mac}")
            else:
                labels.add(label)
                macs.add(mac)
                nodes.append(NodeSpec(label, mac, **spec))

        def in_run(at: int, what: str, where: str) -> bool:
            if duration is None or 0 <= at < duration:
                return True
            errors.append(f"{where}{what} time {at} outside [0, {duration})")
            return False

        movements: list[MovementSpec] = []
        for i, mv in enumerate(top.get("movements", ())):
            where = f"movements[{i}]: "
            seen = len(errors)
            spec = _checked(mv, _MOVEMENT_KINDS, where, errors, ("node", "at", "to"))
            if len(errors) > seen:
                continue
            if spec["node"] not in labels:
                errors.append(f"{where}unknown node {spec['node']!r}")
            elif in_run(spec["at"], "movement", where):
                movements.append(MovementSpec(**spec))

        attacks: list[AttackSpec] = []
        for i, ad in enumerate(top.get("attacks", ())):
            where = f"attacks[{i}]: "
            seen = len(errors)
            spec = _checked(ad, _ATTACK_KINDS, where, errors, ("type", "at"))
            if len(errors) > seen:
                continue
            kind = spec["type"]
            kinds, required = _ATTACK_SCHEMAS[kind]
            params = _checked(spec.get("params", {}), kinds, f"{where}params: ", errors, required)
            for role in ("victim", "attacker"):
                if role in params and params[role] not in labels:
                    errors.append(f"{where}{role} {params[role]!r} is not a scenario node")
            if params.get("until", spec["at"]) < spec["at"]:
                errors.append(f"{where}params: until {params['until']} is before at {spec['at']}")
            transmits = kind is not AttackKind.MALICIOUS_BFT
            if not transmits and "attacker" in params and params["attacker"] == params.get("victim"):
                errors.append(f"{where}attacker and victim must differ, both are {params['victim']!r}")
            elif transmits and i >= MAX_TRANSMITTERS:
                errors.append(f"{where}a {kind.value} attack sends from 02:00:00:00:aa:(f0 + its index), "
                              f"so its index must be below {MAX_TRANSMITTERS}")
            elif transmits and transmitter_id(i) in macs:
                errors.append(f"{where}transmitter id {transmitter_id(i)} is the mac of a scenario node")
            if in_run(spec["at"], "attack", where) and len(errors) == seen:
                attacks.append(AttackSpec(kind, spec["at"], params))

        channel = _checked(top.get("channel", {}), _CHANNEL_SECTION, "channel: ", errors)
        model = {key: channel.pop(key) for key in _MODEL_KINDS if key in channel}
        channel["model"] = _built(PathLossModel, model, "channel: ", errors)
        if "seed" in top:
            # a top-level key: ChannelConfig checks its range, without the section prefix
            if _built(ChannelConfig, {"seed": top["seed"]}, "", errors) is not None:
                channel["seed"] = top["seed"]
        filters = _checked(top.get("filters", {}), _FILTER_KINDS, "filters: ", errors)
        protocol = _checked(top.get("protocol", {}), _PROTOCOL_KINDS, "protocol: ", errors)
        channel = _built(ChannelConfig, channel, "channel: ", errors)
        filters = _built(FilterParams, filters, "filters: ", errors)
        protocol = _built(ProtocolParams, protocol, "protocol: ", errors)

        if errors:
            raise ScenarioError(errors)
        return cls(
            name=top.get("name", "custom"),
            duration=duration,
            nodes=tuple(nodes),
            movements=tuple(movements),
            attacks=tuple(attacks),
            channel=channel,
            filters=filters,
            protocol=protocol,
        )


# -- kinds of document values (see polsim.kinds) ------------------------------

_POSITIVE_INT = _kind((int,), "a positive integer", lambda v: v >= 1)
_OPTIONAL_POSITIVE_INT = _kind((int, type(None)), "a positive integer or null", lambda v: v is None or v >= 1)
_LIST = _kind((list,), "a list")
_OBJECT = _kind((dict,), "an object")
_RSSI = _kind(_NUMBER_TYPES, f"a number in [{RSSI_MIN}, {RSSI_MAX}]", lambda v: RSSI_MIN <= v <= RSSI_MAX)


def _one_of(names: dict[str, Any]) -> Kind:
    """A string naming one of `names`; stores what it names."""
    check = _kind((str,), f"one of {sorted(names)}", names.__contains__)
    return lambda value: names[check(value)]


def _point(value: Any) -> list[float]:
    """Three finite numbers, stored as floats."""
    if type(value) is list and len(value) == 3:
        try:
            return [_NUMBER(c) for c in value]
        except ValueError:
            pass
    raise ValueError(f"must be [x, y, z] numbers, not {value!r}")


_MODEL_KINDS = _schema(PathLossModel)
# the model's keys sit beside the channel's own; the seed is the top-level key
_CHANNEL_KINDS = _schema(ChannelConfig, "model", "seed")
_CHANNEL_SECTION = {**_MODEL_KINDS, **_CHANNEL_KINDS}
_FILTER_KINDS = _schema(FilterParams)
_PROTOCOL_KINDS = _schema(ProtocolParams)

_TOP_KINDS = {
    "name": _STR, "seed": _INT, "duration": _POSITIVE_INT,
    "nodes": _LIST, "movements": _LIST, "attacks": _LIST,
    "channel": _OBJECT, "filters": _OBJECT, "protocol": _OBJECT,
}
# a node id is a field of every rssi.csv row the node is in, unquoted
_NODE_ID = _kind(
    (str,), "a string without ',', '\"', '\\r' or '\\n' (an rssi.csv field)",
    lambda v: not any(c in v for c in ',"\r\n'),
)
_NODE_KINDS = {
    "id": _NODE_ID,
    "mac": _STR,
    "position": lambda v: Location(*_point(v)),
    "sensor_type": _one_of(SENSOR_TYPES),
    "payload_period": _POSITIVE_INT,
}
_MOVEMENT_KINDS = {"node": _STR, "at": _INT, "to": lambda v: Location(*_point(v)), "announce": _BOOL}
_ATTACK_KINDS = {"type": _one_of({k.value: k for k in AttackKind}), "at": _INT, "params": _OBJECT}
# every attack parameter: its kind and its default, MISSING where a document
# must give it; `AttackSpec.param` reads the default of one left out
_ATTACK_PARAMS: dict[str, tuple[Kind, Any]] = {
    "victim": (_STR, MISSING),
    "attacker": (_STR, MISSING),
    "attacker_position": (_point, MISSING),
    "period": (_POSITIVE_INT, 1),
    "until": (_INT, float("inf")),  # no end: to the end of the run
    "suppress_victim": (_BOOL, True),
    "fake_rssi": (_RSSI, -90.0),
    "capture_at": (_INT, 0),
    "count": (_OPTIONAL_POSITIVE_INT, None),  # None: no limit
}
# per attack kind: the kind of each parameter it takes, and those without a default
_ATTACK_SCHEMAS = {
    kind: ({n: _ATTACK_PARAMS[n][0] for n in names}, tuple(n for n in names if _ATTACK_PARAMS[n][1] is MISSING))
    for kind, names in (
        (AttackKind.IDENTITY_SPOOF, ("victim", "attacker_position", "period", "suppress_victim", "until")),
        (AttackKind.MALICIOUS_BFT, ("attacker", "victim", "fake_rssi", "period", "until")),
        (AttackKind.REPLAY, ("victim", "attacker_position", "period", "capture_at", "count")),
    )
}


def _built(cls: type, values: dict[str, Any], where: str, errors: list[str]) -> Any:
    """`cls(**values)`, or None with its range violation added to `errors`."""
    try:
        return cls(**values)
    except (ValueError, TypeError) as exc:
        errors.append(f"{where}{exc}")
        return None


def _values(params: Any, kinds: dict[str, Kind]) -> dict[str, Any]:
    return {key: getattr(params, key) for key in kinds}


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


def builtin_scenario(name: str, seed: int = 42) -> Scenario:
    """Return one of the built-in scenarios, reseeded via `seed`: the five
    fig7 nodes for 900 ticks, with the named scenario's movements or attack."""
    if name not in BUILTIN_NAMES:
        raise ScenarioError([f"unknown builtin scenario {name!r}; choose from {BUILTIN_NAMES}"])
    events: dict[str, Any] = {}
    if name == "paper-fig7":
        events["movements"] = (
            MovementSpec("n5", 300, Location(1.0, 6.0, 0.0)),
            MovementSpec("n5", 600, Location(1.0, 2.0, 0.0)),
        )
    elif name == "spoof-attack":
        events["attacks"] = (
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
        )
    elif name == "malicious-bft":
        events["attacks"] = (
            AttackSpec(
                AttackKind.MALICIOUS_BFT,
                at=200,
                params={"attacker": "n4", "victim": "n2", "fake_rssi": -90.0, "period": 40},
            ),
        )
    return Scenario(
        name=name,
        duration=900,
        nodes=tuple(
            NodeSpec(label, NodeId.from_str(mac), Location(*pos)) for label, mac, pos in _FIG7_NODES
        ),
        channel=ChannelConfig(seed=seed),
        **events,
    )
