"""README's parameter tables against the dataclasses that declare the keys,
and its wire format against the structs that declare the layouts.

The channel, filter, smoother and protocol tables and the sentence of
attack defaults each copy key names and defaults from the code, and the
wire format section copies each message part's layout; these tests read
both sides, so an edit to either that the other lacks fails here.
"""

import json
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from polsim.channel import ChannelConfig
from polsim.filters import FILTER_NAMES, make_filter
from polsim.localization import PathLossModel
from polsim.messages import (
    _CELL,
    ALERT_BODY,
    ALERT_REF,
    BFT_BODY,
    BFT_REF,
    HEADER,
    PAYLOAD_BODY,
    TAG_ALERT,
    TAG_BFT,
    TAG_PAYLOAD,
    cell_digest,
)
from polsim.protocol import FilterParams, ProtocolParams
from polsim.scenario import _ATTACK_PARAMS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def table_after(heading: str) -> list[list[str]]:
    """The cells of each body row of the first table after `heading`."""
    lines = README[README.index(heading) :].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def value(text: str) -> object:
    """A table's default as the code writes it: `name` a string, else JSON
    (null, 30, -40.0)."""
    if text.startswith("`") and text.endswith("`"):
        return text[1:-1]
    return json.loads(text)


def documented(heading: str) -> dict[str, object]:
    """key -> default of a `| key | default | meaning |` table."""
    return {row[0].strip("`"): value(row[1]) for row in table_after(heading)}


def declared(*classes: type, skip: tuple[str, ...] = ()) -> dict[str, object]:
    """init field -> default of each dataclass, as the scenario loader reads them."""
    out = {}
    for cls in classes:
        for f in fields(cls):
            if f.init and f.name not in skip:
                assert f.default is not MISSING, f"{cls.__name__}.{f.name} has no plain default"
                out[f.name] = f.default
    return out


def typed(params: dict[str, object]) -> dict[str, tuple[type, object]]:
    """Each default with its type, so 30 and 30.0 differ as they do in a trace."""
    return {key: (type(default), default) for key, default in params.items()}


@pytest.mark.parametrize(
    "heading, want",
    [
        ("### Channel parameters (`channel`)", declared(PathLossModel, ChannelConfig, skip=("model", "seed"))),
        ("### Filter parameters (`filters`)", declared(FilterParams)),
        ("### Protocol parameters (`protocol`)", declared(ProtocolParams)),
    ],
    ids=["channel", "filters", "protocol"],
)
def test_key_table_matches_its_dataclasses(heading, want):
    assert typed(documented(heading)) == typed(want)


def test_smoother_table_matches_the_state_dataclasses():
    """Each row lists its smoother's keys as "`key` default", in field order."""
    rows = table_after("| smoother | keys and defaults |")
    documented = {
        row[0].strip("`"): {key: value(text) for key, text in re.findall(r"`(\w+)` ([^,\s]+)", row[1])}
        for row in rows
    }
    assert list(documented) == list(FILTER_NAMES)
    for name, params in documented.items():
        state = make_filter(name).args[0]
        want = declared(type(state))
        assert list(params) == list(want), name
        assert typed(params) == typed(want), name


def test_attack_defaults_sentence_matches_the_declarations():
    """The sentence "A parameter left out takes its default: `period` 1, ..."
    states each default that `scenario._ATTACK_PARAMS` declares, for every
    parameter that has one; `until`'s infinity reads "the end of the run"."""
    sentence = re.search(r"takes its default: (.*?)\.\s", README, re.S).group(1)
    stated = {
        key: math.inf if text == "the end of the run" else json.loads(text)
        for key, text in re.findall(r"`(\w+)` (the end of the run|[^,\s]+)", sentence)
    }
    want = {name: default for name, (_kind, default) in _ATTACK_PARAMS.items() if default is not MISSING}
    # -90 states -90.0, but true does not state 1
    assert {key: (type(v) is bool, v) for key, v in stated.items()} == {
        key: (type(v) is bool, v) for key, v in want.items()
    }


# README's field types and the struct codes they stand for
WIRE_CODES = {"3 x f64": "3d", "f64": "d", "u8": "B", "u16": "H", "u64": "Q", "6B": "6s", "32B": "32s"}
WIRE_TYPE = re.compile("|".join(WIRE_CODES))  # "3 x f64" is tried before "f64"


def wire_parts(layout: str) -> list[str]:
    """The struct format of each part of a README layout `[name: type] ...`:
    a field with no wire type (the payload bytes) and a field sent only "if
    flag is 1" each start a new part."""
    parts = [""]
    for field in re.findall(r"\[([^]]*)\]", layout):
        codes = [WIRE_CODES[token] for token in WIRE_TYPE.findall(field)]
        if not codes or field.endswith("if flag is 1"):
            parts.append("")
        parts[-1] += "".join(codes)
    return ["<" + part for part in parts]


def test_wire_format_matches_the_structs():
    section = README[README.index("## Wire format") :]
    header = re.search(r"```\n(.*?)\n```", section, re.S).group(1)
    assert wire_parts(header) == [HEADER.format]
    digest = f"<{len(cell_digest(0.0, 0.0, 0.0, b''))}s"
    rows = table_after("## Wire format")
    documented = {int(re.match(r"`(0x\w+)`", tag).group(1), 16): wire_parts(layout) for tag, layout in rows}
    assert documented == {
        TAG_PAYLOAD: [PAYLOAD_BODY.format, digest],
        TAG_BFT: [BFT_BODY.format, BFT_REF.format],
        TAG_ALERT: [ALERT_BODY.format, ALERT_REF.format],
    }
    assert f"packed as `{_CELL.format}`" in " ".join(section.split())
