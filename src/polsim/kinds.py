"""Kinds of document values, and the parameter schema of a dataclass.

A kind takes a document value and returns what is stored, or raises
ValueError saying what the value must be. Each value gets one type test:
JSON true/false load as bool, an int subclass, so a bool is never a number,
and a string is never parsed as one. A number must be finite: Python's JSON
reader takes NaN and +-Infinity, which no parameter can mean. An int given
for a number is stored as a float, so a document round-trips unchanged.

A parameter dataclass declares each key once: `_schema` reads the names from
its init fields and the kinds from their annotations, and the defaults stay
in the dataclass. The scenario loader and the smoother registry both check
values this way.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Callable, Optional, get_type_hints

Kind = Callable[[Any], Any]
_NUMBER_TYPES = (int, float)


def _kind(types: tuple[type, ...], what: str, ok: Optional[Callable[[Any], bool]] = None) -> Kind:
    widen = float in types

    def check(value: Any) -> Any:
        t = type(value)
        if (
            t not in types
            or (t is float and not math.isfinite(value))
            or (ok is not None and not ok(value))
        ):
            raise ValueError(f"must be {what}, not {value!r}")
        return float(value) if widen and t is int else value

    return check


_INT = _kind((int,), "an integer")
_NUMBER = _kind(_NUMBER_TYPES, "a number")
_BOOL = _kind((bool,), "true or false")
_STR = _kind((str,), "a string")

# The annotations a parameter dataclass may use; any other fails at import.
_BY_ANNOTATION: dict[Any, Kind] = {
    int: _INT,
    float: _NUMBER,
    Optional[float]: _kind((*_NUMBER_TYPES, type(None)), "a number or null"),
    bool: _BOOL,
    str: _STR,
    Optional[dict]: _kind((dict, type(None)), "an object or null"),
}


def _schema(cls: type, *skip: str) -> dict[str, Kind]:
    """The document keys of a parameter dataclass: its init field names, each
    with the kind its annotation names. Defaults stay in the dataclass."""
    hints = get_type_hints(cls)
    return {f.name: _BY_ANNOTATION[hints[f.name]] for f in fields(cls) if f.init and f.name not in skip}


def _checked(
    obj: Any, kinds: dict[str, Kind], where: str, errors: list[str], required: tuple[str, ...] = ()
) -> dict[str, Any]:
    """The entries of `obj` that are of the kind `kinds` names for their key;
    every unknown, missing or ill-kinded entry goes to `errors`."""
    if type(obj) is not dict:
        errors.append(f"{where}must be an object")
        return {}
    out: dict[str, Any] = {}
    for key, value in obj.items():
        kind = kinds.get(key)
        if kind is None:
            errors.append(f"{where}unknown key {key!r}")
            continue
        try:
            out[key] = kind(value)
        except ValueError as exc:
            errors.append(f"{where}{key} {exc}")
    for key in required:
        if key not in obj:
            errors.append(f"{where}missing key {key!r}")
    return out
