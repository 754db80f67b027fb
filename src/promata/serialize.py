"""JSON interchange for machines.

Every machine serializes to a dict with a "type" tag ("dfa", "nfa", "afa",
"2way", "pfa"), states as integers, EPSILON as the empty string, moves as
"L" / "S" / "R", and probabilities as exact "numerator/denominator" strings.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Collection, Iterable
from fractions import Fraction
from itertools import chain
from typing import Any

from .errors import MachineFormatError
from .machines import (
    DEFAULT_STATE_CAP,
    EPSILON,
    LEFT,
    RIGHT,
    STAY,
    LasVegasPfa,
    OneWayAfa,
    OneWayDfa,
    OneWayNfa,
    OneWayPfa,
    TwoWayMachine,
)

_MOVE_TO_JSON = {LEFT: "L", STAY: "S", RIGHT: "R"}
_MOVE_FROM_JSON = {"L": LEFT, "S": STAY, "R": RIGHT}

Machine = OneWayDfa | OneWayNfa | TwoWayMachine | OneWayAfa | OneWayPfa


def fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def fraction_from_str(text: str) -> Fraction:
    if not isinstance(text, str):
        raise MachineFormatError(f"rational {text!r} must be a \"num/den\" string")
    try:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise MachineFormatError(f"bad rational literal {text!r}") from exc


def _state_map(mapping: dict[int, str]) -> dict[str, str]:
    return {str(state): value for state, value in sorted(mapping.items())}


def _int_keys(mapping: dict[str, Any], what: str) -> dict[int, Any]:
    if not isinstance(mapping, dict):
        raise MachineFormatError(f"{what} must be an object keyed by state number")
    try:
        return {int(key): value for key, value in mapping.items()}
    except (TypeError, ValueError) as exc:
        raise MachineFormatError(f"{what} keys must be state numbers") from exc


def _require(data: dict[str, Any], key: str) -> Any:
    if key not in data:
        raise MachineFormatError(f"machine dict is missing {key!r}")
    return data[key]


def _listed_once(values: list, made: Collection, what: str) -> Any:
    """`made`, the set or table made from `values`, once no entry of
    `values` repeats. Python takes JSON true and false for 1 and 0, so
    either one next to an equal state is a repeat too."""
    if len(made) != len(values):
        raise MachineFormatError(f"duplicate {what}")
    return made


def _dfa_rows(table: dict) -> Iterable[list]:
    return ([src, sym, dst] for (src, sym), dst in table.items())


def _dfa_table(rows: list) -> dict:
    table = {(src, sym): dst for src, sym, dst in rows}
    return _listed_once(rows, table, "(state, symbol) transitions")


def _silent_rows(moves: frozenset) -> Iterable[list]:
    return ([src, "" if sym is EPSILON else sym, dst] for src, sym, dst in moves)


def _silent_moves(rows: list) -> frozenset:
    moves = frozenset((src, EPSILON if sym == "" else sym, dst) for src, sym, dst in rows)
    return _listed_once(rows, moves, "transitions")


def _head_rows(moves: frozenset) -> Iterable[list]:
    return ([src, sym, dst, _MOVE_TO_JSON[move]] for src, sym, dst, move in moves)


def _head_moves(rows: list) -> frozenset:
    moves = []
    for src, sym, dst, move in rows:
        if move not in _MOVE_FROM_JSON:
            raise MachineFormatError(f"bad move {move!r}, expected L/S/R")
        moves.append((src, sym, dst, _MOVE_FROM_JSON[move]))
    return _listed_once(rows, frozenset(moves), "transitions")


def _stochastic_rows(table: dict) -> Iterable[list]:
    return (
        [src, sym, dst, fraction_to_str(prob)]
        for (src, sym), row in table.items()
        for dst, prob in row
    )


def _stochastic_table(rows: list) -> dict:
    table: dict[tuple[int, str], list[tuple[int, Fraction]]] = {}
    for src, sym, dst, prob in rows:
        if isinstance(src, bool):  # the row's key would fold into state 0 or 1
            raise ValueError(f"transition source {src!r} is not a state number")
        table.setdefault((src, sym), []).append((dst, fraction_from_str(prob)))
    moves = {(src, sym, dst) for src, sym, dst, _ in rows}
    _listed_once(rows, moves, "(state, symbol, target) transitions")
    return {key: tuple(row) for key, row in table.items()}


# Each "type" tag: the class, its transitions to JSON rows and back, and its
# other plain fields as (JSON key, attribute, default when the key is absent).
# The state sets a class names in _state_sets are written as sorted lists.
# LasVegasPfa falls under OneWayPfa and is marked by "lasvegas": true.
_KINDS = {
    "dfa": (OneWayDfa, _dfa_rows, _dfa_table, ()),
    "nfa": (OneWayNfa, _silent_rows, _silent_moves, ()),
    "afa": (OneWayAfa, _silent_rows, _silent_moves, (("eps_chain", "max_eps_chain", 3),)),
    "2way": (
        TwoWayMachine, _head_rows, _head_moves, (("deterministic", "deterministic", False),)
    ),
    "pfa": (OneWayPfa, _stochastic_rows, _stochastic_table, ()),
}


def type_tag(machine: Machine) -> str:
    """The interchange "type" tag of a machine."""
    for tag, (cls, *_) in _KINDS.items():
        if isinstance(machine, cls):
            return tag
    raise TypeError(f"unsupported machine type {type(machine).__name__}")


def machine_to_dict(machine: Machine) -> dict[str, Any]:
    """Serialize any machine to its interchange dict."""
    tag = type_tag(machine)
    cls, rows, _, options = _KINDS[tag]
    out: dict[str, Any] = {
        "type": tag,
        "states": machine.state_count,
        "alphabet": list(machine.alphabet),
        "initial": machine.initial,
        "labels": _state_map(machine.labels),
        "transitions": sorted(rows(machine.transitions)),
    }
    for name in cls._state_sets:
        out[name] = sorted(getattr(machine, name))
    for key, attribute, _ in options:
        out[key] = getattr(machine, attribute)
    if cls is OneWayPfa:
        out["roles"] = _state_map(machine.roles)
        if isinstance(machine, LasVegasPfa):
            out["lasvegas"] = True
    return out


def machine_from_dict(data: dict[str, Any]) -> Machine:
    """Rebuild a machine from its interchange dict, validating as it goes."""
    tag = _require(data, "type")
    states = _require(data, "states")
    if type(states) is not int or states > DEFAULT_STATE_CAP:
        raise MachineFormatError(
            f"states {states!r} must be an integer up to the cap {DEFAULT_STATE_CAP}"
        )
    try:
        fields = {
            "state_count": states,
            "alphabet": tuple(_require(data, "alphabet")),
            "initial": _require(data, "initial"),
            "labels": _int_keys(data.get("labels", {}), "labels"),
        }
        if not isinstance(tag, str) or tag not in _KINDS:
            raise MachineFormatError(f"unknown machine type {tag!r}")
        cls, _, transitions, options = _KINDS[tag]
        fields["transitions"] = transitions(_require(data, "transitions"))
        for name in cls._state_sets:
            listed = _require(data, name)
            fields[name] = _listed_once(listed, frozenset(listed), f"{name} states")
        for key, attribute, default in options:
            fields[attribute] = data.get(key, default)
        if cls is OneWayPfa:
            fields["roles"] = _int_keys(_require(data, "roles"), "roles")
            if data.get("lasvegas"):
                cls = LasVegasPfa
        return cls(**fields)
    except MachineFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise MachineFormatError(f"invalid {tag} machine: {exc}") from exc


_SCALARS = frozenset({str, int, float, bool, type(None)})
_ROWS = frozenset({list, tuple})


@functools.lru_cache(maxsize=64)
def _encoder(separator: str):
    """The C encoder, with sorted keys and `separator` between items."""
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": ")).encode


def stable_json(value: Any) -> str:
    """The byte-stable JSON of a value: `json.dumps(value, sort_keys=True,
    indent=2)`, byte for byte, with the same errors.

    CPython's C encoder runs only without `indent`, so this writer hands it
    every container whose items are all scalars, with the line break and
    indent of that depth as the item separator. A list of non-empty flat
    lists (a machine's transitions) goes to it in one call with a bare "\n"
    between items and is indented afterwards: the encoder escapes every "\n"
    and "\0" inside strings, so each raw "\n" it writes is a separator and
    "\0" is free to mark the row boundaries. Other containers recurse.
    """
    return _stable(value, "\n")


def _stable(value: Any, newline: str) -> str:
    """`value` as written at the depth whose line break is `newline`."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        if set(map(type, value.values())) <= _SCALARS:
            body = _encoder("," + inner)(value)[1:-1]
        else:
            body = ("," + inner).join(
                f"{_key(key)}: {_stable(item, inner)}" for key, item in sorted(value.items())
            )
        return "{" + inner + body + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        types = set(map(type, value))
        if types <= _SCALARS:
            body = _encoder("," + inner)(value)[1:-1]
        elif types <= _ROWS and all(value) and set(map(type, chain.from_iterable(value))) <= _SCALARS:
            deeper = inner + "  "
            body = (
                "[" + deeper
                + _encoder("\n")(value)[2:-2]
                .replace("]\n[", "\0")
                .replace("\n", "," + deeper)
                .replace("\0", inner + "]," + inner + "[" + deeper)
                + inner + "]"
            )
        else:
            body = ("," + inner).join(_stable(item, inner) for item in value)
        return "[" + inner + body + newline + "]"
    return _encoder(", ")(value)


def _key(key: Any) -> str:
    """A dict key as json writes it, or its error: `{key: 0}` is `{KEY: 0}`."""
    if isinstance(key, str):  # the common case, ten times faster
        return _encoder(", ")(key)
    return _encoder(", ")({key: 0})[1:-4]


def dumps(machine: Machine) -> str:
    """Serialize to a byte-stable JSON string (sorted keys, fixed layout)."""
    return stable_json(machine_to_dict(machine))


def loads(text: str) -> Machine:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise MachineFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MachineFormatError("JSON nests too deeply to be a machine") from exc
    if not isinstance(data, dict):
        raise MachineFormatError("machine JSON must be an object")
    return machine_from_dict(data)


def save(machine: Machine, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(machine) + "\n")


def load(path: str) -> Machine:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())
