"""JSON interchange for machines.

Every machine serializes to a dict with a "type" tag ("dfa", "nfa", "afa",
"2way", "pfa"), states as integers, EPSILON as the empty string, moves as
"L" / "S" / "R", and probabilities as exact "numerator/denominator" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
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


def _label_map(labels: dict[int, str]) -> dict[str, str]:
    return {str(state): name for state, name in sorted(labels.items())}


# Each machine class and its "type" tag; LasVegasPfa falls under OneWayPfa.
_TYPE_TAGS = (
    (OneWayDfa, "dfa"),
    (OneWayAfa, "afa"),
    (OneWayNfa, "nfa"),
    (TwoWayMachine, "2way"),
    (OneWayPfa, "pfa"),
)


def type_tag(machine: Machine) -> str:
    """The interchange "type" tag of a machine."""
    for cls, tag in _TYPE_TAGS:
        if isinstance(machine, cls):
            return tag
    raise TypeError(f"unsupported machine type {type(machine).__name__}")


def machine_to_dict(machine: Machine) -> dict[str, Any]:
    """Serialize any machine to its interchange dict."""
    tag = type_tag(machine)
    base: dict[str, Any] = {
        "type": tag,
        "states": machine.state_count,
        "alphabet": list(machine.alphabet),
        "initial": machine.initial,
        "labels": _label_map(machine.labels),
    }
    if tag == "pfa":
        base["roles"] = {str(s): role for s, role in sorted(machine.roles.items())}
        base["transitions"] = sorted(
            [src, sym, dst, fraction_to_str(prob)]
            for (src, sym), row in machine.transitions.items()
            for dst, prob in row
        )
        if isinstance(machine, LasVegasPfa):
            base["lasvegas"] = True
        return base
    base["accepting"] = sorted(machine.accepting)
    if tag == "dfa":
        base["transitions"] = sorted(
            [src, sym, dst] for (src, sym), dst in machine.transitions.items()
        )
    elif tag == "2way":
        base["deterministic"] = machine.deterministic
        base["transitions"] = sorted(
            [src, sym, dst, _MOVE_TO_JSON[move]]
            for src, sym, dst, move in machine.transitions
        )
    else:
        if tag == "afa":
            base["existential"] = sorted(machine.existential)
            base["eps_chain"] = machine.max_eps_chain
        base["transitions"] = sorted(
            [src, "" if sym is EPSILON else sym, dst]
            for src, sym, dst in machine.transitions
        )
    return base


def _require(data: dict[str, Any], key: str) -> Any:
    if key not in data:
        raise MachineFormatError(f"machine dict is missing {key!r}")
    return data[key]


def _int_keys(mapping: dict[str, Any], what: str) -> dict[int, Any]:
    if not isinstance(mapping, dict):
        raise MachineFormatError(f"{what} must be an object keyed by state number")
    try:
        return {int(key): value for key, value in mapping.items()}
    except (TypeError, ValueError) as exc:
        raise MachineFormatError(f"{what} keys must be state numbers") from exc


def machine_from_dict(data: dict[str, Any]) -> Machine:
    """Rebuild a machine from its interchange dict, validating as it goes."""
    kind = _require(data, "type")
    states = _require(data, "states")
    if not isinstance(states, int) or states > DEFAULT_STATE_CAP:
        raise MachineFormatError(
            f"states {states!r} must be an integer up to the cap {DEFAULT_STATE_CAP}"
        )
    try:
        common = {
            "state_count": states,
            "alphabet": tuple(_require(data, "alphabet")),
            "initial": _require(data, "initial"),
            "labels": _int_keys(data.get("labels", {}), "labels"),
        }
        if kind == "dfa":
            transitions = {
                (src, sym): dst for src, sym, dst in _require(data, "transitions")
            }
            if len(transitions) != len(data["transitions"]):
                raise MachineFormatError("dfa has duplicate (state, symbol) entries")
            return OneWayDfa(
                **common,
                transitions=transitions,
                accepting=frozenset(_require(data, "accepting")),
            )
        if kind == "nfa":
            return OneWayNfa(
                **common,
                transitions=frozenset(
                    (src, EPSILON if sym == "" else sym, dst)
                    for src, sym, dst in _require(data, "transitions")
                ),
                accepting=frozenset(_require(data, "accepting")),
            )
        if kind == "afa":
            return OneWayAfa(
                **common,
                transitions=frozenset(
                    (src, EPSILON if sym == "" else sym, dst)
                    for src, sym, dst in _require(data, "transitions")
                ),
                accepting=frozenset(_require(data, "accepting")),
                existential=frozenset(_require(data, "existential")),
                max_eps_chain=data.get("eps_chain", 3),
            )
        if kind == "2way":
            moves = []
            for src, sym, dst, move in _require(data, "transitions"):
                if move not in _MOVE_FROM_JSON:
                    raise MachineFormatError(f"bad move {move!r}, expected L/S/R")
                moves.append((src, sym, dst, _MOVE_FROM_JSON[move]))
            return TwoWayMachine(
                **common,
                transitions=frozenset(moves),
                accepting=frozenset(_require(data, "accepting")),
                deterministic=data.get("deterministic", False),
            )
        if kind == "pfa":
            rows: dict[tuple[int, str], list[tuple[int, Fraction]]] = {}
            for src, sym, dst, prob in _require(data, "transitions"):
                rows.setdefault((src, sym), []).append((dst, fraction_from_str(prob)))
            cls = LasVegasPfa if data.get("lasvegas") else OneWayPfa
            return cls(
                **common,
                transitions={key: tuple(row) for key, row in rows.items()},
                roles=_int_keys(_require(data, "roles"), "roles"),
            )
    except MachineFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise MachineFormatError(f"invalid {kind} machine: {exc}") from exc
    raise MachineFormatError(f"unknown machine type {kind!r}")


def dumps(machine: Machine) -> str:
    """Serialize to a byte-stable JSON string (sorted keys, fixed layout)."""
    return json.dumps(machine_to_dict(machine), sort_keys=True, indent=2)


def loads(text: str) -> Machine:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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
