"""Conversions between machine types and closed-form size bounds."""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

from .errors import AlphabetMismatchError, ResourceCapError
from .machines import (
    OneWayAfa,
    OneWayDfa,
    OneWayNfa,
    Stepper,
    TwoWayMachine,
    _afa_stepper,
    _bits,
    _image,
    _mask,
    _nfa_stepper,
    _twoway_stepper,
)

DEFAULT_SUBSET_CAP = 1 << 16
DEFAULT_VECTOR_CAP = 1 << 20
# Most bits of any integer a closed-form bound builds; its decimal report
# still prints in a few seconds.
BOUND_BITS_CAP = 1 << 19


def dfa_to_nfa(dfa: OneWayDfa) -> OneWayNfa:
    """View a deterministic machine as a nondeterministic one."""
    return OneWayNfa(
        state_count=dfa.state_count,
        alphabet=dfa.alphabet,
        initial=dfa.initial,
        transitions=frozenset(
            (src, sym, dst) for (src, sym), dst in dfa.transitions.items()
        ),
        accepting=dfa.accepting,
        labels=dfa.labels,
    )


def dfa_complete(dfa: OneWayDfa) -> OneWayDfa:
    """Total version of a partial machine: undefined moves go to a dead state.

    A machine that is already total is returned unchanged; otherwise one
    non-accepting sink state absorbs every missing transition.
    """
    missing = [
        (state, sym)
        for state in range(dfa.state_count)
        for sym in dfa.alphabet
        if (state, sym) not in dfa.transitions
    ]
    if not missing:
        return dfa
    dead = dfa.state_count
    transitions = dict(dfa.transitions)
    for key in missing:
        transitions[key] = dead
    for sym in dfa.alphabet:
        transitions[(dead, sym)] = dead
    return OneWayDfa(
        state_count=dfa.state_count + 1,
        alphabet=dfa.alphabet,
        initial=dfa.initial,
        transitions=transitions,
        accepting=dfa.accepting,
        labels=dfa.labels,
    )


def _reachable(
    start: Hashable,
    step: Callable[[Any, str], Any],
    alphabet: tuple[str, ...],
    dead: Hashable = None,
    cap: int | None = None,
    message: str = "",
) -> tuple[list, dict[tuple[int, str], int]]:
    """Number the values reachable from start in breadth-first order.

    Each value is stepped on the symbols in alphabet order. Returns the
    values by number and the moves {(source number, symbol): target
    number}; moves into dead are left out. Raises
    ResourceCapError(message.format(cap=cap)) before numbering a value
    beyond cap. Every conversion to a deterministic machine reads its states
    off this one walk through _dfa_of, so each result is numbered
    breadth-first from 0.
    """
    index = {start: 0}
    order = [start]
    moves: dict[tuple[int, str], int] = {}
    for source, value in enumerate(order):  # order grows while it is walked
        for sym in alphabet:
            target = step(value, sym)
            if target == dead:
                continue
            number = index.get(target)
            if number is None:
                if cap is not None and len(order) >= cap:
                    raise ResourceCapError(message.format(cap=cap))
                number = index[target] = len(order)
                order.append(target)
            moves[(source, sym)] = number
    return order, moves


def _dfa_of(
    stepper: Stepper,
    alphabet: tuple[str, ...],
    dead: Hashable = None,
    cap: int | None = None,
    message: str = "",
    label: Callable[[Any], str] | None = None,
) -> OneWayDfa:
    """The deterministic machine on the stepper's values reachable over
    alphabet, numbered by _reachable with dead, cap and message; a state
    accepts iff its value's outcome is true, and label names it if given."""
    order, transitions = _reachable(stepper.start, stepper.step, alphabet, dead, cap, message)
    return OneWayDfa(
        state_count=len(order),
        alphabet=alphabet,
        initial=0,
        transitions=transitions,
        accepting=frozenset(i for i, value in enumerate(order) if stepper.outcome(value)),
        labels={i: label(value) for i, value in enumerate(order)} if label else {},
    )


def nfa_to_dfa(nfa: OneWayNfa, subset_cap: int = DEFAULT_SUBSET_CAP) -> OneWayDfa:
    """Subset construction over reachable EPSILON-closed state sets.

    Transitions into the empty set are left undefined, so the result is a
    partial machine and never carries a dead state of its own.
    """
    return _dfa_of(
        _nfa_stepper(nfa), nfa.alphabet, dead=0, cap=subset_cap,
        message="subset construction exceeds {cap} states",
        label=lambda subset: "{" + ",".join(map(str, _bits(subset))) + "}",
    )


def twoway_to_dfa(
    machine: TwoWayMachine, subset_cap: int = DEFAULT_SUBSET_CAP
) -> OneWayDfa:
    """One-way deterministic machine for a two-way one, by the crossing
    construction (Shepherdson 1959; Kapoutsis 2005 for 2NFAs).

    The states are the crossing tables reachable over the alphabet (see
    machines._twoway_stepper), numbered breadth-first; a state accepts iff
    its table accepts on the right endmarker. Moves into the dead table are
    left undefined, so the result is partial. Kapoutsis' count
    (bound_2nfa_to_dfa) assumes acceptance at the right endmarker only;
    here a machine accepts by halting anywhere and may STAY, so at n = 1
    the bound of 1 does not hold: one accepting state that moves right on
    a, halts on b and STAYs on the right endmarker accepts the words that
    contain b, whose minimal DFA has 2 states.
    """
    return _dfa_of(
        _twoway_stepper(machine), machine.alphabet, dead=0, cap=subset_cap,
        message="crossing construction exceeds {cap} states",
    )


def remove_epsilon(nfa: OneWayNfa) -> OneWayNfa:
    """Equivalent EPSILON-free machine on the same states.

    Symbol moves are composed through closures on both sides, and a state
    becomes accepting when its closure meets an accepting state.
    """
    closure, succ = nfa._closure, nfa._succ  # type: ignore[attr-defined]
    accepting_mask = _mask(nfa.accepting)
    accepting = set(nfa.accepting)
    accepting.update(state for state, reach in closure.items() if reach & accepting_mask)
    transitions: set[tuple[int, str | None, int]] = set()
    for sym, rows in succ.items():
        for state in rows.keys() | closure.keys():
            moved = _image(closure[state], rows) if state in closure else rows[state]
            transitions.update((state, sym, target) for target in _bits(moved))
    return OneWayNfa(
        state_count=nfa.state_count,
        alphabet=nfa.alphabet,
        initial=nfa.initial,
        transitions=frozenset(transitions),
        accepting=frozenset(accepting),
        labels=nfa.labels,
    )


def unary_afa_to_dfa(
    afa: OneWayAfa, vector_cap: int = DEFAULT_VECTOR_CAP
) -> OneWayDfa:
    """Exact determinization of a unary alternating machine.

    Tracks the backward valuation vector v_j, where v_j[q] says whether the
    machine accepts a^j when started in q: v_0 is the alternating machine's
    end-of-input valuation, and one backward step per symbol rebuilds the
    vector for j+1 from the one for j (the step afa_accepts folds). Distinct
    vectors become the states of the resulting (lasso-shaped) deterministic
    machine, so at most 2^state_count states can ever appear.
    """
    if len(afa.alphabet) != 1:
        raise ValueError("unary determinization needs a one-symbol alphabet")
    return _dfa_of(
        _afa_stepper(afa), afa.alphabet, cap=vector_cap, message="orbit exceeds {cap} values",
        label=lambda vec: "".join("1" if vec >> q & 1 else "0" for q in range(afa.state_count)),
    )


def _coarsest_congruence(table: list[list[int]], is_accepting: list[bool]) -> list[int]:
    """Block number of each state in the coarsest partition that keeps
    accepting and rejecting states apart and that every move respects.

    table[state][i] is the target on the i-th symbol and must be total.
    Hopcroft's refinement: a splitter (block, symbol) splits each block that
    has some but not all of its states moving into the splitter block. The
    smaller half gets a new number and becomes a splitter on every symbol,
    so a state joins a splitter at most log2 n times per symbol, and each
    split costs time in the size of that smaller half only.
    """
    width = len(table[0])
    inverse: list[list[list[int]]] = [[[] for _ in table] for _ in range(width)]
    for state, row in enumerate(table):
        for i, target in enumerate(row):
            inverse[i][target].append(state)
    block = [int(acc) for acc in is_accepting]
    members = [{s for s, b in enumerate(block) if b == label} for label in (0, 1)]
    smaller = int(len(members[1]) <= len(members[0]))
    work = [(smaller, i) for i in range(width)]
    while work:
        splitter, i = work.pop()
        into = inverse[i]
        touched: defaultdict[int, set[int]] = defaultdict(set)
        for target in members[splitter]:
            for source in into[target]:
                touched[block[source]].add(source)
        for old, inside in touched.items():
            whole = members[old]
            if len(inside) == len(whole):
                continue
            if 2 * len(inside) > len(whole):
                inside = whole - inside
            whole -= inside
            new = len(members)
            members.append(inside)
            for state in inside:
                block[state] = new
            work.extend((new, j) for j in range(width))
    return block


def dfa_minimize(dfa: OneWayDfa) -> OneWayDfa:
    """Language-minimal machine for the same partial-run semantics.

    Works on the completed reachable machine (a temporary dead state absorbs
    undefined moves) and finds its coarsest congruence by Hopcroft's
    partition refinement with the smaller-half worklist, in O(m log n) time
    for n states and m = n |alphabet| moves. It then drops the dead class
    again unless it is the initial one, so the reported size follows the
    convention that a plain rejecting sink does not count.
    """
    move = dfa.transitions.get
    reachable, moves = _reachable(dfa.initial, lambda state, sym: move((state, sym)), dfa.alphabet)
    dead = len(reachable)  # completion sink, possibly merged with real states
    count = dead + 1
    table = [[moves.get((state, sym), dead) for sym in dfa.alphabet] for state in range(count)]
    is_accepting = [state in dfa.accepting for state in reachable] + [False]
    block = _coarsest_congruence(table, is_accepting)

    # Number the classes breadth-first from the initial one. The classes are
    # a congruence, so the dead class leads only to itself, and leaving it
    # out renumbers no other class.
    rep: dict[int, int] = {}
    for state in range(count):
        rep.setdefault(block[state], state)
    dead_class = block[dead]
    return _dfa_of(
        Stepper(
            block[0],
            lambda cls, sym: block[moves.get((rep[cls], sym), dead)],
            lambda cls: is_accepting[rep[cls]],
        ),
        dfa.alphabet,
        dead=dead_class if dead_class != block[0] else None,
    )


def dfa_equivalent(left: OneWayDfa, right: OneWayDfa) -> bool:
    """Exact language equality via product reachability, stuck means reject."""
    if left.symbols != right.symbols:
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(left.symbols)} vs {sorted(right.symbols)}"
        )
    left_move, right_move = left.transitions.get, right.transitions.get
    pairs, _ = _reachable(
        (left.initial, right.initial),
        lambda pair, sym: (left_move((pair[0], sym)), right_move((pair[1], sym))),
        left.alphabet,
        dead=(None, None),
    )
    return all((a in left.accepting) == (b in right.accepting) for a, b in pairs)


@dataclass(frozen=True)
class BoundValue:
    """A closed-form size bound evaluated at one argument.

    ``value`` is the exact integer when ``is_exact``, otherwise the ceiling
    of the (irrational) real value, which ``real_value`` approximates.
    """

    formula: str
    argument: int
    value: int
    is_exact: bool = True
    real_value: float | None = None


def _bound_cap_error(n: int) -> ResourceCapError:
    return ResourceCapError(f"bound at n={n} exceeds the {BOUND_BITS_CAP}-bit cap")


def bound_afa_to_dfa(n: int) -> BoundValue:
    """Worst-case deterministic blowup 2^(n 2^n) for an n-state alternating machine."""
    if n < 1:
        raise ValueError("n must be at least 1")
    # n 2^n >= 2^n, so a large n is refused before its power is built.
    if n > BOUND_BITS_CAP.bit_length() or n << n >= BOUND_BITS_CAP:
        raise _bound_cap_error(n)
    return BoundValue("afa_to_dfa", n, 1 << (n << n))


def bound_2nfa_to_dfa(n: int) -> BoundValue:
    """Worst-case one-way deterministic blowup for an n-state two-way machine.

    The bound is the double sum over i, j < n of C(n,i) C(n,j) (2^i - 1)^j,
    with 0^0 = 1. Summing over j gives 2^(in) - (2^i - 1)^n; expanding that
    power binomially and exchanging the sums leaves one sum over k < n of
    (-1)^(n-k+1) C(n,k) B(2^k), where B(y) = sum over i < n of C(n,i) y^i.
    B at a power of two is built from shifts alone. Every integer built is
    below 2^(n^2 + n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n * n + n > BOUND_BITS_CAP:
        raise _bound_cap_error(n)
    row = [math.comb(n, i) for i in range(n)]
    return BoundValue(
        "2nfa_to_dfa",
        n,
        sum(
            (row[k] if (n - k) % 2 else -row[k]) * _at_power_of_two(row, k)
            for k in range(n)
        ),
    )


def _at_power_of_two(coefficients: list[int], shift: int) -> int:
    """The sum of c_i 2^(shift i), adding neighbouring terms pairwise level by level."""
    terms = list(coefficients)
    while len(terms) > 1:
        terms.append(0)  # pads an odd level; an even one drops it in the zip
        terms = [low + (high << shift) for low, high in zip(terms[::2], terms[1::2])]
        shift *= 2
    return terms[0]


def _ceil_cbrt(m: int) -> int:
    """Smallest k with k^3 >= m, exact for any non-negative integer."""
    if m <= 0:
        return 0
    k = _floor_cbrt(m)
    return k if k**3 == m else k + 1


def _floor_cbrt(m: int) -> int:
    """Largest k with k^3 <= m, for m >= 1, by precision doubling.

    The floor root r of m >> 3s, for s a sixth of m's bits, gives the start
    (r + 1) << s, above the answer by a relative 1/r at most; integer Newton
    iteration from above then needs only a few divisions at each precision.
    """
    s = m.bit_length() // 6
    k = (_floor_cbrt(m >> 3 * s) + 1) << s if s else 4
    while True:
        nxt = (2 * k + m // (k * k)) // 3
        if nxt >= k:
            return k
        k = nxt


def bound_svfa_to_dfa(n: int) -> BoundValue:
    """Deterministic size bound 1 + 3^((n-1)/3) for n-state zero-error machines.

    Exact when n - 1 is divisible by 3; otherwise the value field carries the
    ceiling and real_value the floating-point evaluation. real_value is None
    once the bound exceeds the float range (n of 1940 and above); value stays
    exact at every n under the cap on the bits of 3^(n-1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # 3^(n-1) has more than n - 1 bits, so a large n is refused unbuilt.
    power = 3 ** (n - 1) if n - 1 < BOUND_BITS_CAP else None
    if power is None or power.bit_length() > BOUND_BITS_CAP:
        raise _bound_cap_error(n)
    try:
        real = 1 + 3.0 ** ((n - 1) / 3)
    except OverflowError:
        real = None
    if (n - 1) % 3 == 0:
        exact = 1 + 3 ** ((n - 1) // 3)
        return BoundValue("svfa_to_dfa", n, exact, is_exact=True, real_value=real)
    return BoundValue("svfa_to_dfa", n, 1 + _ceil_cbrt(power), is_exact=False, real_value=real)
