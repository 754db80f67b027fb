"""Conversions between machine types and closed-form size bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlphabetMismatchError, ResourceCapError
from .machines import (
    OneWayAfa,
    OneWayDfa,
    OneWayNfa,
    _afa_stepper,
    _bits,
    _image,
    _mask,
    _nfa_stepper,
    _nfa_tables,
    _orbit,
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


def nfa_to_dfa(nfa: OneWayNfa, subset_cap: int = DEFAULT_SUBSET_CAP) -> OneWayDfa:
    """Subset construction over reachable EPSILON-closed state sets.

    Transitions into the empty set are left undefined, so the result is a
    partial machine and never carries a dead state of its own.
    """
    start, step, accepts, _ = _nfa_stepper(nfa)
    index: dict[int, int] = {start: 0}
    order = [start]
    transitions: dict[tuple[int, str], int] = {}
    head = 0
    while head < len(order):
        subset = order[head]
        head += 1
        for sym in nfa.alphabet:
            target = step(subset, sym)
            if not target:
                continue
            if target not in index:
                if len(index) >= subset_cap:
                    raise ResourceCapError(
                        f"subset construction exceeds {subset_cap} states"
                    )
                index[target] = len(order)
                order.append(target)
            transitions[(index[subset], sym)] = index[target]
    return OneWayDfa(
        state_count=len(order),
        alphabet=nfa.alphabet,
        initial=0,
        transitions=transitions,
        accepting=frozenset(idx for idx, subset in enumerate(order) if accepts(subset)),
        labels={
            idx: "{" + ",".join(map(str, _bits(subset))) + "}"
            for idx, subset in enumerate(order)
        },
    )


def remove_epsilon(nfa: OneWayNfa) -> OneWayNfa:
    """Equivalent EPSILON-free machine on the same states.

    Symbol moves are composed through closures on both sides, and a state
    becomes accepting when its closure meets an accepting state.
    """
    closure, succ = _nfa_tables(nfa)
    accepting_mask = _mask(nfa.accepting)
    transitions: set[tuple[int, str | None, int]] = set()
    accepting: set[int] = set()
    for state in range(nfa.state_count):
        if closure[state] & accepting_mask:
            accepting.add(state)
        for sym in nfa.alphabet:
            moved = _image(closure[state], succ[sym])
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
    vector, step, accepts, _ = _afa_stepper(afa)
    sym = afa.alphabet[0]
    vectors, entry = _orbit(step, sym, vector, vector_cap)
    last = len(vectors) - 1
    return OneWayDfa(
        state_count=len(vectors),
        alphabet=afa.alphabet,
        initial=0,
        transitions={(i, sym): i + 1 if i < last else entry for i in range(len(vectors))},
        accepting=frozenset(idx for idx, vec in enumerate(vectors) if accepts(vec)),
        labels={
            idx: "".join("1" if vec >> q & 1 else "0" for q in range(afa.state_count))
            for idx, vec in enumerate(vectors)
        },
    )


def _reachable_states(dfa: OneWayDfa) -> list[int]:
    seen = {dfa.initial}
    queue = [dfa.initial]
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        for sym in dfa.alphabet:
            target = dfa.transitions.get((state, sym))
            if target is not None and target not in seen:
                seen.add(target)
                queue.append(target)
    return queue


def dfa_minimize(dfa: OneWayDfa) -> OneWayDfa:
    """Language-minimal machine for the same partial-run semantics.

    Works on the completed reachable machine (a temporary dead state absorbs
    undefined moves), refines state classes until stable, and then drops the
    dead class again unless it is the initial one, so the reported size
    follows the convention that a plain rejecting sink does not count.
    """
    reachable = _reachable_states(dfa)
    position = {state: i for i, state in enumerate(reachable)}
    dead = len(reachable)  # completion sink, possibly merged with real states
    count = dead + 1
    symbols = list(dfa.alphabet)
    table: list[list[int]] = []
    for state in reachable:
        row = []
        for sym in symbols:
            target = dfa.transitions.get((state, sym))
            row.append(position[target] if target is not None else dead)
        table.append(row)
    table.append([dead] * len(symbols))
    is_accepting = [state in dfa.accepting for state in reachable] + [False]

    # Moore refinement to a fixed point.
    block = [0 if acc else 1 for acc in is_accepting]
    while True:
        signature = {}
        new_block = [0] * count
        for state in range(count):
            key = (block[state], tuple(block[t] for t in table[state]))
            if key not in signature:
                signature[key] = len(signature)
            new_block[state] = signature[key]
        if new_block == block:
            break
        block = new_block

    # Renumber classes in breadth-first order from the initial class.
    initial_class = block[position[dfa.initial]]
    rep: dict[int, int] = {}
    for state in range(count):
        rep.setdefault(block[state], state)
    numbering = {initial_class: 0}
    order = [initial_class]
    head = 0
    while head < len(order):
        cls = order[head]
        head += 1
        for target in table[rep[cls]]:
            cls_t = block[target]
            if cls_t not in numbering:
                numbering[cls_t] = len(numbering)
                order.append(cls_t)
    dead_class = block[dead]
    drop_dead = dead_class in numbering and numbering[dead_class] != 0
    final_ids: dict[int, int] = {}
    for cls in order:
        if drop_dead and cls == dead_class:
            continue
        final_ids[cls] = len(final_ids)

    transitions: dict[tuple[int, str], int] = {}
    accepting: set[int] = set()
    for cls, ident in final_ids.items():
        if is_accepting[rep[cls]]:
            accepting.add(ident)
        for sym_idx, sym in enumerate(symbols):
            target_class = block[table[rep[cls]][sym_idx]]
            if drop_dead and target_class == dead_class:
                continue
            transitions[(ident, sym)] = final_ids[target_class]
    return OneWayDfa(
        state_count=len(final_ids),
        alphabet=dfa.alphabet,
        initial=0,
        transitions=transitions,
        accepting=frozenset(accepting),
    )


def dfa_equivalent(left: OneWayDfa, right: OneWayDfa) -> bool:
    """Exact language equality via product reachability, stuck means reject."""
    if left.symbols != right.symbols:
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(left.symbols)} vs {sorted(right.symbols)}"
        )
    start = (left.initial, right.initial)
    seen = {start}
    queue = [start]
    head = 0
    while head < len(queue):
        a, b = queue[head]
        head += 1
        a_acc = a is not None and a in left.accepting
        b_acc = b is not None and b in right.accepting
        if a_acc != b_acc:
            return False
        for sym in left.alphabet:
            a_next = left.transitions.get((a, sym)) if a is not None else None
            b_next = right.transitions.get((b, sym)) if b is not None else None
            if a_next is None and b_next is None:
                continue
            pair = (a_next, b_next)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


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
    # Integer Newton iteration from above converges to the floor cube root.
    k = 1 << -(-m.bit_length() // 3)
    while True:
        nxt = (2 * k + m // (k * k)) // 3
        if nxt >= k:
            break
        k = nxt
    return k if k**3 == m else k + 1


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
