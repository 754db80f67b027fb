"""Problem families and the machines built for them, with exact state budgets.

A builder that names its states lists the names once and numbers them in
that order, so the structure stays auditable; the advertised state counts are
enforced at construction time.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import product

from .errors import ResourceCapError
from .machines import (
    DEFAULT_STATE_CAP,
    EPSILON,
    LEFT,
    LEFT_MARKER,
    RIGHT,
    ROLE_ACCEPTING,
    ROLE_NEUTRAL,
    ROLE_REJECTING,
    STAY,
    LasVegasPfa,
    OneWayAfa,
    OneWayDfa,
    OneWayPfa,
    PromiseProblem,
    TwoWayMachine,
    _shared_prefix,
)

DEFAULT_ITERATION_CAP = 10**6


def _check_cap(count: int, what: str, unit: str = "states") -> None:
    if count > DEFAULT_STATE_CAP:
        raise ResourceCapError(
            f"{what} needs {count} {unit}, above the cap {DEFAULT_STATE_CAP}"
        )


def _check_power_cap(exponent: int, what: str) -> None:
    """Reject at least 2^exponent states above the cap without computing the power."""
    if exponent >= DEFAULT_STATE_CAP.bit_length():
        raise ResourceCapError(
            f"{what} needs at least 2^{exponent} states, above the cap {DEFAULT_STATE_CAP}"
        )


def _lasso_dfa(
    size: int, loop_target: int | None, accepting: Iterable[int], sym: str
) -> OneWayDfa:
    """The unary chain 0 -> 1 -> ... -> size-1 over sym, whose last state
    moves back to loop_target, or has no move when loop_target is None.
    Every all-reachable unary DFA is one of these up to renaming."""
    transitions = {(i, sym): i + 1 for i in range(size - 1)}
    if loop_target is not None:
        transitions[(size - 1, sym)] = loop_target
    return OneWayDfa(
        state_count=size,
        alphabet=(sym,),
        initial=0,
        transitions=transitions,
        accepting=frozenset(accepting),
    )


# ---------------------------------------------------------------------------
# EvenOdd(k): unary words of length m * 2^k, even m versus odd m.


def evenodd_problem(k: int) -> PromiseProblem:
    """Unary promise problem: is the multiplier of 2^k even (yes) or odd (no)?

    A length n belongs to the promise iff 2^k divides n; it is a yes instance
    iff 2^(k+1) divides n.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    block = 1 << k
    period = 1 << (k + 1)

    def enumerator(max_length: int):
        gap = "a" * block
        yield 0, "", "yes"
        for n in range(block, max_length + 1, block):
            yield n - block, gap, ("yes" if n % period == 0 else "no")

    return PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: len(w) % period == 0,
        no_member=lambda w: len(w) % period == block,
        enumerator=enumerator,
        name=f"evenodd({k})",
    )


def evenodd_dfa(k: int) -> OneWayDfa:
    """Cyclic counter modulo 2^(k+1); exactly 2^(k+1) states."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_power_cap(k + 1, "evenodd_dfa")
    return _lasso_dfa(1 << (k + 1), 0, (0,), "a")


def _evenodd_afa_moves(k: int) -> int:
    """How many moves evenodd_afa_rt(k) has: 4k + 3 reading ones and
    (3k^2 + 15k - 2)/2 silent ones."""
    return (3 * k * k + 23 * k + 4) // 2


def _evenodd_rt_parts(
    k: int,
) -> tuple[list[str], list[tuple[int, int]], list[tuple[int, int]], list[int], list[int]]:
    """evenodd_afa_rt(k) by state index: its state names, its reading and
    its silent moves as (source, target) pairs, and its existential and
    accepting states.

    "s_ini" is state 0, "i_x" is 1 + 2(k - i) + x, "i_x,allone" is
    2k + 3 + 2(k - i) + x, "i_x,exzero" is 4k + 3 + 2(k - i) + x and
    "i_exzero" is 6k + 3 + (k - i).
    """
    # Index tables by bit position i: bit[i][x] is "i_x", allone[i][x]
    # "i_x,allone", exzero[i][x] "i_x,exzero" and locate[i] "i_exzero".
    # Positions below a kind's lowest i are never read.
    bit, allone, exzero = (
        [(base + 2 * (k - i), base + 2 * (k - i) + 1) for i in range(k + 1)]
        for base in (1, 2 * k + 3, 4 * k + 3)
    )
    locate = [7 * k + 3 - i for i in range(k + 1)]
    names = ["s_ini"]
    names += [f"{i}_{x}" for i in range(k, -1, -1) for x in (0, 1)]
    names += [f"{i}_{x},allone" for i in range(k, 0, -1) for x in (0, 1)]
    names += [f"{i}_{x},exzero" for i in range(k, 0, -1) for x in (0, 1)]
    names += [f"{i}_exzero" for i in range(k, 1, -1)]
    assert len(names) == 7 * k + 2

    reading = [(0, allone[k][1])]
    for i in range(1, k + 1):
        for x in (0, 1):
            # Reading a symbol: either some lower bit was zero (no borrow
            # reaches bit i) or all lower bits were one (bit i flips).
            reading += [(bit[i][x], exzero[i][x]), (bit[i][x], allone[i][1 - x])]
    reading += [(bit[0][x], bit[0][1 - x]) for x in (0, 1)]
    silent = []
    for i in range(1, k + 1):
        for x in (0, 1):
            silent.append((allone[i][x], bit[i][x]))
            silent += [(allone[i][x], bit[j][1]) for j in range(i)]
            silent.append((exzero[i][x], bit[i][x]))
            silent.append((exzero[i][x], locate[i] if i > 1 else bit[0][0]))
    for i in range(2, k + 1):
        silent += [(locate[i], bit[j][0]) for j in range(i)]

    existential = [*range(bit[k][0], bit[0][1] + 1), *range(locate[k], locate[1])]
    accepting = [0, *(bit[i][0] for i in range(k + 1))]
    return names, reading, silent, existential, accepting


def evenodd_afa_rt(k: int) -> OneWayAfa:
    """Alternating acceptor for EvenOdd(k) with exactly 7k+2 states.

    The machine checks that the k+1 low bits of (length - 1) are all ones,
    which is equivalent to 2^(k+1) dividing the length, by running a bitwise
    countdown backwards: state "i_x" claims bit i of the remaining length's
    predecessor pattern is x, "i_x,allone" additionally claims all lower bits
    are one (the borrow case), "i_x,exzero" claims some lower bit is zero,
    and "i_exzero" locates such a zero bit. Reading one symbol decrements the
    counter; the EPSILON layer (chains of length at most 2) re-establishes
    the bit claims after the decrement.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_cap(7 * k + 2, "evenodd_afa_rt")
    _check_cap(_evenodd_afa_moves(k), "evenodd_afa_rt", "moves")
    names, reading, silent, existential, accepting = _evenodd_rt_parts(k)
    moves = [(src, "a", dst) for src, dst in reading]
    moves += [(src, EPSILON, dst) for src, dst in silent]
    return OneWayAfa(
        state_count=len(names),
        alphabet=("a",),
        initial=0,
        transitions=frozenset(moves),
        accepting=frozenset(accepting),
        existential=frozenset(existential),
        max_eps_chain=2,
        labels=dict(enumerate(names)),
    )


def evenodd_afa_epsfree(k: int) -> OneWayAfa:
    """EPSILON-free alternating acceptor for EvenOdd(k), 11k-14 states (k >= 3).

    Built from evenodd_afa_rt(k-2) by padding every post-read EPSILON path to
    length exactly 3 with delay states ("i'_x", "i''_x", "0'''_x") and then
    relabeling every EPSILON move to read a symbol. Each original step thus
    consumes four symbols, so the result accepts a^(4m) iff the source
    machine accepts a^m and never accepts lengths that are not multiples of
    four; on the EvenOdd(k) promise this is the right acceptance pattern.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    _check_cap(11 * k - 14, "evenodd_afa_epsfree")
    _check_cap(_evenodd_afa_moves(k - 2) + 4 * k - 2, "evenodd_afa_epsfree", "moves")
    names, reading, silent, existential, accepting = _evenodd_rt_parts(k - 2)
    # The source's bit states "i_x" are 1..bits, with "0_0" and "0_1" last,
    # and its locating states "i_exzero" are its last k - 3 (see
    # _evenodd_rt_parts). Bit state b gains "i''_x" at delay(b) and "i'_x"
    # after it; "0'''_0" and "0'''_1" follow them all, at triple.
    n = len(names)
    bits = 2 * k - 2
    low = bits - 1
    triple = n + 2 * bits
    names += [
        f"{name[:-2]}{primes}_{name[-1]}" for name in names[1 : bits + 1] for primes in ("''", "'")
    ]
    names += ["0'''_0", "0'''_1"]
    assert len(names) == 11 * k - 14

    def delay(b: int) -> int:
        return n + 2 * (b - 1)

    # The lowest bit's flip gains a three-state delay chain.
    moves = [(src, "a", triple + dst - low if src >= low else dst) for src, dst in reading]
    # A silent path reaches a bit state after one edge, or after two through
    # a locating state; pad it to three.
    moves += [
        (src, "a", delay(dst) + (src >= n - (k - 3)) if dst <= bits else dst)
        for src, dst in silent
    ]
    for b in range(1, bits + 1):
        moves += [(delay(b), "a", delay(b) + 1), (delay(b) + 1, "a", b)]
    moves += [(triple + x, "a", delay(low + x)) for x in (0, 1)]
    return OneWayAfa(
        state_count=len(names),
        alphabet=("a",),
        initial=0,
        transitions=frozenset(moves),
        accepting=frozenset(accepting),
        existential=frozenset([*existential, *range(n, len(names))]),
        max_eps_chain=0,
        labels=dict(enumerate(names)),
    )


# ---------------------------------------------------------------------------
# TRIOS(n, r): r segments #b1 b2 b3 of n-bit blocks; yes when b2 = b1 with a
# strictly dominated bit against b3, no when b3 = b1 with a strictly
# dominating bit against b2.


def _trios_pairs(n: int, cls: str) -> list[tuple[str, str]]:
    pairs = []
    for x_bits in product("01", repeat=n):
        for y_bits in product("01", repeat=n):
            x, y = "".join(x_bits), "".join(y_bits)
            if cls == "yes" and any(a == "0" and b == "1" for a, b in zip(x, y)):
                pairs.append((x, y))
            if cls == "no" and any(a == "1" and b == "0" for a, b in zip(x, y)):
                pairs.append((x, y))
    return pairs


def trios_problem(n: int, r: int) -> PromiseProblem:
    """Promise problem over {0,1,#} with r segments of three n-bit blocks."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be at least 1")
    seg_len = 3 * n + 1
    total = r * seg_len

    def segments(word: str) -> list[tuple[str, str, str]] | None:
        if len(word) != total:
            return None
        parts = []
        for i in range(r):
            seg = word[i * seg_len : (i + 1) * seg_len]
            if seg[0] != "#" or any(c not in "01" for c in seg[1:]):
                return None
            parts.append((seg[1 : n + 1], seg[n + 1 : 2 * n + 1], seg[2 * n + 1 :]))
        return parts

    def yes_member(word: str) -> bool:
        parts = segments(word)
        return parts is not None and all(
            b2 == b1 and any(p == "0" and q == "1" for p, q in zip(b1, b3))
            for b1, b2, b3 in parts
        )

    def no_member(word: str) -> bool:
        parts = segments(word)
        return parts is not None and all(
            b3 == b1 and any(p == "1" and q == "0" for p, q in zip(b1, b2))
            for b1, b2, b3 in parts
        )

    def enumerator(max_length: int):
        """Each class's words are the r-fold products of its segments, in
        odometer order: the next word moves the rightmost segment j that is
        not the last one from t - 1 to t and resets the segments after it to
        the first, so it keeps j whole segments and lcp[t] more symbols."""
        if total > max_length:
            return
        previous = ""
        for cls in ("yes", "no"):
            segs = [
                f"#{x}{x}{y}" if cls == "yes" else f"#{x}{y}{x}"
                for x, y in _trios_pairs(n, cls)
            ]
            first = segs[0] * r
            keep = _shared_prefix(previous, first)
            yield keep, first[keep:], cls
            lcp = [0, *(_shared_prefix(a, b) for a, b in zip(segs, segs[1:]))]
            tails = [seg[shared:] for seg, shared in zip(segs, lcp)]
            resets = [segs[0] * (r - 1 - j) for j in range(r)]
            last = len(segs) - 1
            digits = [0] * r
            j = r - 1
            while j >= 0:
                if digits[j] == last:
                    digits[j] = 0
                    j -= 1
                    continue
                t = digits[j] = digits[j] + 1
                yield j * seg_len + lcp[t], tails[t] + resets[j], cls
                j = r - 1
            previous = segs[-1] * r

    return PromiseProblem(
        alphabet=("0", "1", "#"),
        yes_member=yes_member,
        no_member=no_member,
        enumerator=enumerator,
        name=f"trios({n},{r})",
    )


def trios_ladder(n: int) -> tuple[Fraction, ...]:
    """Branch probabilities making each bit position equally likely.

    p_j is chosen as 1/n divided by the probability of still being in the
    ladder at step j, so p_n always ends at exactly 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    probs = []
    still_here = Fraction(1)
    for _ in range(n):
        p = Fraction(1, n) / still_here
        probs.append(p)
        still_here *= 1 - p
    assert probs[-1] == 1
    return tuple(probs)


def _chain(names: list[str], last: str) -> Iterable[tuple[str, str]]:
    """The (state, next state) pairs of the run names[0] -> ... -> names[-1] -> last."""
    return zip(names, [*names[1:], last])


def trios_lasvegas_pfa(n: int, r: int) -> LasVegasPfa:
    """Zero-error probabilistic acceptor for TRIOS(n, r); exactly 4n+3 states.

    Per segment it picks a uniformly random bit position j via the ladder
    states "s_j", then rides a counting chain to compare that bit against the
    block 2n symbols later (third block, hunting for evidence of a yes) or n
    symbols later (second block, hunting for evidence of a no). Inconclusive
    probes return to "q_ini" to try the next segment. The machine does not
    depend on r; r segments simply pass through it.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be at least 1")
    _check_cap(4 * n + 3, "trios_lasvegas_pfa")
    ladder = [f"s_{j}" for j in range(1, n + 1)]
    third = [f"t_{j},0" for j in range(1, 2 * n + 1)]
    second = [f"t_{j},1" for j in range(1, n + 1)]
    names = ["q_ini", "q_acc", "q_rej", *ladder, *third, *second]
    idx = {name: i for i, name in enumerate(names)}
    assert len(idx) == len(names) == 4 * n + 3

    one = Fraction(1)
    transitions: dict[tuple[int, str], tuple[tuple[int, Fraction], ...]] = {}
    for sym in "01#":
        transitions[(idx["q_ini"], sym)] = ((idx["s_1" if sym == "#" else "q_ini"], one),)
        transitions[(idx["q_acc"], sym)] = ((idx["q_acc"], one),)
        transitions[(idx["q_rej"], sym)] = ((idx["q_rej"], one),)
    for (src, dst), p in zip(_chain(ladder[:-1], ladder[-1]), trios_ladder(n)):
        for bit in "01":
            transitions[(idx[src], bit)] = ((idx[f"t_1,{bit}"], p), (idx[dst], 1 - p))
    # The last rung probes with probability 1.
    for bit in "01":
        transitions[(idx[ladder[-1]], bit)] = ((idx[f"t_1,{bit}"], one),)
    for probe, evidence, verdict in ((third, "1", "q_acc"), (second, "0", "q_rej")):
        for src, dst in _chain(probe[:-1], probe[-1]):
            for bit in "01":
                transitions[(idx[src], bit)] = ((idx[dst], one),)
        for bit in "01":
            target = verdict if bit == evidence else "q_ini"
            transitions[(idx[probe[-1]], bit)] = ((idx[target], one),)

    roles = {state: ROLE_NEUTRAL for state in range(len(names))}
    roles[idx["q_acc"]] = ROLE_ACCEPTING
    roles[idx["q_rej"]] = ROLE_REJECTING
    return LasVegasPfa(
        state_count=len(names),
        alphabet=("0", "1", "#"),
        initial=idx["q_ini"],
        transitions=transitions,
        roles=roles,
        labels=dict(enumerate(names)),
    )


def trios_dfa(n: int, r: int) -> OneWayDfa:
    """Deterministic acceptor for TRIOS(n, r) with 3 * 2^n + n - 2 states.

    It memorizes the first block of each segment and compares the second
    block against it: on the promise, a matching second block can only occur
    in a yes instance, so the third block is skipped, and the first mismatch
    halts the run (rejecting). The state count is independent of r and below
    4 * 2^n for every n.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be at least 1")
    _check_power_cap(n, "trios_dfa")
    count = 3 * (1 << n) + n - 2
    _check_cap(count, "trios_dfa")
    prefixes = ["".join(bits) for size in range(n) for bits in product("01", repeat=size)]
    suffixes = ["".join(bits) for size in range(n, 0, -1) for bits in product("01", repeat=size)]
    skip = [f"v:{i}" for i in range(n, 0, -1)]
    names = ["seg", *(f"x:{word}" for word in prefixes), *(f"u:{word}" for word in suffixes)]
    names += skip
    idx = {name: i for i, name in enumerate(names)}
    assert len(idx) == len(names) == count

    transitions = {(idx["seg"], "#"): idx["x:"]}
    for prefix in prefixes:
        for bit in "01":
            word = prefix + bit
            target = f"x:{word}" if len(word) < n else f"u:{word}"
            transitions[(idx[f"x:{prefix}"], bit)] = idx[target]
    for suffix in suffixes:
        target = f"u:{suffix[1:]}" if len(suffix) > 1 else skip[0]
        transitions[(idx[f"u:{suffix}"], suffix[0])] = idx[target]
    for src, dst in _chain(skip, "seg"):
        for bit in "01":
            transitions[(idx[src], bit)] = idx[dst]

    return OneWayDfa(
        state_count=len(names),
        alphabet=("0", "1", "#"),
        initial=idx["seg"],
        transitions=transitions,
        accepting=frozenset({idx["seg"]}),
        labels=dict(enumerate(names)),
    )


def trios_twoway_dfa(n: int, r: int) -> TwoWayMachine:
    """Two-way deterministic acceptor for TRIOS(n, r) with 9n+1 states (11 at
    n = 1), within the paper's bound of 12n+8.

    Instead of memorizing blocks it shuttles: each bit of the second block is
    compared with the bit n positions to its left (first block), walking the
    positions from last to first; landing on '#' after the n-step left walk
    signals that all bits matched. A second ascending sweep then compares
    each third-block bit with the bit n positions to its left (second block)
    until it finds the strict increase a yes segment promises, after which it
    scans right to the next segment, accepting if the scan meets the right
    endmarker. Any comparison failure halts in a non-accepting state.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be at least 1")
    count = max(9 * n + 1, 11)
    _check_cap(count, "trios_twoway_dfa")
    go_u = [f"goU:{d}" for d in range(2 * n - 1, 0, -1)]
    go_u2 = [f"goU2:{d}" for d in range(n - 2, 0, -1)]
    go_v = [f"goV:{d}" for d in range(2 * n, 0, -1)]
    down = range(n - 1, 0, -1)
    names = ["seek#", *go_u, "readU", *(f"cmpL:{d}:{b}" for d in down for b in "01")]
    names += ["atX:0", "atX:1", *go_u2, "phase2", *go_v, "readV"]
    names += [*(f"vL:{d}:{c}" for d in down for c in "01"), "atU:0", "atU:1"]
    idx = {name: i for i, name in enumerate(names)}
    assert len(idx) == len(names) == count

    moves = {(idx["seek#"], sym, idx["seek#"], RIGHT) for sym in (LEFT_MARKER, "0", "1")}

    def walk(head: str, syms: str, run: list[str], last: str, move: int) -> None:
        """head reads one of syms into the run, whose states step on either
        bit towards last."""
        for src, dst in _chain([head, *run], last):
            moves.update((idx[src], sym, idx[dst], move) for sym in (syms if src == head else "01"))

    walk("seek#", "#", go_u, "readU", RIGHT)
    for b in "01":
        walk("readU", b, [f"cmpL:{d}:{b}" for d in down], f"atX:{b}", LEFT)
        # Match: step over to the previous second-block bit; the head travel
        # is n-1 cells, folded into the reading move.
        walk(f"atX:{b}", b, go_u2, "readU", RIGHT if n > 1 else STAY)
        moves.add((idx[f"atX:{b}"], "#", idx["phase2"], STAY))
    walk("phase2", "#", go_v, "readV", RIGHT)
    for c in "01":
        walk("readV", c, [f"vL:{d}:{c}" for d in down], f"atU:{c}", LEFT)
    moves.add((idx["atU:1"], "0", idx["seek#"], RIGHT))
    moves.add((idx["atU:1"], "1", idx[f"goV:{n}"], RIGHT))
    for bit in "01":
        moves.add((idx["atU:0"], bit, idx[f"goV:{n}"], RIGHT))

    return TwoWayMachine(
        state_count=len(names),
        alphabet=("0", "1", "#"),
        initial=idx["seek#"],
        transitions=frozenset(moves),
        accepting=frozenset({idx["seek#"]}),
        deterministic=True,
        labels=dict(enumerate(names)),
    )


# ---------------------------------------------------------------------------
# UP(p): unary words a^j, yes when p^j >= 3/4, no when p^j <= 1/4.


def up_problem(p: Fraction) -> PromiseProblem:
    """Unary promise problem splitting lengths by the survival power p^j."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must be strictly between 0 and 1")

    def enumerator(max_length: int):
        num = den = 1  # p^j = num / den, one multiplication per length
        previous = 0
        for j in range(max_length + 1):
            if 4 * num >= 3 * den:
                yield previous, "a" * (j - previous), "yes"
                previous = j
            elif 4 * num <= den:
                yield previous, "a" * (j - previous), "no"
                previous = j
                num, den = 0, 1  # p < 1: every longer length is no; stop multiplying
                continue
            num *= p.numerator
            den *= p.denominator

    return PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: p ** len(w) >= Fraction(3, 4),
        no_member=lambda w: p ** len(w) <= Fraction(1, 4),
        enumerator=enumerator,
        name=f"up({p})",
    )


def up_pfa(p: Fraction) -> OneWayPfa:
    """Two-state probabilistic acceptor whose acceptance weight is p^j."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must be strictly between 0 and 1")
    return OneWayPfa(
        state_count=2,
        alphabet=("a",),
        initial=0,
        transitions={
            (0, "a"): ((0, p), (1, 1 - p)),
            (1, "a"): ((1, Fraction(1)),),
        },
        roles={0: ROLE_ACCEPTING, 1: ROLE_REJECTING},
        labels={0: "s_ini", 1: "s_rej"},
    )


def critical_lengths(
    p: Fraction, iteration_cap: int = DEFAULT_ITERATION_CAP
) -> tuple[int, int]:
    """(A, R): the last length with p^j >= 3/4 and first with p^j <= 1/4.

    Logarithms only guess each length. Exact integer comparisons of the
    powers confirm or correct the guess, so boundary cases land on the right
    side whatever the guess. Raises ResourceCapError when R would exceed the
    iteration cap, at once when the guess exceeds it by more than rounding
    could explain.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must be strictly between 0 and 1")
    num, den = p.numerator, p.denominator
    # -ln p: log1p keeps its precision near 1, and the logarithms of the
    # integers stay finite below the float range. The guess of R is refused
    # only beyond a relative 1e-9 of slack, far above any rounding error.
    rate = -math.log1p(-(den - num) / den) if 2 * num > den else math.log(den) - math.log(num)
    capped = f"critical lengths exceed the iteration cap {iteration_cap}"
    if math.log(4) > rate * (iteration_cap * (1 + 1e-9) + 1):
        raise ResourceCapError(capped)
    reject_from = _first_length(
        lambda j: j > iteration_cap or 4 * num**j <= den**j, math.ceil(math.log(4) / rate)
    )
    if reject_from > iteration_cap:
        raise ResourceCapError(capped)
    accept_until = _first_length(
        lambda j: 4 * num**j < 3 * den**j, math.floor(math.log(4 / 3) / rate) + 1
    )
    return accept_until - 1, reject_from


def _first_length(holds: Callable[[int], bool], guess: int) -> int:
    """Least j >= 0 with holds(j), where holds is false below some length and
    true from it on: gallop away from guess until the answer is bracketed,
    then bisect."""
    low, high, step = guess - 1, guess, 1
    while not holds(high):
        low, high, step = high, high + step, step * 2
    while low >= 0 and holds(low):
        low, high, step = low - step, low, step * 2
    low = max(low, -1)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if holds(mid) else (mid, high)
    return high


def up_dfa(p: Fraction) -> OneWayDfa:
    """Chain acceptor for UP(p) with exactly A+1 states, all accepting.

    The last chain state has no outgoing transition, so every longer word
    gets stuck, which rejects all no instances for free.
    """
    accept_until, _ = critical_lengths(p)
    return _lasso_dfa(accept_until + 1, None, range(accept_until + 1), "a")


# ---------------------------------------------------------------------------
# Parity-framed problems: a^(2m) yes versus a^(2m+1) no, m drawn from a set.


def parity_problem(member: Callable[[int], bool]) -> PromiseProblem:
    """Unary promise problem: even lengths 2m are yes, odd 2m+1 no, m in L."""

    def enumerator(max_length: int):
        previous = 0
        for length in range(max_length + 1):
            if member(length // 2):
                yield previous, "a" * (length - previous), ("yes" if length % 2 == 0 else "no")
                previous = length

    return PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: len(w) % 2 == 0 and member(len(w) // 2),
        no_member=lambda w: len(w) % 2 == 1 and member(len(w) // 2),
        enumerator=enumerator,
        name="parity",
    )


def parity_dfa() -> OneWayDfa:
    """Two-state parity counter; solves parity_problem for every member set."""
    return _lasso_dfa(2, 0, (0,), "a")
