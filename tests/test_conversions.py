"""Model conversions checked against language equality on bounded ranges."""

import dataclasses
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promata import (
    EPSILON,
    OneWayAfa,
    OneWayDfa,
    OneWayNfa,
    ResourceCapError,
    TwoWayMachine,
    bound_2nfa_to_dfa,
    bound_afa_to_dfa,
    bound_svfa_to_dfa,
    dfa_complete,
    dfa_equivalent,
    dfa_minimize,
    dfa_to_nfa,
    dumps,
    evenodd_afa_rt,
    evenodd_dfa,
    machine_accepts,
    nfa_accepts,
    nfa_to_dfa,
    remove_epsilon,
    trios_problem,
    trios_twoway_dfa,
    twoway_accepts,
    twoway_to_dfa,
    unary_afa_to_dfa,
)
from promata import conversions
from promata.conversions import BOUND_BITS_CAP, _ceil_cbrt
from promata.machines import LEFT, LEFT_MARKER, RIGHT, RIGHT_MARKER, STAY


def _random_nfa(rng, max_states=5, alphabet=("a", "b")):
    size = rng.randint(1, max_states)
    transitions = set()
    for src in range(size):
        for sym in alphabet:
            for dst in range(size):
                if rng.random() < 0.3:
                    transitions.add((src, sym, dst))
        if rng.random() < 0.2 and size > 1:
            dst = rng.randrange(size)
            if dst != src:
                # Quietly skip silent self-loops; closure handles the rest.
                transitions.add((src, EPSILON, dst))
    accepting = frozenset(q for q in range(size) if rng.random() < 0.5)
    return OneWayNfa(
        state_count=size,
        alphabet=alphabet,
        initial=rng.randrange(size),
        transitions=frozenset(transitions),
        accepting=accepting,
    )


def _words_up_to(alphabet, max_length):
    frontier = [""]
    for word in frontier:
        yield word
        if len(word) < max_length:
            frontier.extend(word + sym for sym in alphabet)


def _closure(nfa, states):
    seen = set(states)
    stack = list(states)
    while stack:
        state = stack.pop()
        for src, sym, dst in nfa.transitions:
            if src == state and sym is EPSILON and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


def _subset_step(nfa, subset, symbol):
    moved = {dst for src, sym, dst in nfa.transitions if src in subset and sym == symbol}
    return _closure(nfa, moved)


def _dfa_matches_nfa_up_to(dfa, nfa, max_length):
    """Compare the machines on every word up to the length bound.

    Walks the product of dfa states with directly simulated source subsets,
    visiting each configuration pair once; a visited pair already had its
    acceptance agreement checked, so pruning loses nothing. A stuck dfa side
    is carried as None and counts as rejecting.
    """
    start = (dfa.initial, _closure(nfa, {nfa.initial}))
    seen = {start}
    frontier = [start]
    for _ in range(max_length + 1):
        upcoming = []
        for dstate, subset in frontier:
            if (dstate is not None and dstate in dfa.accepting) != bool(
                subset & nfa.accepting
            ):
                return False
            for sym in nfa.alphabet:
                nxt = (
                    dfa.transitions.get((dstate, sym)) if dstate is not None else None,
                    _subset_step(nfa, subset, sym),
                )
                if nxt not in seen:
                    seen.add(nxt)
                    upcoming.append(nxt)
        frontier = upcoming
    return True


def _nfas_match_up_to(left, right, max_length):
    """Same product-walk comparison with both sides simulated as subsets."""
    start = (_closure(left, {left.initial}), _closure(right, {right.initial}))
    seen = {start}
    frontier = [start]
    for _ in range(max_length + 1):
        upcoming = []
        for lset, rset in frontier:
            if bool(lset & left.accepting) != bool(rset & right.accepting):
                return False
            for sym in left.alphabet:
                nxt = (_subset_step(left, lset, sym), _subset_step(right, rset, sym))
                if nxt not in seen:
                    seen.add(nxt)
                    upcoming.append(nxt)
        frontier = upcoming
    return True


def test_product_walk_helper_detects_disagreement():
    """Sanity check on the comparison helper itself: flipping one accepting
    state in the determinized machine must be noticed."""
    nfa = _random_nfa(random.Random(3), alphabet=("a", "b"))
    dfa = nfa_to_dfa(nfa)
    assert _dfa_matches_nfa_up_to(dfa, nfa, 10)
    flipped = type(dfa)(
        state_count=dfa.state_count,
        alphabet=dfa.alphabet,
        initial=dfa.initial,
        transitions=dfa.transitions,
        accepting=frozenset(set(range(dfa.state_count)) - set(dfa.accepting)),
    )
    assert not _dfa_matches_nfa_up_to(flipped, nfa, 10)


def test_subset_construction_preserves_language_on_random_machines():
    rng = random.Random(20211)
    for _ in range(100):
        nfa = _random_nfa(rng)
        dfa = nfa_to_dfa(nfa)
        for word in _words_up_to(nfa.alphabet, 6):
            assert machine_accepts(dfa, word) == nfa_accepts(nfa, word), (
                nfa,
                word,
            )


def test_subset_construction_matches_source_words_to_ten():
    """Language agreement on all words up to length 10 across alphabet
    sizes one through three, for 100 random machines of up to 5 states."""
    rng = random.Random(61409)
    for i in range(100):
        alphabet = ("a", "b", "c")[: 1 + i % 3]
        nfa = _random_nfa(rng, alphabet=alphabet)
        dfa = nfa_to_dfa(nfa)
        assert _dfa_matches_nfa_up_to(dfa, nfa, 10), nfa


def test_subset_construction_small_example():
    # Language: words over {a} with at least two letters.
    nfa = OneWayNfa(
        state_count=3,
        alphabet=("a",),
        initial=0,
        transitions=frozenset({(0, "a", 1), (1, "a", 2), (2, "a", 2)}),
        accepting=frozenset({2}),
    )
    dfa = nfa_to_dfa(nfa)
    for n in range(8):
        assert machine_accepts(dfa, "a" * n) == (n >= 2)


def test_subset_construction_cap():
    nfa = _random_nfa(random.Random(7), max_states=5)
    with pytest.raises(ResourceCapError):
        nfa_to_dfa(nfa, subset_cap=1)


def _dfa_json(states, alphabet, accepting, transitions, labels=None):
    """The byte-stable text dumps writes for a deterministic machine."""
    return json.dumps(
        {
            "type": "dfa",
            "states": states,
            "alphabet": list(alphabet),
            "initial": 0,
            "accepting": accepting,
            "transitions": [list(move) for move in transitions],
            "labels": {str(state): label for state, label in enumerate(labels or ())},
        },
        sort_keys=True,
        indent=2,
    )


# Each conversion's output, pinned byte for byte: states are numbered
# breadth-first from the start, symbols in alphabet order.
_PINNED_CONVERSIONS = [
    pytest.param(
        # {2} moves on b into the empty set, which stays undefined.
        lambda: nfa_to_dfa(
            OneWayNfa(
                state_count=3,
                alphabet=("a", "b"),
                initial=0,
                transitions=frozenset(
                    {(0, "a", 0), (0, "a", 1), (0, "b", 2), (1, EPSILON, 2), (2, "a", 1)}
                ),
                accepting=frozenset({2}),
            )
        ),
        _dfa_json(
            4,
            "ab",
            [1, 2, 3],
            [(0, "a", 1), (0, "b", 2), (1, "a", 1), (1, "b", 2), (2, "a", 3), (3, "a", 3)],
            ["{0}", "{0,1,2}", "{2}", "{1,2}"],
        ),
        id="nfa_to_dfa",
    ),
    pytest.param(
        lambda: unary_afa_to_dfa(evenodd_afa_rt(1)),
        _dfa_json(
            4,
            "a",
            [0],
            [(0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 0)],
            ["110100010", "010011000", "001100001", "001010100"],
        ),
        id="unary_afa_to_dfa",
    ),
    pytest.param(
        # State 2 is a rejecting sink, so it joins the dead class, which is
        # reachable but not initial and is dropped.
        lambda: dfa_minimize(
            OneWayDfa(
                state_count=4,
                alphabet=("a", "b"),
                initial=0,
                transitions={
                    (0, "a"): 1,
                    (0, "b"): 2,
                    (1, "a"): 3,
                    (2, "a"): 2,
                    (2, "b"): 2,
                    (3, "b"): 0,
                },
                accepting=frozenset({1, 3}),
            )
        ),
        _dfa_json(3, "ab", [1, 2], [(0, "a", 1), (1, "a", 2), (2, "b", 0)]),
        id="dfa_minimize_dead_class_reachable",
    ),
    pytest.param(
        # Nothing accepts, so the dead class is the initial one and stays.
        lambda: dfa_minimize(
            OneWayDfa(
                state_count=3,
                alphabet=("a", "b"),
                initial=0,
                transitions={(0, "a"): 1, (1, "b"): 2, (2, "a"): 0},
                accepting=frozenset(),
            )
        ),
        _dfa_json(1, "ab", [], [(0, "a", 0), (0, "b", 0)]),
        id="dfa_minimize_dead_class_initial",
    ),
]


@pytest.mark.parametrize("convert, expected", _PINNED_CONVERSIONS)
def test_conversion_output_is_pinned(convert, expected):
    assert dumps(convert()) == expected


def test_epsilon_removal_preserves_language():
    rng = random.Random(50600)
    for i in range(100):
        alphabet = ("a", "b", "c")[: 1 + i % 3]
        nfa = _random_nfa(rng, alphabet=alphabet)
        stripped = remove_epsilon(nfa)
        assert all(sym is not EPSILON for _, sym, _ in stripped.transitions)
        assert stripped.state_count == nfa.state_count
        assert _nfas_match_up_to(stripped, nfa, 8), nfa
        for word in _words_up_to(nfa.alphabet, 4):
            assert nfa_accepts(stripped, word) == nfa_accepts(nfa, word)


def test_dfa_to_nfa_is_faithful():
    dfa = evenodd_dfa(2)
    nfa = dfa_to_nfa(dfa)
    for n in range(20):
        assert nfa_accepts(nfa, "a" * n) == machine_accepts(dfa, "a" * n)


@pytest.mark.parametrize("k", [1, 2])
def test_unary_afa_determinization_equals_reference(k):
    afa = evenodd_afa_rt(k)
    dfa = unary_afa_to_dfa(afa)
    modulus = 2 ** (k + 1)
    for n in range(4 * modulus):
        assert machine_accepts(dfa, "a" * n) == (n % modulus == 0)
    small = dfa_minimize(dfa)
    assert small.state_count == modulus
    assert dfa_equivalent(small, evenodd_dfa(k))


def test_unary_afa_determinization_respects_cap():
    with pytest.raises(ResourceCapError):
        unary_afa_to_dfa(evenodd_afa_rt(3), vector_cap=4)


def test_unary_afa_determinization_needs_unary_input():
    afa = OneWayAfa(
        state_count=1,
        alphabet=("a", "b"),
        initial=0,
        transitions=frozenset({(0, "a", 0), (0, "b", 0)}),
        accepting=frozenset({0}),
        existential=frozenset({0}),
        max_eps_chain=0,
    )
    with pytest.raises(ValueError):
        unary_afa_to_dfa(afa)


def _random_2nfa(rng, size, alphabet=("a", "b")):
    """STAY moves, self-loops and endmarker moves, deterministic or not."""
    deterministic = rng.random() < 0.4
    moves = set()
    for src in range(size):
        for sym in (LEFT_MARKER, *alphabet, RIGHT_MARKER):
            allowed = [LEFT, STAY, RIGHT]
            if sym == LEFT_MARKER:
                allowed.remove(LEFT)
            if sym == RIGHT_MARKER:
                allowed.remove(RIGHT)
            for _ in range(rng.choice((0, 1, 1) if deterministic else (0, 1, 2))):
                moves.add((src, sym, rng.randrange(size), rng.choice(allowed)))
    return TwoWayMachine(
        state_count=size,
        alphabet=alphabet,
        initial=rng.randrange(size),
        transitions=frozenset(moves),
        accepting=frozenset(q for q in range(size) if rng.random() < 0.4),
        deterministic=deterministic,
    )


_WORDS_TO_SIX = ["".join(w) for n in range(7) for w in itertools.product("ab", repeat=n)]


@pytest.mark.parametrize("size", [2, 3, 4])
def test_crossing_construction_matches_twoway_runs_within_the_bound(size):
    """Kapoutsis' count bounds the minimized result from two states up; at
    one state the halting-anywhere convention can need two (see the
    twoway_to_dfa docstring and the pinned example below)."""
    rng = random.Random(f"2nfa:{size}")
    words_rng = random.Random(f"2nfa-words:{size}")
    long_words = ["".join(words_rng.choice("ab") for _ in range(200)) for _ in range(4)]
    bound = bound_2nfa_to_dfa(size).value
    sizes = []
    for _ in range(400):
        machine = _random_2nfa(rng, size)
        dfa = dfa_minimize(twoway_to_dfa(machine))
        sizes.append(dfa.state_count)
        for word in _WORDS_TO_SIX:
            assert machine_accepts(dfa, word) == twoway_accepts(machine, word), word
        if machine.deterministic:
            # The walk of the one run against the configuration search.
            searched = dataclasses.replace(machine, deterministic=False)
            for word in _WORDS_TO_SIX + long_words:
                assert twoway_accepts(machine, word) == twoway_accepts(searched, word), word
    assert max(sizes) <= bound
    # Most random machines halt early on everything; enough do not.
    assert sum(count > 1 for count in sizes) >= 40


def test_crossing_construction_of_a_one_state_machine_needs_two_states():
    # Accepting state 0 moves right on a, halts (accepting) on b and loops
    # on the right endmarker: it accepts the words that contain b.
    machine = TwoWayMachine(
        1, ("a", "b"), 0,
        frozenset({(0, LEFT_MARKER, 0, RIGHT), (0, "a", 0, RIGHT), (0, RIGHT_MARKER, 0, STAY)}),
        frozenset({0}), deterministic=True,
    )
    expected = _dfa_json(2, "ab", [1], [(0, "a", 0), (0, "b", 1), (1, "a", 1), (1, "b", 1)])
    assert dumps(twoway_to_dfa(machine)) == dumps(dfa_minimize(twoway_to_dfa(machine))) == expected
    assert bound_2nfa_to_dfa(1).value == 1


def test_crossing_construction_of_trios_solves_trios():
    machine = trios_twoway_dfa(2, 1)
    dfa = twoway_to_dfa(machine)
    for word, cls in trios_problem(2, 1).enumerate_instances(7):
        assert machine_accepts(dfa, word) == (cls == "yes") == twoway_accepts(machine, word)


def test_crossing_construction_cap():
    with pytest.raises(ResourceCapError, match="crossing construction exceeds 3 states"):
        twoway_to_dfa(trios_twoway_dfa(2, 1), subset_cap=3)


def test_minimize_is_idempotent():
    rng = random.Random(331)
    for _ in range(50):
        nfa = _random_nfa(rng, max_states=4)
        dfa = nfa_to_dfa(remove_epsilon(nfa))
        small = dfa_minimize(dfa)
        again = dfa_minimize(small)
        assert again.state_count == small.state_count
        assert dfa_equivalent(small, again)
        assert dfa_equivalent(small, dfa)
        assert small.state_count <= dfa.state_count


@pytest.mark.parametrize("k", range(1, 10))
def test_evenodd_dfa_is_already_minimal(k):
    dfa = evenodd_dfa(k)
    assert dfa_minimize(dfa).state_count == dfa.state_count == 2 ** (k + 1)


def _counter(k, copies):
    """A cyclic counter of copies * 2^(k+1) states accepting every 2^(k+1)-th."""
    period = 2 ** (k + 1)
    size = copies * period
    return OneWayDfa(
        state_count=size,
        alphabet=("a",),
        initial=0,
        transitions={(i, "a"): (i + 1) % size for i in range(size)},
        accepting=frozenset(range(0, size, period)),
    )


@pytest.mark.parametrize("k, copies", [(1, 3), (4, 4), (6, 2), (8, 3), (9, 2)])
def test_counter_minimizes_to_the_evenodd_dfa(k, copies):
    small = dfa_minimize(_counter(k, copies))
    assert small.state_count == 2 ** (k + 1)
    assert dfa_equivalent(small, evenodd_dfa(k))


def _moore_blocks(table, is_accepting):
    """Moore refinement to a fixed point, the oracle for dfa_minimize's
    partition refinement: same arguments, and the same partition of the
    states under other block numbers."""
    block = [0 if acc else 1 for acc in is_accepting]
    while True:
        signature = {}
        new_block = [
            signature.setdefault((block[s], tuple(block[t] for t in table[s])), len(signature))
            for s in range(len(table))
        ]
        if new_block == block:
            return block
        block = new_block


def _random_partial_dfa(rng):
    """1-9 states over 1-3 symbols, a fifth of the moves undefined, a random
    initial state (so some states are unreachable), and sometimes a rejecting
    sink; with few accepting states the initial one often cannot accept."""
    size = rng.randint(1, 9)
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    sink = rng.randrange(size) if rng.random() < 0.3 else None
    transitions = {}
    for state in range(size):
        for sym in alphabet:
            if state == sink:
                transitions[(state, sym)] = state
            elif rng.random() < 0.8:
                transitions[(state, sym)] = rng.randrange(size)
    return OneWayDfa(
        state_count=size,
        alphabet=alphabet,
        initial=rng.randrange(size),
        transitions=transitions,
        accepting=frozenset(q for q in range(size) if q != sink and rng.random() < 0.4),
    )


def _reaches_every_state(dfa):
    seen, stack = {dfa.initial}, [dfa.initial]
    while stack:
        state = stack.pop()
        for sym in dfa.alphabet:
            target = dfa.transitions.get((state, sym))
            if target is not None and target not in seen:
                seen.add(target)
                stack.append(target)
    return len(seen) == dfa.state_count


def _has_rejecting_sink(dfa):
    return any(
        all(dfa.transitions.get((state, sym)) == state for sym in dfa.alphabet)
        for state in range(dfa.state_count)
        if state not in dfa.accepting
    )


def test_partition_refinement_matches_moore(monkeypatch):
    rng = random.Random(11011)
    sample = [_random_partial_dfa(rng) for _ in range(2000)]
    machines = sample + [evenodd_dfa(5), _counter(4, 4), _counter(6, 2)]
    machines += [unary_afa_to_dfa(evenodd_afa_rt(k)) for k in (1, 2, 3)]
    fast = [dfa_minimize(dfa) for dfa in machines]
    monkeypatch.setattr(conversions, "_coarsest_congruence", _moore_blocks)
    assert [dumps(dfa_minimize(dfa)) for dfa in machines] == [dumps(dfa) for dfa in fast]
    # The sample holds each shape the refinement must handle.
    assert sum(not _reaches_every_state(dfa) for dfa in sample) >= 500
    assert sum(_has_rejecting_sink(dfa) for dfa in sample) >= 500
    assert sum(not small.accepting for small in fast[: len(sample)]) >= 200


def test_minimize_drops_unreachable_and_dead_states():
    from promata import OneWayDfa

    dfa = OneWayDfa(
        state_count=4,
        alphabet=("a",),
        initial=0,
        # State 2 is unreachable; state 3 is reachable but can never accept.
        transitions={(0, "a"): 1, (1, "a"): 3, (2, "a"): 0, (3, "a"): 3},
        accepting=frozenset({1}),
    )
    small = dfa_minimize(dfa)
    assert small.state_count == 2
    for n in range(6):
        assert machine_accepts(small, "a" * n) == (n == 1)


def test_complete_adds_one_dead_state():
    from promata import OneWayDfa, dfa_run

    partial = OneWayDfa(
        state_count=2,
        alphabet=("a", "b"),
        initial=0,
        transitions={(0, "a"): 1},
        accepting=frozenset({1}),
    )
    total = dfa_complete(partial)
    assert total.state_count == 3
    for state in range(total.state_count):
        for sym in total.alphabet:
            assert (state, sym) in total.transitions
    # Language unchanged: stuck runs become dead-state rejections.
    for word in ("", "a", "b", "ab", "aa", "ba"):
        assert machine_accepts(total, word) == machine_accepts(partial, word)
        assert dfa_run(total, word).outcome != "stuck"


def test_complete_is_identity_on_total_machines():
    total = evenodd_dfa(1)
    assert dfa_complete(total) is total


def test_equivalence_finds_differences():
    assert not dfa_equivalent(evenodd_dfa(1), evenodd_dfa(2))
    assert dfa_equivalent(evenodd_dfa(2), evenodd_dfa(2))


def test_equivalence_treats_stuck_as_reject():
    from promata import OneWayDfa

    total = OneWayDfa(
        state_count=2,
        alphabet=("a",),
        initial=0,
        transitions={(0, "a"): 1, (1, "a"): 1},
        accepting=frozenset({0}),
    )
    partial = OneWayDfa(
        state_count=1,
        alphabet=("a",),
        initial=0,
        transitions={},
        accepting=frozenset({0}),
    )
    assert dfa_equivalent(total, partial)


# --- closed-form trade-off values ---


def test_alternation_blowup_values():
    assert bound_afa_to_dfa(1).value == 4
    assert bound_afa_to_dfa(2).value == 256
    assert bound_afa_to_dfa(3).value == 2**24


def test_double_sum_small_values():
    assert bound_2nfa_to_dfa(1).value == 1
    assert bound_2nfa_to_dfa(2).value == 7
    assert bound_2nfa_to_dfa(3).value == 133


def test_double_sum_closed_form():
    """Independent oracle: direct summation with binomials, indices below n,
    and the 0^0 = 1 convention at i = j = 0."""
    from math import comb

    for n in range(1, 41):
        expected = sum(
            comb(n, i) * comb(n, j) * (1 if j == 0 else (2**i - 1) ** j)
            for i in range(n)
            for j in range(n)
        )
        assert bound_2nfa_to_dfa(n).value == expected


def test_double_sum_modulo_a_prime_at_150():
    # The double sum term by term, modulo a prime, where the exact one is slow.
    from math import comb

    n, prime = 150, 2**61 - 1
    expected = sum(
        comb(n, i) * comb(n, j) * pow(2**i - 1, j, prime)
        for i in range(n)
        for j in range(n)
    )
    assert bound_2nfa_to_dfa(n).value % prime == expected % prime


def test_each_bound_returns_at_its_largest_n_under_the_bit_cap():
    # afa builds 2^(n 2^n), svfa 3^(n-1); 2nfa stays below 2^(n^2 + n).
    afa = max(n for n in range(1, 30) if (n << n) + 1 <= BOUND_BITS_CAP)
    nfa = max(n for n in range(1, 2000) if n * n + n <= BOUND_BITS_CAP)
    svfa = 1 + math.floor(BOUND_BITS_CAP / math.log2(3))
    while (3 ** (svfa - 1)).bit_length() > BOUND_BITS_CAP:
        svfa -= 1
    while (3**svfa).bit_length() <= BOUND_BITS_CAP:
        svfa += 1
    assert (afa, nfa, svfa) == (15, 723, 330789)
    for formula, n in (
        (bound_afa_to_dfa, afa),
        (bound_2nfa_to_dfa, nfa),
        (bound_svfa_to_dfa, svfa),
    ):
        assert formula(n).value.bit_length() <= BOUND_BITS_CAP
        with pytest.raises(ResourceCapError, match=f"bound at n={n + 1} exceeds"):
            formula(n + 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_double_sum_under_exponential_cap(n):
    assert bound_2nfa_to_dfa(n).value <= 2 ** (n * n + n)


def test_self_verifying_values():
    assert bound_svfa_to_dfa(1).value == 2
    assert bound_svfa_to_dfa(4).value == 4
    assert bound_svfa_to_dfa(7).value == 10
    assert bound_svfa_to_dfa(10).value == 28


def test_self_verifying_reports_real_value():
    bound = bound_svfa_to_dfa(5)
    assert bound.real_value == pytest.approx(1 + 3 ** (4 / 3))
    assert bound.value >= bound.real_value
    assert not bound.is_exact


@pytest.mark.parametrize("n", [200, 1001, 1940, 5000])
def test_self_verifying_ceiling_at_large_n(n):
    bound = bound_svfa_to_dfa(n)
    assert (bound.real_value is None) == (n >= 1940)
    assert not bound.is_exact
    root = bound.value - 1
    assert (root - 1) ** 3 < 3 ** (n - 1) <= root**3


def test_bounds_reject_nonpositive_sizes():
    for formula in (bound_afa_to_dfa, bound_2nfa_to_dfa, bound_svfa_to_dfa):
        with pytest.raises(ValueError):
            formula(0)


# --- properties ---


@given(st.integers(min_value=1, max_value=4), st.randoms())
@settings(deadline=None, max_examples=60)
def test_subset_construction_never_grows_past_powerset(size, rng):
    nfa = _random_nfa(rng, max_states=size)
    dfa = nfa_to_dfa(nfa)
    assert dfa.state_count <= 2**nfa.state_count


def _is_ceil_cbrt(m, k):
    return k**3 >= m and (k == 0 or (k - 1) ** 3 < m)


def test_ceil_cbrt_on_random_integers():
    rng = random.Random(3000)
    for _ in range(3000):
        m = rng.getrandbits(rng.randint(1, 3000))
        assert _is_ceil_cbrt(m, _ceil_cbrt(m)), m


def test_ceil_cbrt_around_cubes():
    for k in range(2000):
        for m in (k**3 - 1, k**3, k**3 + 1):
            if m >= 0:
                assert _is_ceil_cbrt(m, _ceil_cbrt(m)), m

