"""Exhaustive searches, pumping agreement, and disjointness scanning."""

import contextlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from promata import (
    EPSILON,
    FAILS,
    SOLVES,
    InputDomainError,
    OneWayDfa,
    OneWayNfa,
    PromiseProblem,
    ResourceCapError,
    SearchSpec,
    critical_lengths,
    disjointness_check,
    dfa_to_nfa,
    evenodd_dfa,
    evenodd_problem,
    min_dfa_size,
    min_unary_dfa_size,
    min_unary_nfa_size,
    parity_problem,
    promise_check,
    pumping_check,
    trios_problem,
    up_problem,
)
from promata import boundslab
from promata.boundslab import _NO, _YES, _fooling_set, _instance_trie
from promata.machines import (
    DEFAULT_STATE_CAP, _decode, _dfa_block, _fold, _stepper, front_coded, machine_accepts
)


@contextlib.contextmanager
def _recursion_headroom(frames):
    """Lower the interpreter's recursion limit to `frames` calls below the
    current depth, and restore it on exit."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_search_spec_validation():
    problem = evenodd_problem(1)
    with pytest.raises(ValueError):
        SearchSpec("moore", 4, problem, 10)
    with pytest.raises(ValueError):
        SearchSpec("unary-dfa", DEFAULT_STATE_CAP + 1, problem, 10)
    with pytest.raises(ValueError):
        SearchSpec("dfa", 9, problem, 10)
    with pytest.raises(ValueError):
        SearchSpec("unary-nfa", 4, trios_problem(1, 1), 10)


def test_unary_dfa_search_finds_the_counter():
    spec = SearchSpec("unary-dfa", 18, evenodd_problem(1), 32)
    result = min_unary_dfa_size(spec)
    assert result.found
    assert result.size == 4
    assert promise_check(result.witness, evenodd_problem(1), 32).verdict == SOLVES


def test_unary_dfa_search_witness_is_minimal():
    spec = SearchSpec("unary-dfa", 18, evenodd_problem(2), 64)
    result = min_unary_dfa_size(spec)
    assert result.size == 8
    # No smaller machine exists: rebuilding with a tighter cap exhausts.
    tight = SearchSpec("unary-dfa", 7, evenodd_problem(2), 64)
    assert min_unary_dfa_size(tight).size is None


def test_unary_dfa_search_two_point_problem():
    p = Fraction(1, 2)
    spec = SearchSpec("unary-dfa", 18, up_problem(p), 8)
    result = min_unary_dfa_size(spec)
    # Accept a^0, reject a^2: one accepting state with no loop suffices.
    assert result.size == 1


def test_unary_dfa_search_parity():
    spec = SearchSpec("unary-dfa", 18, parity_problem(lambda n: True), 12)
    result = min_unary_dfa_size(spec)
    assert result.size == 2


def test_unary_dfa_search_work_cap():
    # Each lasso family's scan of the 33 instances counts against the cap.
    spec = SearchSpec("unary-dfa", 18, evenodd_problem(1), 64)
    with pytest.raises(ResourceCapError, match="instance checks"):
        min_unary_dfa_size(spec, work_cap=100)


def test_unary_dfa_search_reaches_past_18_states():
    # UP(99/100)'s chain needs A + 1 = 29 states; the work cap, not a state
    # cap, bounds the lasso search.
    p = Fraction(99, 100)
    a_len, r_len = critical_lengths(p)
    spec = SearchSpec("unary-dfa", 40, up_problem(p), r_len + a_len + 2)
    assert (a_len, r_len + a_len + 2) == (28, 168)
    result = min_unary_dfa_size(spec)
    assert (result.size, result.candidates_checked) == (29, 435)


def test_unary_nfa_search_needs_full_period():
    spec = SearchSpec("unary-nfa", 4, evenodd_problem(1), 24)
    result = min_unary_nfa_size(spec)
    assert result.found
    assert (result.size, result.candidates_checked) == (4, 215)
    nfa = result.witness
    assert isinstance(nfa, OneWayNfa)
    for n in range(25):
        promise = n % 2 == 0
        if promise:
            assert machine_accepts(nfa, "a" * n) == (n % 4 == 0), n
    # Nondeterminism buys nothing on this problem.
    dfa_spec = SearchSpec("unary-dfa", 18, evenodd_problem(1), 24)
    assert min_unary_dfa_size(dfa_spec).size == result.size


def test_searches_are_deterministic():
    """Two identical searches return the same size and the same witness."""
    spec = SearchSpec("unary-nfa", 4, evenodd_problem(1), 24)
    first = min_unary_nfa_size(spec)
    second = min_unary_nfa_size(spec)
    assert first.size == second.size
    assert first.witness == second.witness
    assert first.candidates_checked == second.candidates_checked
    dspec = SearchSpec("dfa", 2, trios_problem(1, 1), 4)
    assert min_dfa_size(dspec).witness == min_dfa_size(dspec).witness


def test_unary_nfa_search_parity_needs_two():
    spec = SearchSpec("unary-nfa", 4, parity_problem(lambda n: True), 12)
    result = min_unary_nfa_size(spec)
    assert (result.size, result.candidates_checked) == (2, 7)


def test_dfa_search_exhausts_cleanly():
    spec = SearchSpec("dfa", 3, trios_problem(2, 1), 7)
    result = min_dfa_size(spec)
    assert result.size is None
    assert not result.found
    assert result.witness is None
    # The fooling set #00 #01 #10 starts the sizes at 3 and prunes them.
    assert result.fooling_set == ("#00", "#01", "#10")
    assert result.candidates_checked == 8053


def test_dfa_search_finds_trivial_machines():
    spec = SearchSpec("dfa", 2, trios_problem(1, 1), 4)
    result = min_dfa_size(spec)
    # Accept #001, reject #101: the second letter decides, two states are
    # enough with partial transitions.
    assert (result.size, result.candidates_checked) == (2, 26)
    assert promise_check(result.witness, trios_problem(1, 1), 4).verdict == SOLVES


def test_dfa_search_work_cap():
    spec = SearchSpec("dfa", 3, trios_problem(2, 1), 7)
    with pytest.raises(ResourceCapError):
        min_dfa_size(spec, work_cap=1000)


def _table_enumeration_size(spec):
    """Reference minimum by brute force over every full transition table.

    State 0 is initial and table entry `size` means undefined. Accepting
    sets are fixed by the instances: a yes instance marks its final state,
    a no instance forbids it, and a stuck yes instance kills the table."""
    symbols = tuple(spec.problem.alphabet)
    nsym = len(symbols)
    index = {sym: i for i, sym in enumerate(symbols)}
    words = [
        (tuple(index[ch] for ch in word), cls)
        for word, cls in spec.problem.enumerate_instances(spec.max_length)
    ]
    for size in range(1, spec.max_states + 1):
        for table in itertools.product(range(size + 1), repeat=size * nsym):
            need_one = need_zero = 0
            alive = True
            for encoded, cls in words:
                state = 0
                for ix in encoded:
                    state = table[state * nsym + ix]
                    if state == size:
                        break
                if state == size:
                    if cls == "yes":
                        alive = False
                        break
                    continue
                if cls == "yes":
                    need_one |= 1 << state
                else:
                    need_zero |= 1 << state
            if alive and not need_one & need_zero:
                return size
    return None


def _random_labelled_problem(rng):
    symbols = ("a", "b", "c")[: rng.randint(1, 3)]
    max_length = rng.randint(0, 5)
    density = rng.choice((0.1, 0.3, 0.6))
    labels = {}
    for length in range(max_length + 1):
        for letters in itertools.product(symbols, repeat=length):
            if rng.random() < density:
                labels["".join(letters)] = rng.choice(("yes", "no"))
    problem = PromiseProblem(
        alphabet=symbols,
        yes_member=lambda w: labels.get(w) == "yes",
        no_member=lambda w: labels.get(w) == "no",
    )
    return problem, max_length


@pytest.mark.parametrize("seed", range(3))
def test_dfa_search_matches_table_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(8):
        problem, max_length = _random_labelled_problem(rng)
        spec = SearchSpec("dfa", 3, problem, max_length)
        result = min_dfa_size(spec)
        assert result.size == _table_enumeration_size(spec)
        if result.found:
            assert result.witness.state_count == result.size
            assert promise_check(result.witness, problem, max_length).verdict == SOLVES


def _fooling_set_holds(spec, prefixes):
    """Independent check of a fooling set against the enumerated words:
    the prefixes differ, each has a yes completion, and for each pair some
    suffix makes one prefix a yes instance and the other a no instance."""
    yes, no = set(), set()
    for word, cls in spec.problem.enumerate_instances(spec.max_length):
        (yes if cls == "yes" else no).add(word)
    if len(set(prefixes)) != len(prefixes):
        return False
    if not all(any(word.startswith(u) for word in yes) for u in prefixes):
        return False
    for u, v in itertools.combinations(prefixes, 2):
        suffixes = {word[len(u):] for word in yes | no if word.startswith(u)}
        if not any(
            u + s in yes and v + s in no or u + s in no and v + s in yes for s in suffixes
        ):
            return False
    return True


def _cheap_table_enumeration(spec, size):
    """Whether _table_enumeration_size runs through sizes up to size fast."""
    return (size + 1) ** (size * len(spec.problem.alphabet)) <= 5000


def test_fooling_set_is_certified_on_random_problems():
    rng = random.Random(25)
    sizes = set()
    for _ in range(320):
        problem, max_length = _random_labelled_problem(rng)
        spec = SearchSpec("dfa", rng.randint(1, 3), problem, max_length)
        result = min_dfa_size(spec)
        bound = len(result.fooling_set)
        sizes.add(bound)
        assert _fooling_set_holds(spec, result.fooling_set)
        assert bound != 1
        if bound > spec.max_states:
            assert (result.size, result.candidates_checked) == (None, 0)
        elif result.found:
            assert bound <= result.size
        top = result.size or spec.max_states
        if _cheap_table_enumeration(spec, top):
            minimum = _table_enumeration_size(spec)
            assert minimum is None or bound <= minimum
            assert minimum == result.size
    assert sizes >= {0, 2, 3, 4}


def test_fooling_set_certifies_trios():
    spec = SearchSpec("dfa", 8, trios_problem(2, 1), 7)
    result = min_dfa_size(spec)
    assert result.fooling_set == ("#00", "#01", "#10")
    assert _fooling_set_holds(spec, result.fooling_set)
    # The prefixes #x with x != 111 fill 6 + 1 states, so the search has
    # nothing left to do; #111 has no yes completion and may be stuck.
    spec = SearchSpec("dfa", 6, trios_problem(3, 1), 10)
    result = min_dfa_size(spec)
    assert (result.size, result.candidates_checked) == (None, 0)
    assert result.fooling_set == tuple(f"#{x:03b}" for x in range(7))
    assert _fooling_set_holds(spec, result.fooling_set)


def test_fooling_set_prunes_only_branches_without_a_solver(monkeypatch):
    rng = random.Random(26)
    specs = [SearchSpec("dfa", 8, trios_problem(2, 1), 7)]
    for _ in range(60):
        problem, max_length = _random_labelled_problem(rng)
        specs.append(SearchSpec("dfa", 3, problem, max_length))
    counts = []
    for spec in specs:
        pruned = min_dfa_size(spec)
        with monkeypatch.context() as patch:
            patch.setattr(boundslab, "_fooling_set", lambda *args: [])
            plain = min_dfa_size(spec)
        assert plain.fooling_set == ()
        assert (pruned.size, pruned.witness) == (plain.size, plain.witness)
        assert pruned.candidates_checked <= plain.candidates_checked
        counts.append((plain.candidates_checked, pruned.candidates_checked))
    # Without the set the search visits what it always did on TRIOS(2,1).
    assert counts[0] == (47745, 21806)


class _CountingList(list):
    """A list that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_fooling_set_takes_at_most_one_step_per_trie_node():
    # Every word over three symbols up to length 8, classed by the parity of
    # its a's: a same-parity pair at one depth never clashes, and walking it
    # costs a whole subtrie, so only the budget stops the greedy. Each step
    # reads the labels of its pair once.
    problem = PromiseProblem(
        alphabet=("a", "b", "c"),
        yes_member=lambda w: w.count("a") % 2 == 0,
        no_member=lambda w: w.count("a") % 2 == 1,
    )
    parent, symbol, label, yes_below = _instance_trie(problem.alphabet, problem._coded(8))
    counted = _CountingList(label)
    assert _fooling_set(parent, symbol, counted, yes_below, 3, 9) == [1, 2]
    assert len(parent) < counted.reads <= 2 * len(parent)


def test_dfa_search_exact_minimum_trios_2_1():
    # Over three symbols at up to 8 states; 50 frames are twice the most the
    # search nests, one per assigned transition.
    spec = SearchSpec("dfa", 8, trios_problem(2, 1), 7)
    with _recursion_headroom(50):
        result = min_dfa_size(spec)
    assert (result.size, result.candidates_checked) == (4, 21806)
    assert promise_check(result.witness, trios_problem(2, 1), 7).verdict == SOLVES


@pytest.mark.slow
def test_dfa_search_exact_minimum_trios_2_2():
    spec = SearchSpec("dfa", 8, trios_problem(2, 2), 14)
    result = min_dfa_size(spec)
    assert result.size == 4
    assert promise_check(result.witness, trios_problem(2, 2), 14).verdict == SOLVES


def test_dfa_search_deep_trie_needs_no_recursion():
    # Every word over three symbols up to length 8 is an instance: a trie of
    # 9,841 nodes, so a search nesting one call per trie node would pass the
    # interpreter's recursion limit.
    problem = PromiseProblem(
        alphabet=("a", "b", "c"),
        yes_member=lambda w: w.count("a") % 2 == 0,
        no_member=lambda w: w.count("a") % 2 == 1,
    )
    with _recursion_headroom(50):
        result = min_dfa_size(SearchSpec("dfa", 8, problem, 8))
    assert result.size == 2


def _trie_walking_each_word(spec):
    """_instance_trie's four arrays built by walking every decoded word from
    the root: the reference for the trie grown along the front-coded stream."""
    index = {sym: i for i, sym in enumerate(spec.problem.alphabet)}
    children = [{}]
    bits = [0]
    for word, cls in spec.problem.enumerate_instances(spec.max_length):
        node = 0
        for ch in word:
            ix = index[ch]
            child = children[node].get(ix)
            if child is None:
                child = len(children)
                children[node][ix] = child
                children.append({})
                bits.append(0)
            node = child
        bits[node] |= _YES if cls == "yes" else _NO
    order = [0]
    parent = [-1]
    symbol = [-1]
    for pos, node in enumerate(order):
        for ix in sorted(children[node]):
            order.append(children[node][ix])
            parent.append(pos)
            symbol.append(ix)
    label = [bits[node] for node in order]
    yes_below = [bool(b & _YES) for b in label]
    for pos in range(len(order) - 1, 0, -1):
        if yes_below[pos]:
            yes_below[parent[pos]] = True
    return parent, symbol, label, yes_below


def _stream_spec(symbols, coded):
    """A dfa search spec whose problem enumerates the given triples."""
    problem = PromiseProblem(
        alphabet=symbols,
        yes_member=lambda w: False,
        no_member=lambda w: False,
        enumerator=lambda max_length: coded,
    )
    longest = max((len(word) for word, _ in _decode(coded)), default=0)
    return SearchSpec("dfa", 2, problem, longest)


def test_instance_trie_grown_along_the_stream_matches_walks_from_the_root():
    rng = random.Random(23)
    specs = [
        SearchSpec("dfa", 4, trios_problem(2, 1), 7),
        SearchSpec("dfa", 4, trios_problem(2, 2), 14),
        SearchSpec("dfa", 4, evenodd_problem(1), 40),
        SearchSpec("dfa", 4, up_problem(Fraction(9, 10)), 20),
    ]
    for _ in range(100):
        # Arbitrary valid keeps: anywhere from none to the whole previous word.
        symbols = ("a", "b", "c")[: rng.randint(1, 3)]
        coded, length = [], 0
        for _ in range(rng.randint(1, 30)):
            keep = rng.randint(0, length)
            suffix = "".join(rng.choice(symbols) for _ in range(rng.randint(0, 4)))
            coded.append((keep, suffix, rng.choice(("yes", "no"))))
            length = keep + len(suffix)
        specs.append(_stream_spec(symbols, coded))
        # A brute-forced problem, and its instances shuffled and front-coded
        # whole or with only half of each shared prefix kept.
        problem, max_length = _random_labelled_problem(rng)
        specs.append(SearchSpec("dfa", 2, problem, max_length))
        instances = problem.enumerate_instances(max_length)
        rng.shuffle(instances)
        half_kept = [
            (keep // 2, word[keep // 2 :], cls)
            for (keep, _, cls), (word, _) in zip(front_coded(instances), instances)
        ]
        for stream in (list(front_coded(instances)), half_kept):
            specs.append(_stream_spec(problem.alphabet, stream))
    for spec in specs:
        coded = spec.problem._coded(spec.max_length)
        assert _instance_trie(spec.problem.alphabet, coded) == _trie_walking_each_word(spec)


def test_instance_trie_labels_a_word_enumerated_in_both_classes():
    coded = [(0, "ab", "yes"), (1, "", "no"), (0, "ab", "no"), (0, "", "no")]
    spec = _stream_spec(("a", "b"), coded)
    trie = _instance_trie(("a", "b"), coded)
    assert trie == _trie_walking_each_word(spec)
    parent, symbol, label, yes_below = trie
    assert (parent, symbol) == ([-1, 0, 1], [-1, 0, 1])
    assert label == [_NO, _NO, _YES | _NO]
    assert yes_below == [True, True, True]


@pytest.mark.parametrize("suffix", ["zb", "bz", "z"])
def test_instance_trie_names_a_symbol_outside_the_alphabet(suffix):
    """The trie reads the list _coded checked, which names the symbol."""
    coded = [(0, "ab", "yes"), (1, suffix, "no")]
    spec = _stream_spec(("a", "b"), coded)
    with pytest.raises(InputDomainError, match="symbol 'z' not in alphabet"):
        _instance_trie(("a", "b"), spec.problem._coded(spec.max_length))
    with pytest.raises(InputDomainError, match="symbol 'z' not in alphabet"):
        min_dfa_size(_stream_spec(("a", "b"), coded))


_SEARCHES = {"unary-dfa": min_unary_dfa_size, "dfa": min_dfa_size, "unary-nfa": min_unary_nfa_size}


@pytest.mark.parametrize("kind", sorted(_SEARCHES))
def test_searches_name_a_symbol_outside_the_alphabet(kind):
    """No one-state machine alternates yes, no, yes on a^0, a^1, a^2, so no
    witness is revalidated: the search's own read of the stream must name
    the foreign symbol rather than report that no machine exists."""
    coded = [(0, "", "yes"), (0, "b", "no"), (0, "aa", "yes")]
    problem = PromiseProblem(("a",), lambda w: False, lambda w: False, lambda max_length: coded)
    with pytest.raises(InputDomainError, match="symbol 'b' not in alphabet"):
        _SEARCHES[kind](SearchSpec(kind, 1, problem, 2))


@pytest.mark.parametrize("kind", sorted(_SEARCHES))
def test_searches_read_their_instances_once(kind):
    """A search and the revalidation of its witness share one read of the
    instances: a brute-forced problem classifies each word once, and an
    enumerator runs once."""
    calls = {"yes": 0, "no": 0, "enumerator": 0}

    def yes_member(word):
        calls["yes"] += 1
        return word.count("a") % 2 == 0

    def no_member(word):
        calls["no"] += 1
        return word.count("a") % 2 == 1

    alphabet = ("a", "b") if kind == "dfa" else ("a",)
    problem = PromiseProblem(alphabet, yes_member, no_member)
    assert _SEARCHES[kind](SearchSpec(kind, 4, problem, 7)).found
    words = sum(len(alphabet) ** n for n in range(8))
    assert (calls["yes"], calls["no"]) == (words, words)

    evenodd = evenodd_problem(1)

    def enumerator(max_length):
        calls["enumerator"] += 1
        return evenodd.enumerator(max_length)

    problem = PromiseProblem(("a",), evenodd.yes_member, evenodd.no_member, enumerator)
    assert _SEARCHES[kind](SearchSpec(kind, 4, problem, 40)).found
    assert calls["enumerator"] == 1


def test_instance_trie_costs_memory_linear_in_the_stream():
    """EvenOdd(1) up to 20,000 enumerates a^0, a^2, .., a^20000. Walking each
    word from the root decodes about 100 million symbols of words; the trie
    grown along the stream steps once per symbol and holds one chain."""
    spec = SearchSpec("dfa", 4, evenodd_problem(1), 20_000)
    tracemalloc.start()
    try:
        parent, _, label, _ = _instance_trie(("a",), spec.problem._coded(spec.max_length))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parent) == 20_001
    assert label[:5] == [_YES, 0, _NO, 0, _YES]
    assert peak < 20_000_000


def _relation_enumeration_size(spec):
    """Reference minimum by brute force over every unary relation.

    Row q of a relation is the bitmask of q's targets. For each relation the
    subset trace from {0} is computed up to the longest instance; a no
    instance forbids its final subset from accepting, and the relation works
    when every yes instance's final subset keeps an allowed state."""
    lengths = [
        (len(word), cls) for word, cls in spec.problem.enumerate_instances(spec.max_length)
    ]
    horizon = max((length for length, _ in lengths), default=0)
    for size in range(1, spec.max_states + 1):
        for relation in itertools.product(range(1 << size), repeat=size):
            step = [0] * (1 << size)
            for subset in range(1, 1 << size):
                low = subset & -subset
                step[subset] = step[subset ^ low] | relation[low.bit_length() - 1]
            trace = [1]
            for _ in range(horizon):
                trace.append(step[trace[-1]])
            forbidden = 0
            finals_yes = []
            for length, cls in lengths:
                if cls == "yes":
                    finals_yes.append(trace[length])
                else:
                    forbidden |= trace[length]
            if all(subset & ~forbidden for subset in finals_yes):
                return size
    return None


def _random_unary_problem(rng):
    """Labels drawn per length, or per residue of a short period, which
    tends to need more states."""
    max_length = rng.randint(0, 14)
    density = rng.choice((0.2, 0.5, 0.9))
    period = rng.choice((max_length + 1, rng.randint(2, 5)))
    pattern = [rng.choice(("yes", "no")) for _ in range(period)]
    labels = {n: pattern[n % period] for n in range(max_length + 1) if rng.random() < density}
    problem = PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: labels.get(len(w)) == "yes",
        no_member=lambda w: labels.get(len(w)) == "no",
    )
    return problem, max_length


def test_unary_nfa_search_matches_relation_enumeration():
    outcomes = set()
    for seed in (3, 8, 10):
        rng = random.Random(seed)
        for _ in range(40):
            problem, max_length = _random_unary_problem(rng)
            spec = SearchSpec("unary-nfa", rng.randint(1, 4), problem, max_length)
            result = min_unary_nfa_size(spec)
            assert result.size == _relation_enumeration_size(spec)
            if result.found:
                assert result.witness.state_count == result.size
                assert promise_check(result.witness, problem, max_length).verdict == SOLVES
            outcomes.add((spec.max_states, result.size))
    # Every size is found, and searches exhaust, also at the 4-state cap.
    assert {size for _, size in outcomes} == {None, 1, 2, 3, 4}
    assert (4, None) in outcomes


def test_unary_nfa_search_exhausts_evenodd_2():
    # The search nests one call per assigned row, at most 4.
    with _recursion_headroom(50):
        result = min_unary_nfa_size(SearchSpec("unary-nfa", 4, evenodd_problem(2), 40))
    assert result.size is None
    assert result.witness is None
    assert result.candidates_checked == 19028


def test_unary_nfa_search_work_cap():
    spec = SearchSpec("unary-nfa", 4, evenodd_problem(2), 40)
    with pytest.raises(ResourceCapError):
        min_unary_nfa_size(spec, work_cap=1000)


def test_unary_nfa_search_charges_trace_steps():
    # 19,028 row choices stay under the cap, but their subset traces along
    # 2,000 lengths do not.
    spec = SearchSpec("unary-nfa", 4, up_problem(Fraction(49, 50)), 2000)
    with pytest.raises(ResourceCapError, match="search nodes and trace steps"):
        min_unary_nfa_size(spec, work_cap=20_000)


def test_unary_nfa_search_long_trace_needs_no_recursion():
    # A 5,000-step subset trace: a search nesting one call per trace step
    # would pass the interpreter's recursion limit. The lengths are read off
    # the front-coded stream; decoding it would hold about 12.5 MB of words.
    spec = SearchSpec("unary-nfa", 4, parity_problem(lambda n: True), 5000)
    tracemalloc.start()
    try:
        with _recursion_headroom(50):
            result = min_unary_nfa_size(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.size == 2
    assert peak < 4_000_000


def test_yes_only_empty_word_problem():
    problem = PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: w == "",
        no_member=lambda w: len(w) == 1,
    )
    spec = SearchSpec("unary-dfa", 18, problem, 4)
    result = min_unary_dfa_size(spec)
    assert result.size == 1


# --- pumping ---


def test_pumping_accepts_the_counter():
    report = pumping_check(evenodd_dfa(1), 4, (1, 2))
    assert report.verdict == SOLVES
    assert report.measured["pump"] == 24


def test_pumping_rejects_m_below_state_count():
    with pytest.raises(ValueError):
        pumping_check(evenodd_dfa(1), 3, (1,))


def test_pumping_needs_an_h_value():
    with pytest.raises(ValueError, match="at least one h value"):
        pumping_check(evenodd_dfa(1), 4, ())


def test_pumping_m_cap():
    with pytest.raises(ResourceCapError):
        pumping_check(evenodd_dfa(1), 13, (1,))


def test_pumping_needs_unary_machine():
    dfa = OneWayDfa(
        state_count=1,
        alphabet=("a", "b"),
        initial=0,
        transitions={(0, "a"): 0, (0, "b"): 0},
        accepting=frozenset({0}),
    )
    with pytest.raises(ValueError):
        pumping_check(dfa, 1, (1,))


def test_pumping_on_partial_machines():
    # A 3-state chain that sticks after two letters: the pumped run sticks
    # at the same depth, so outcomes agree.
    chain = OneWayDfa(
        state_count=3,
        alphabet=("a",),
        initial=0,
        transitions={(0, "a"): 1, (1, "a"): 2},
        accepting=frozenset({2}),
    )
    report = pumping_check(chain, 3, (1, 2))
    assert report.verdict == SOLVES


def test_pumping_nfa_subsets_agree():
    nfa = dfa_to_nfa(evenodd_dfa(1))
    report = pumping_check(nfa, 4, (1,))
    assert report.verdict == SOLVES


def test_pumping_nfa_subset_comparison_is_strict():
    """The nondeterministic check compares reachable subsets, which is
    stricter than acceptance agreement. With 0 -> {1}, 1 -> {2},
    2 -> {0, 2} the subsets from {0} are {0}, {1}, {2}, {0,2}, then
    {0,1,2} forever: at m = 3 the pumped subset has grown, so the check
    reports the mismatch, while from m = 4 the orbit has stabilized."""
    nfa = OneWayNfa(
        state_count=3,
        alphabet=("a",),
        initial=0,
        transitions=frozenset(
            {(0, "a", 1), (1, "a", 2), (2, "a", 0), (2, "a", 2)}
        ),
        accepting=frozenset({0}),
    )
    report = pumping_check(nfa, 3, (1, 2))
    assert report.verdict == FAILS
    assert report.counterexample is not None
    report = pumping_check(nfa, 4, (1, 2))
    assert report.verdict == SOLVES


def test_pumping_nfa_state_cap():
    big = OneWayNfa(
        state_count=25,
        alphabet=("a",),
        initial=0,
        transitions=frozenset((q, "a", (q + 1) % 25) for q in range(25)),
        accepting=frozenset({0}),
    )
    with pytest.raises(ResourceCapError):
        pumping_check(big, 25, (1,))


def _random_unary_machine(rng, kind, size):
    accepting = frozenset(q for q in range(size) if rng.random() < 0.5)
    initial = rng.randrange(size)
    if kind is OneWayDfa:
        transitions = {(q, "a"): rng.randrange(size) for q in range(size) if rng.random() < 0.8}
        return OneWayDfa(size, ("a",), initial, transitions, accepting)
    # A cycle through every state plus a chord or two: subset orbits with
    # tails longer than the state count, so both verdicts occur.
    moves = {(q, "a", (q + 1) % size) for q in range(size)}
    for _ in range(rng.randint(1, 2)):
        moves.add((rng.randrange(size), rng.choice(["a", "a", EPSILON]), rng.randrange(size)))
    return OneWayNfa(size, ("a",), initial, moves, accepting)


@pytest.mark.parametrize("kind", [OneWayDfa, OneWayNfa], ids=lambda k: k.__name__)
def test_pumping_matches_a_direct_fold(kind):
    """pumping_check reads both lengths off one orbit; the oracle folds the
    machine's step over both words symbol by symbol and compares the final
    values (state or reachable set, not only acceptance)."""
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(40):
        size = rng.randint(1, 5)
        machine = _random_unary_machine(rng, kind, size)
        m = rng.randint(size, 7 if rng.random() < 0.8 else 8)
        h_values = rng.choice([(1,), (2,), (1, 2)])
        final = _stepper(machine)._replace(outcome=lambda value: value)
        base = _fold(final, "a" * m)
        pump = math.factorial(m)
        same = all(_fold(final, "a" * (m + h * pump)) == base for h in h_values)
        report = pumping_check(machine, m, h_values)
        assert report.verdict == (SOLVES if same else FAILS)
        verdicts.add(report.verdict)
    assert verdicts == ({SOLVES} if kind is OneWayDfa else {SOLVES, FAILS})


def _plain_dfa_run(dfa, start, word):
    """dfa_run as a plain per-symbol loop from any start state: (state, None)
    at the end, or (None, i) when the symbol at index i has no move."""
    state = start
    for i, sym in enumerate(word):
        state = dfa.transitions.get((state, sym))
        if state is None:
            return None, i
    return state, None


def test_block_outcome_stuck_depth_matches_dfa_run():
    rng = random.Random(77)
    for _ in range(200):
        size = rng.randint(1, 6)
        dfa = OneWayDfa(
            size,
            ("a", "b"),
            rng.randrange(size),
            {(q, s): rng.randrange(size) for q in range(size) for s in "ab" if rng.random() < 0.7},
            frozenset(q for q in range(size) if rng.random() < 0.5),
        )
        sym = rng.choice("ab")
        start = rng.randrange(size)
        for length in range(3 * size):
            assert _dfa_block(dfa, start, sym, length) == _plain_dfa_run(dfa, start, sym * length)


# --- disjointness ---


def test_disjointness_passes_on_real_problems():
    assert disjointness_check(evenodd_problem(2), 64).verdict == SOLVES
    assert disjointness_check(trios_problem(1, 2), 8).verdict == SOLVES


def test_disjointness_catches_overlap():
    overlapping = PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: w == "",
        no_member=lambda w: w == "",
    )
    report = disjointness_check(overlapping, 3)
    assert report.verdict == FAILS
    assert report.counterexample[0] == ""


@pytest.mark.parametrize("max_length", [-1, -2])
def test_disjointness_rejects_a_negative_horizon(max_length):
    with pytest.raises(ValueError, match="max_length must be non-negative"):
        disjointness_check(trios_problem(2, 1), max_length)


def test_disjointness_work_cap():
    with pytest.raises(ResourceCapError):
        disjointness_check(trios_problem(1, 1), 30, work_cap=100)


@pytest.mark.parametrize("max_length", [10**6, 10**9])
def test_disjointness_cap_counts_no_further_than_it_must(max_length):
    # A unary problem has max_length + 1 words; a 3-symbol one has more
    # than 10^100, which the message says instead of the count.
    with pytest.raises(ResourceCapError) as unary:
        disjointness_check(evenodd_problem(1), max_length, work_cap=1000)
    assert str(unary.value) == f"{max_length + 1} words above the 1000 cap"
    with pytest.raises(ResourceCapError) as ternary:
        disjointness_check(trios_problem(1, 1), max_length)
    assert str(ternary.value) == "more than 10^100 words above the 10000000 cap"


def test_disjointness_cap_message_counts_every_word_up_to_10_to_the_100():
    # (3^210 - 1)/2 is about 10^99.9; one symbol more passes 10^100.
    with pytest.raises(ResourceCapError, match=f"^{(3**210 - 1) // 2} words"):
        disjointness_check(trios_problem(1, 1), 209, work_cap=10)
    with pytest.raises(ResourceCapError, match="^more than 10"):
        disjointness_check(trios_problem(1, 1), 210, work_cap=10)


def test_disjointness_cap_counts_symbols_in_closed_form():
    # 10^6 + 1 unary words pass the default word cap, but they hold
    # 10^6 (10^6 + 1) / 2 symbols: the cap fires before any word is built.
    start = time.perf_counter()
    with pytest.raises(ResourceCapError) as unary:
        disjointness_check(evenodd_problem(1), 10**6)
    assert str(unary.value) == "500000500000 symbols in 1000001 words above the 10000000 cap"
    assert time.perf_counter() - start < 1.0
    # Over three symbols up to length 8: 9841 words holding 73812 symbols.
    with pytest.raises(ResourceCapError) as ternary:
        disjointness_check(trios_problem(1, 1), 8, work_cap=73811)
    assert str(ternary.value) == "73812 symbols in 9841 words above the 73811 cap"
    report = disjointness_check(trios_problem(1, 1), 8, work_cap=73812)
    assert report.measured["words"] == 9841


@pytest.mark.parametrize("size", [1, 2, 3])
def test_disjointness_symbol_count_matches_the_words(size):
    problem = PromiseProblem(
        alphabet=("a", "b", "c")[:size], yes_member=lambda w: False, no_member=lambda w: False
    )
    for max_length in range(7):
        symbols = sum(n * size**n for n in range(max_length + 1))
        words = sum(size**n for n in range(max_length + 1))
        cap = max(symbols, words)
        assert disjointness_check(problem, max_length, work_cap=cap).measured["words"] == words
        if symbols > words:
            with pytest.raises(ResourceCapError, match=f"^{symbols} symbols in {words} words"):
                disjointness_check(problem, max_length, work_cap=symbols - 1)
