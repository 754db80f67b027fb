"""Prefix-resumed verification against a per-instance run of every word.

promise_check and lasvegas_success resume each instance from the previous
instance's shared prefix (shared suffix for alternating machines; two-way
machines step through their memoized crossing table). These tests check,
on seeded random machines, on enumeration orders chosen to defeat that
sharing and on a stream that keeps less than the shared prefix, that the
verdict, the counterexample and the measured figures all equal those of
simulating every instance from scratch. Over one symbol promise_check
reads each instance off the machine's orbit instead; its report must equal
the resumed fold's on unary streams of every non-probabilistic model.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from promata import (
    EPSILON,
    FAILS,
    ROLE_ACCEPTING,
    ROLE_NEUTRAL,
    ROLE_REJECTING,
    SOLVES,
    InputDomainError,
    OneWayAfa,
    OneWayDfa,
    OneWayNfa,
    OneWayPfa,
    PromiseProblem,
    TwoWayMachine,
    evenodd_afa_epsfree,
    evenodd_afa_rt,
    evenodd_dfa,
    evenodd_problem,
    front_coded,
    lasvegas_success,
    machine_accepts,
    outcome_dist,
    promise_check,
    trios_problem,
    trios_twoway_dfa,
)
from promata import machines
from promata.machines import (
    LEFT,
    LEFT_MARKER,
    RIGHT,
    RIGHT_MARKER,
    STAY,
    Stepper,
    VerificationReport,
    _decode,
    _resumed_outcomes,
    _stepper,
    _unary_outcomes,
    _word_at,
)

ALPHABET = ("a", "b")
MAX_LENGTH = 5
WORDS = ["".join(w) for n in range(MAX_LENGTH + 1) for w in itertools.product(ALPHABET, repeat=n)]


def _random_dfa(rng, alphabet=ALPHABET):
    size = rng.randint(1, 5)
    transitions = {
        (q, sym): rng.randrange(size)
        for q in range(size)
        for sym in alphabet
        if rng.random() < 0.85
    }
    accepting = frozenset(q for q in range(size) if rng.random() < 0.5)
    return OneWayDfa(size, alphabet, rng.randrange(size), transitions, accepting)


def _random_nfa(rng, alphabet=ALPHABET):
    """Symbol moves plus EPSILON moves, cycles among them allowed."""
    size = rng.randint(1, 5)
    moves = set()
    for src in range(size):
        for dst in range(size):
            for sym in alphabet:
                if rng.random() < 0.3:
                    moves.add((src, sym, dst))
            if src != dst and rng.random() < 0.15:
                moves.add((src, EPSILON, dst))
    accepting = frozenset(q for q in range(size) if rng.random() < 0.4)
    return OneWayNfa(size, alphabet, rng.randrange(size), frozenset(moves), accepting)


def _random_afa(rng, alphabet=ALPHABET):
    """Mixed existential and universal states over two symbols; silent
    moves only go to higher-numbered states, so they stay acyclic."""
    size = rng.randint(1, 6)
    moves = set()
    for src in range(size):
        if src + 1 < size and rng.random() < 0.3:
            for dst in rng.sample(range(src + 1, size), rng.randint(1, size - src - 1)):
                moves.add((src, EPSILON, dst))
            continue
        for sym in alphabet:
            for dst in range(size):
                if rng.random() < 0.35:
                    moves.add((src, sym, dst))
    return OneWayAfa(
        state_count=size,
        alphabet=alphabet,
        initial=rng.randrange(size),
        transitions=frozenset(moves),
        accepting=frozenset(q for q in range(size) if rng.random() < 0.5),
        existential=frozenset(q for q in range(size) if rng.random() < 0.5),
        max_eps_chain=size,
    )


def _random_twoway(rng, alphabet=ALPHABET):
    """Deterministic or not, with STAY moves, self-loops and moves on both
    endmarkers; none walks off the tape."""
    size = rng.randint(1, 5)
    deterministic = rng.random() < 0.4
    moves = set()
    for src in range(size):
        for sym in (LEFT_MARKER, *alphabet, RIGHT_MARKER):
            allowed = [
                move
                for move in (LEFT, STAY, RIGHT)
                if (sym, move) not in ((LEFT_MARKER, LEFT), (RIGHT_MARKER, RIGHT))
            ]
            for _ in range(rng.choice((0, 1, 1, 1) if deterministic else (0, 1, 2, 3))):
                moves.add((src, sym, rng.randrange(size), rng.choice(allowed)))
    return TwoWayMachine(
        state_count=size,
        alphabet=alphabet,
        initial=rng.randrange(size),
        transitions=frozenset(moves),
        accepting=frozenset(q for q in range(size) if rng.random() < 0.4),
        deterministic=deterministic,
    )


def _random_pfa(rng):
    size = rng.randint(1, 4)
    transitions = {}
    for q in range(size):
        for sym in ALPHABET:
            if rng.random() < 0.15:
                continue  # a missing row halts the mass that reaches it
            targets = rng.sample(range(size), rng.randint(1, size))
            weights = [rng.randint(0, 3) for _ in targets]
            weights[0] += 1
            total = sum(weights)
            transitions[(q, sym)] = tuple(
                (t, Fraction(w, total)) for t, w in zip(targets, weights)
            )
    roles = {
        q: rng.choice((ROLE_ACCEPTING, ROLE_REJECTING, ROLE_NEUTRAL)) for q in range(size)
    }
    return OneWayPfa(size, ALPHABET, rng.randrange(size), transitions, roles)


def _afa_reference(afa, word):
    """The alternating semantics read off its definition, by memoized
    recursion over (state, position): no evaluation order is taken from the
    machine's own tables."""
    value = {}

    def accepts(state, pos):
        if (state, pos) not in value:
            silent = [d for s, a, d in afa.transitions if s == state and a is EPSILON]
            reading = [
                d
                for s, a, d in afa.transitions
                if s == state and pos < len(word) and a == word[pos]
            ]
            if silent:
                branch = [accepts(d, pos) for d in silent]
            elif reading:
                branch = [accepts(d, pos + 1) for d in reading]
            else:
                value[(state, pos)] = pos == len(word) and state in afa.accepting
                return value[(state, pos)]
            value[(state, pos)] = any(branch) if state in afa.existential else all(branch)
        return value[(state, pos)]

    return accepts(afa.initial, 0)


@pytest.mark.parametrize(
    "build, k",
    [(evenodd_afa_rt, k) for k in range(1, 5)] + [(evenodd_afa_epsfree, k) for k in (3, 4)],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_evenodd_afas_match_the_reference_semantics(build, k):
    """The EvenOdd alternating machines run every unary word up to 2^(k+2)
    symbols, not only the promise's lengths, as their definition says."""
    machine = build(k)
    for n in range(2 ** (k + 2) + 1):
        assert machine_accepts(machine, "a" * n) == _afa_reference(machine, "a" * n), n


def _half_kept(instances):
    """Front-coded triples that keep only half of the prefix each word
    shares with the previous one; the rest is repeated in the suffix."""
    for (keep, _, cls), (word, _) in zip(front_coded(instances), instances):
        yield keep // 2, word[keep // 2 :], cls


def _orders(rng):
    """Enumeration orders from friendliest to most hostile to prefix reuse,
    each with the coder that front-codes it."""
    shuffled = list(WORDS)
    rng.shuffle(shuffled)
    return {
        "lexicographic": (sorted(WORDS), front_coded),
        "lexicographic_half_kept": (sorted(WORDS), _half_kept),
        "by_suffix": (sorted(WORDS, key=lambda w: w[::-1]), front_coded),
        "descending_length": (sorted(WORDS, key=len, reverse=True), front_coded),
        "shuffled": (shuffled, front_coded),
    }


def _problem(order, code, labels):
    instances = [(w, labels[w]) for w in order if w in labels]
    return PromiseProblem(
        alphabet=ALPHABET,
        yes_member=lambda w: labels.get(w) == "yes",
        no_member=lambda w: labels.get(w) == "no",
        enumerator=lambda max_length: code([i for i in instances if len(i[0]) <= max_length]),
    )


def _labelings(rng, truth):
    """The machine's own answers (solves), the same with one late flip (fails
    there), a random partial labelling (fails early)."""
    own = {w: ("yes" if truth[w] else "no") for w in WORDS if truth[w] is not None}
    flipped = dict(own)
    if own:
        word = rng.choice(sorted(own, key=len)[len(own) // 2 :])
        flipped[word] = "no" if own[word] == "yes" else "yes"
    noisy = {w: rng.choice(("yes", "no")) for w in WORDS if rng.random() < 0.6}
    return own, flipped, noisy


def _per_instance_report(accepts, problem, max_length):
    instances = problem.enumerate_instances(max_length)
    measured = {"instances": len(instances), "max_length": max_length}
    for word, cls in instances:
        accepted = accepts(word)
        if accepted != (cls == "yes"):
            return FAILS, (word, cls, "accept" if accepted else "reject"), measured
    return SOLVES, None, measured


@pytest.mark.parametrize("model", ["dfa", "nfa", "afa", "2nfa"])
def test_promise_check_matches_per_instance_runs(model):
    make = {"dfa": _random_dfa, "nfa": _random_nfa, "afa": _random_afa, "2nfa": _random_twoway}[
        model
    ]
    rng = random.Random(f"promise:{model}")
    verdicts = set()
    for _ in range(30):
        machine = make(rng)
        truth = {w: machine_accepts(machine, w) for w in WORDS}
        if model == "afa":
            assert all(truth[w] == _afa_reference(machine, w) for w in WORDS)
        for labels in _labelings(rng, truth):
            for name, (order, code) in _orders(rng).items():
                problem = _problem(order, code, labels)
                for max_length in (0, 3, MAX_LENGTH):
                    report = promise_check(machine, problem, max_length)
                    expected = _per_instance_report(
                        lambda w: machine_accepts(machine, w), problem, max_length
                    )
                    got = (report.verdict, report.counterexample, report.measured)
                    assert got == expected, (name, labels)
                    verdicts.add(report.verdict)
    assert verdicts == {SOLVES, FAILS}


def _per_instance_lasvegas(pfa, problem, max_length, threshold):
    instances = problem.enumerate_instances(max_length)
    measured = {"instances": len(instances), "threshold": threshold}
    min_success = None
    for word, cls in instances:
        dist = outcome_dist(pfa, word)
        good, bad = (
            (dist.accept, dist.reject) if cls == "yes" else (dist.reject, dist.accept)
        )
        if bad != 0 or good < threshold or good == 0:
            detail = f"accept={dist.accept} reject={dist.reject}"
            return FAILS, (word, cls, detail), measured
        min_success = good if min_success is None else min(min_success, good)
    if min_success is not None:
        measured["min_success"] = min_success
    return SOLVES, None, measured


def test_lasvegas_success_matches_per_instance_runs():
    rng = random.Random("lasvegas")
    verdicts = set()
    for _ in range(20):
        pfa = _random_pfa(rng)
        truth = {}
        for word in WORDS:
            dist = outcome_dist(pfa, word)
            if dist.reject == 0 and dist.accept > 0:
                truth[word] = True
            elif dist.accept == 0 and dist.reject > 0:
                truth[word] = False
            else:
                truth[word] = None
        for labels in _labelings(rng, truth):
            for name, (order, code) in _orders(rng).items():
                problem = _problem(order, code, labels)
                for threshold in (Fraction(0), Fraction(1, 3)):
                    report = lasvegas_success(pfa, problem, MAX_LENGTH, threshold)
                    expected = _per_instance_lasvegas(pfa, problem, MAX_LENGTH, threshold)
                    got = (report.verdict, report.counterexample, report.measured)
                    assert got == expected, (name, labels)
                    verdicts.add(report.verdict)
    assert verdicts == {SOLVES, FAILS}


def _own_label(machine, word):
    if isinstance(machine, OneWayPfa):
        return "yes" if outcome_dist(machine, word).accept > 0 else "no"
    return "yes" if machine_accepts(machine, word) else "no"


@pytest.mark.parametrize("model", ["dfa", "nfa", "afa", "pfa"])
@pytest.mark.parametrize("foreign", ["abz", "zab", "azb", "zby"])
def test_foreign_symbol_after_shared_prefix_is_an_input_domain_error(model, foreign):
    """The word with the foreign symbol shares its prefix or its suffix with
    a passing instance, so only its unshared part is new. Of two foreign
    symbols, the first in the word is named."""
    rng = random.Random(f"foreign:{model}")
    if model == "pfa":
        trusted = OneWayPfa(
            1, ALPHABET, 0, {(0, "a"): ((0, Fraction(1)),), (0, "b"): ((0, Fraction(1)),)},
            {0: ROLE_ACCEPTING},
        )
    else:
        trusted = {"dfa": _random_dfa, "nfa": _random_nfa, "afa": _random_afa}[model](rng)
    instances = [("ab", _own_label(trusted, "ab")), (foreign, "yes")]
    problem = PromiseProblem(
        alphabet=ALPHABET,
        yes_member=lambda w: False,
        no_member=lambda w: False,
        enumerator=lambda max_length: front_coded(instances),
    )
    with pytest.raises(InputDomainError, match="'z'"):
        if model == "pfa":
            lasvegas_success(trusted, problem, 3)
        else:
            promise_check(trusted, problem, 3)


def test_unary_sweep_steps_once_per_symbol():
    """A sweep a^0 .. a^n takes n steps in all, read forwards or backwards.
    On a binary stream a forward run steps each word after its longest
    common prefix with the previous word, and a reverse run steps it before
    its longest common suffix: len(w) minus that suffix per instance."""
    calls = []

    def step(value, sym):
        calls.append(sym)
        return value + 1

    n = 40
    sweep = [("a" * i, "yes") for i in range(n + 1)]
    for reverse in (False, True):
        calls.clear()
        stepper = Stepper(0, step, lambda value: value, reverse)
        coded = front_coded(sweep)
        outcomes = [v for _, _, v in _resumed_outcomes(stepper, coded)]
        assert outcomes == list(range(n + 1))
        assert len(calls) == n
    words = [("ab", "yes"), ("abab", "yes"), ("b", "no"), ("abba", "yes"), ("bba", "no")]
    # Shared prefixes 0, 2, 0, 0, 0; shared suffixes 0, 2, 1, 0, 3.
    for reverse, steps in ((False, 2 + 2 + 1 + 4 + 3), (True, 2 + 2 + 0 + 4 + 0)):
        calls.clear()
        stepper = Stepper(0, step, lambda value: value, reverse)
        coded = front_coded(words)
        outcomes = [v for _, _, v in _resumed_outcomes(stepper, coded)]
        assert outcomes == [2, 4, 1, 4, 3]
        assert len(calls) == steps


def test_unary_reverse_run_names_the_first_foreign_symbol():
    """A one-symbol AFA, which reads its words backwards, names the first
    of two foreign symbols in a suffix as it lies in the word, not the
    first it would read."""
    afa = OneWayAfa(
        1, ("a",), 0, frozenset({(0, "a", 0)}), frozenset({0}), frozenset({0})
    )
    problem = PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: False,
        no_member=lambda w: False,
        enumerator=lambda max_length: front_coded([("a", "yes"), ("abc", "no")]),
    )
    with pytest.raises(InputDomainError, match="'b'"):
        promise_check(afa, problem, 3)


def _resumed_report(machine, problem, max_length):
    """promise_check's report as the resumed fold over every instance gives it."""
    coded = problem._coded(max_length)
    measured = {"instances": len(coded), "max_length": max_length}
    for index, cls, accepted in _resumed_outcomes(_stepper(machine), coded):
        if accepted != (cls == "yes"):
            counterexample = (_word_at(coded, index), cls, "accept" if accepted else "reject")
            return VerificationReport(FAILS, counterexample, measured)
    return VerificationReport(SOLVES, measured=measured)


def _unary_problems(rng, max_length):
    """Brute-forced residue problems (every keep 0), and a hand-written
    stream whose lengths jump both ways and whose keeps rise and fall."""
    for _ in range(3):
        period = rng.randint(1, 7)
        yes = set(rng.sample(range(period), rng.randint(0, period)))
        no = set(rng.sample(sorted(set(range(period)) - yes), rng.randint(0, period - len(yes))))
        yield PromiseProblem(
            alphabet=("a",),
            yes_member=lambda w, yes=yes, period=period: len(w) % period in yes,
            no_member=lambda w, no=no, period=period: len(w) % period in no,
        )
    labels = {n: rng.choice(("yes", "no")) for n in range(max_length + 1)}
    coded, length = [], 0
    for _ in range(rng.randint(1, 40)):
        target = rng.randint(0, max_length)
        keep = rng.randint(0, min(length, target))
        coded.append((keep, "a" * (target - keep), labels[target]))
        length = target
    yield PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: False,
        no_member=lambda w: False,
        # A shorter horizon reads the stream up to its first longer word.
        enumerator=lambda m: itertools.takewhile(lambda i: i[0] + len(i[1]) <= m, coded),
    )


@pytest.mark.parametrize("model", ["dfa", "nfa", "afa", "2dfa/2nfa"])
def test_unary_promise_check_matches_the_resumed_fold(model):
    """Over one symbol promise_check reads each instance off the orbit; its
    report must be the one the resumed fold gives, verdict, counterexample
    and measured figures alike, on runs that get stuck, close over silent
    moves, read backwards or cross the tape both ways."""
    make = {
        "dfa": _random_dfa, "nfa": _random_nfa, "afa": _random_afa, "2dfa/2nfa": _random_twoway
    }[model]
    rng = random.Random(f"unary:{model}")
    verdicts, kinds = set(), set()
    for _ in range(40):
        machine = make(rng, ("a",))
        kinds.add(getattr(machine, "deterministic", None))
        max_length = rng.randint(0, 40)
        for problem in _unary_problems(rng, max_length):
            for horizon in (max_length, max_length // 2):
                report = promise_check(machine, problem, horizon)
                assert report == _resumed_report(machine, problem, horizon)
                verdicts.add(report.verdict)
    assert verdicts == {SOLVES, FAILS}
    if model == "2dfa/2nfa":
        assert kinds == {True, False}


def test_unary_check_steps_once_per_distinct_value(monkeypatch):
    """EvenOdd(1) up to a^1000000 costs evenodd_dfa(1) at most 5 steps:
    its 4-state cycle is walked once, not a million symbols."""
    calls = [0]
    build = _stepper

    def counting(machine):
        stepper = build(machine)

        def step(value, sym):
            calls[0] += 1
            return stepper.step(value, sym)

        return stepper._replace(step=step)

    monkeypatch.setattr(machines, "_stepper", counting)
    report = promise_check(evenodd_dfa(1), evenodd_problem(1), 10**6)
    measured = {"instances": 500_001, "max_length": 10**6}
    assert report == VerificationReport(SOLVES, measured=measured)
    assert calls[0] <= 5


def test_unary_outcomes_walk_the_orbit_only_as_far_as_the_lengths_reach():
    """The orbit is walked only as far as the longest word read so far:
    the first instance takes 3 steps, the shorter second and the empty
    last read the walked path, and only the third walks on."""
    calls = []

    def step(value, sym):
        calls.append(value)
        return (value + 1) % 1000

    stepper = Stepper(0, step, lambda value: value)
    coded = [(0, "aaa", "yes"), (1, "a", "no"), (2, "aaaaa", "yes"), (0, "", "no")]
    runs = _unary_outcomes(stepper, "a", coded)
    assert next(runs) == (0, "yes", 3)
    assert len(calls) == 3
    assert list(runs) == [(1, "no", 2), (2, "yes", 7), (3, "no", 0)]
    assert len(calls) == 7


def test_word_at_matches_decode_with_any_valid_keeps():
    rng = random.Random(22)
    for _ in range(300):
        coded, length = [], 0
        for _ in range(rng.randint(1, 30)):
            keep = rng.randint(0, length)
            suffix = "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            coded.append((keep, suffix, rng.choice(("yes", "no"))))
            length = keep + len(suffix)
        words = [word for word, _ in _decode(coded)]
        assert [_word_at(coded, index) for index in range(len(coded))] == words


def test_late_counterexample_costs_memory_linear_in_its_word():
    """A 20,000-state chain counts mod 4 and then gets stuck, so it fails
    EvenOdd(1) only at the last of 10,001 instances. Naming that word must
    not build the earlier ones, about 100 MB of words in all."""
    n = 20_000
    chain = OneWayDfa(
        n, ("a",), 0, {(q, "a"): q + 1 for q in range(n - 1)}, frozenset(range(0, n, 4))
    )
    tracemalloc.start()
    try:
        report = promise_check(chain, evenodd_problem(1), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == FAILS
    assert report.counterexample == ("a" * n, "yes", "reject")
    assert peak < 10_000_000


@pytest.mark.slow
def test_twoway_promise_check_on_trios_4_2():
    report = promise_check(trios_twoway_dfa(4, 2), trios_problem(4, 2), 26)
    assert report.verdict == SOLVES
    assert report.measured == {"instances": 61250, "max_length": 26}
