"""Exact distributions, sampling, zero-error verification, round composition."""

import bisect
import collections
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promata import (
    FAILS,
    AlphabetMismatchError,
    InputDomainError,
    ROLE_ACCEPTING,
    ROLE_NEUTRAL,
    ROLE_REJECTING,
    SOLVES,
    OneWayPfa,
    OutcomeDistribution,
    PromiseProblem,
    ResourceCapError,
    RoundModel,
    accept_prob,
    expected_rounds,
    expeq_compose,
    expeq_decisive_above,
    expeq_params,
    expeq_problem,
    expeq_tail_below,
    front_coded,
    lasvegas_success,
    monte_carlo,
    outcome_dist,
    restart_bound,
    trios_lasvegas_pfa,
    trios_problem,
    trios_success_bound,
    up_pfa,
)
from promata import probabilistic
from promata.constructions import _trios_pairs
from promata.exactmath import e_bounds
from promata.probabilistic import _pfa_stepper, within_restart_bound


def _coin(p=Fraction(1, 2)):
    """Two-state chain: accept while the biased coin keeps landing heads."""
    return up_pfa(p)


def test_foreign_symbol_is_an_input_domain_error():
    with pytest.raises(InputDomainError):
        outcome_dist(up_pfa(Fraction(1, 2)), "b")
    with pytest.raises(InputDomainError):
        monte_carlo(up_pfa(Fraction(1, 2)), "ab", 10, 1)


def test_lasvegas_alphabet_mismatch_is_typed():
    with pytest.raises(AlphabetMismatchError, match="alphabet"):
        lasvegas_success(up_pfa(Fraction(1, 2)), trios_problem(1, 1), 4)
    assert issubclass(AlphabetMismatchError, ValueError)


def test_outcome_distribution_validates():
    with pytest.raises(ValueError):
        OutcomeDistribution(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        OutcomeDistribution(Fraction(-1, 2), Fraction(1), Fraction(1, 2))
    dist = OutcomeDistribution(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert dist.accept + dist.reject + dist.neutral == 1


def test_exact_distribution_sums_to_one():
    pfa = trios_lasvegas_pfa(2, 1)
    for word, _ in trios_problem(2, 1).enumerate_instances(7):
        dist = outcome_dist(pfa, word)
        assert dist.accept + dist.reject + dist.neutral == 1


def test_accept_prob_matches_distribution():
    pfa = _coin()
    for j in range(10):
        assert accept_prob(pfa, "a" * j) == outcome_dist(pfa, "a" * j).accept


def test_missing_row_mass_counts_as_neutral():
    # One state, accepting, no transitions: any input strands all mass.
    pfa = OneWayPfa(
        state_count=1,
        alphabet=("a",),
        initial=0,
        transitions={},
        roles={0: ROLE_ACCEPTING},
    )
    assert outcome_dist(pfa, "").accept == 1
    dist = outcome_dist(pfa, "a")
    assert dist.neutral == 1
    assert dist.accept == 0


def test_monte_carlo_is_reproducible():
    pfa = _coin()
    first = monte_carlo(pfa, "aaa", 500, 99)
    second = monte_carlo(pfa, "aaa", 500, 99)
    assert first == second
    third = monte_carlo(pfa, "aaa", 500, 100)
    assert third != first


def test_monte_carlo_counts_are_fractions_over_trials():
    pfa = _coin()
    dist = monte_carlo(pfa, "a", 640, 3)
    for part in (dist.accept, dist.reject, dist.neutral):
        assert part.denominator <= 640
    assert dist.accept + dist.reject + dist.neutral == 1


def test_monte_carlo_empty_word():
    dist = monte_carlo(_coin(), "", 50, 1)
    assert dist.accept == 1


def test_monte_carlo_tracks_exact_within_four_sigma():
    pfa = _coin(Fraction(9, 10))
    trials = 20_000
    exact = outcome_dist(pfa, "aa")
    sampled = monte_carlo(pfa, "aa", trials, 4242)
    for name in ("accept", "reject", "neutral"):
        p = float(getattr(exact, name))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(float(getattr(sampled, name)) - p) <= 4 * sigma + 1e-12


def test_monte_carlo_needs_positive_trials():
    with pytest.raises(ValueError):
        monte_carlo(_coin(), "a", 0, 1)


# --- integer-numerator propagation against a Fraction oracle ---


def _oracle_dist(pfa, word):
    """Per-word forward propagation with one reduced Fraction per state."""
    dist = {pfa.initial: Fraction(1)}
    for sym in word:
        nxt = {}
        for state, mass in dist.items():
            for target, prob in pfa.transitions.get((state, sym), ()):
                if prob:
                    nxt[target] = nxt.get(target, 0) + mass * prob
        dist = nxt
    accept = sum((m for q, m in dist.items() if pfa.roles[q] == ROLE_ACCEPTING), Fraction(0))
    reject = sum((m for q, m in dist.items() if pfa.roles[q] == ROLE_REJECTING), Fraction(0))
    return accept, reject, 1 - accept - reject


def _random_row(rng, size, denominator):
    """Targets with probabilities over a denominator, zero entries allowed."""
    targets = rng.sample(range(size), rng.randint(1, min(size, 3)))
    cuts = sorted(rng.randint(0, denominator) for _ in targets[1:])
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, denominator])]
    return tuple((t, Fraction(part, denominator)) for t, part in zip(targets, parts))


def _random_pfa(rng):
    """1-5 states, 1-2 symbols, denominators 1..12, some rows missing."""
    size = rng.randint(1, 5)
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    transitions = {
        (q, sym): _random_row(rng, size, rng.randint(1, 12))
        for q in range(size)
        for sym in alphabet
        if rng.random() < 0.8
    }
    roles = {
        q: rng.choice((ROLE_ACCEPTING, ROLE_REJECTING, ROLE_NEUTRAL)) for q in range(size)
    }
    return OneWayPfa(size, alphabet, rng.randrange(size), transitions, roles)


def _lcm_pfa():
    """Rows over 8, 9, 5, 7 and 11, so the common scale D is 27,720."""
    rows = {}
    for idx, denominator in enumerate((8, 9, 5, 7, 11, 12, 10, 3, 6, 4)):
        q, sym = divmod(idx, 2)
        one = Fraction(1, denominator)
        rows[(q, "ab"[sym])] = ((q, one), ((q + 1 + sym) % 5, 1 - one))
    roles = {q: (ROLE_NEUTRAL, ROLE_ACCEPTING, ROLE_REJECTING)[q % 3] for q in range(5)}
    return OneWayPfa(5, ("a", "b"), 0, rows, roles)


def _oracle_pfas():
    rng = random.Random("pfa-oracle")
    return [_lcm_pfa()] + [_random_pfa(rng) for _ in range(44)]


def _words(alphabet, max_length):
    return [
        "".join(w) for n in range(max_length + 1) for w in itertools.product(alphabet, repeat=n)
    ]


def _scale(pfa):
    return math.lcm(*(p.denominator for row in pfa.transitions.values() for _, p in row))


def test_pfa_sample_covers_the_integer_scale_edge_cases():
    pfas = _oracle_pfas()
    assert max(_scale(pfa) for pfa in pfas) == 27720
    assert {pfa.state_count for pfa in pfas} == {1, 2, 3, 4, 5}
    assert {len(pfa.symbols) for pfa in pfas} == {1, 2}
    rows = [row for pfa in pfas for row in pfa.transitions.values()]
    assert any(p == 0 for row in rows for _, p in row)
    assert any(len(pfa.transitions) < pfa.state_count * len(pfa.symbols) for pfa in pfas)
    assert {role for pfa in pfas for role in pfa.roles.values()} == {
        ROLE_ACCEPTING, ROLE_REJECTING, ROLE_NEUTRAL
    }


def test_outcome_dist_matches_fraction_oracle():
    for pfa in _oracle_pfas():
        for word in _words(sorted(pfa.symbols), 6):
            dist = outcome_dist(pfa, word)
            assert (dist.accept, dist.reject, dist.neutral) == _oracle_dist(pfa, word), word
            assert accept_prob(pfa, word) == dist.accept


def _oracle_lasvegas(pfa, instances, threshold):
    measured = {"instances": len(instances), "threshold": threshold}
    min_success = None
    for word, cls in instances:
        accept, reject, _ = _oracle_dist(pfa, word)
        good, bad = (accept, reject) if cls == "yes" else (reject, accept)
        if bad != 0 or good < threshold or good == 0:
            return FAILS, (word, cls, f"accept={accept} reject={reject}"), measured
        min_success = good if min_success is None else min(min_success, good)
    if min_success is not None:
        measured["min_success"] = min_success
    return SOLVES, None, measured


def test_lasvegas_success_matches_fraction_oracle():
    """Lexicographic and shuffled instance orders, so runs resume from
    shared prefixes of every length."""
    rng = random.Random("lasvegas-oracle")
    verdicts = set()
    for pfa in _oracle_pfas():
        alphabet = tuple(sorted(pfa.symbols))
        words = _words(alphabet, 5)
        own = {}
        for word in words:
            accept, reject, _ = _oracle_dist(pfa, word)
            if accept and not reject:
                own[word] = "yes"
            elif reject and not accept:
                own[word] = "no"
        flipped = dict(own)
        if own:
            late = rng.choice(sorted(own, key=len)[len(own) // 2 :])
            flipped[late] = "no" if own[late] == "yes" else "yes"
        shuffled = list(words)
        rng.shuffle(shuffled)
        for labels in (own, flipped):
            for order in (words, shuffled):
                instances = [(w, labels[w]) for w in order if w in labels]
                problem = PromiseProblem(
                    alphabet=alphabet,
                    yes_member=lambda w, labels=labels: labels.get(w) == "yes",
                    no_member=lambda w, labels=labels: labels.get(w) == "no",
                    enumerator=lambda n, instances=instances: front_coded(instances),
                )
                for threshold in (Fraction(0), Fraction(1, 3)):
                    report = lasvegas_success(pfa, problem, 5, threshold)
                    got = (report.verdict, report.counterexample, report.measured)
                    assert got == _oracle_lasvegas(pfa, instances, threshold)
                    verdicts.add(report.verdict)
    assert verdicts == {SOLVES, FAILS}


def test_pfa_step_leaves_its_input_unchanged():
    stepper = _pfa_stepper(_lcm_pfa())
    value = stepper.start
    for sym in "abba":
        before = (dict(value[0]), value[1])
        nxt = stepper.step(value, sym)
        assert (dict(value[0]), value[1]) == before
        value = nxt


def test_long_word_exactness_pins():
    p = Fraction(49, 50)
    assert accept_prob(up_pfa(p), "a" * 6000) == p**6000
    rng = random.Random("trios-long")
    n = 2
    for cls, side in (("yes", "accept"), ("no", "reject")):
        segments = [rng.choice(_trios_pairs(n, cls)) for _ in range(1000)]
        if cls == "yes":
            word = "".join(f"#{x}{x}{y}" for x, y in segments)
            hits = [sum(a == "0" and b == "1" for a, b in zip(x, y)) for x, y in segments]
        else:
            word = "".join(f"#{x}{y}{x}" for x, y in segments)
            hits = [sum(a == "1" and b == "0" for a, b in zip(x, y)) for x, y in segments]
        assert getattr(trios_problem(n, 1000), f"{cls}_member")(word)
        undecided = math.prod((1 - Fraction(w, n) for w in hits), start=Fraction(1))
        dist = outcome_dist(trios_lasvegas_pfa(n, 1000), word)
        assert getattr(dist, side) == 1 - undecided
        assert dist.neutral == undecided


# --- count-vector sampler and its exact binomial draws ---


def _block_sampler(pfa, word, trials, seed):
    """The earlier per-trial sampler, kept as an oracle: each trial walks the
    word alone, a base-D digit per symbol picking a target by cumulative
    integer thresholds, in blocks of 4,096 trials with one generator each.
    Returns the (accept, reject, neutral) counts."""
    unit, rows = pfa._unit, pfa._weights
    halted = pfa.state_count
    tables = {}
    for sym in pfa.symbols:
        table = []
        for state in range(halted + 1):
            row = rows.get((state, sym), ((halted, unit),))
            thresholds = tuple(itertools.accumulate(weight for _, weight in row[:-1]))
            table.append((thresholds, tuple(target for target, _ in row)))
        tables[sym] = table
    counts = [0] * (halted + 1)
    for block, first in enumerate(range(0, trials, 4096)):
        draw = random.Random(f"{seed}:{block}").randrange
        for _ in range(min(4096, trials - first)):
            state = pfa.initial
            for sym in word:
                thresholds, targets = tables[sym][state]
                state = targets[bisect.bisect_right(thresholds, draw(unit))]
            counts[state] += 1
    accept = sum(counts[q] for q in pfa.states_with_role(ROLE_ACCEPTING))
    reject = sum(counts[q] for q in pfa.states_with_role(ROLE_REJECTING))
    return accept, reject, trials - accept - reject


def _bits(bits):
    """A getrandbits(k) that serves the next k bits of a fixed sequence and
    fails if asked for more than it holds."""
    pending = iter(bits)

    def getrandbits(k):
        drawn = [next(pending) for _ in range(k)]
        return sum(bit << i for i, bit in enumerate(drawn))

    return getrandbits


def _binomial_pmf(n, p):
    return {k: math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)}


def _chi_square(samples, pmf):
    """Pearson's statistic and degrees of freedom of sampled values against
    an exact pmf, outcomes merged in order until each bin expects >= 5. The
    tests accept a statistic up to df + 4 * sqrt(2 * df), four standard
    deviations of the chi-square law above its mean."""
    total = len(samples)
    counts = collections.Counter(samples)
    assert set(counts) <= set(pmf)
    bins, expected, observed = [], 0.0, 0
    for value in sorted(pmf):
        expected += float(pmf[value]) * total
        observed += counts[value]
        if expected >= 5:
            bins.append((observed, expected))
            expected, observed = 0.0, 0
    if expected or observed:
        last_observed, last_expected = bins.pop()
        bins.append((last_observed + observed, last_expected + expected))
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


def test_binomial_over_every_bit_sequence_is_exact():
    # For D = 8 the comparison ends within log2 D = 3 rounds of at most n
    # bits, so the 2^(3n) equally likely bit sequences give the exact law.
    for n in range(4):
        for a in range(9):
            counts = collections.Counter(
                probabilistic._binomial(_bits(bits), n, a, 8)
                for bits in itertools.product((0, 1), repeat=3 * n)
            )
            law = {k: Fraction(c, 2 ** (3 * n)) for k, c in counts.items()}
            exact = {k: p for k, p in _binomial_pmf(n, Fraction(a, 8)).items() if p}
            assert law == exact, (n, a)


def test_binomial_edge_cases_draw_nothing():
    refuse = _bits(())
    for n in (0, 1, 7, 10**6):
        assert probabilistic._binomial(refuse, n, 0, 9) == 0
        assert probabilistic._binomial(refuse, n, 9, 9) == n
    assert probabilistic._binomial(refuse, 0, 4, 9) == 0


def test_binomial_tracks_the_exact_pmf_off_powers_of_two():
    rng = random.Random("binomial-chi-square")
    for n, p in ((20, Fraction(3, 10)), (50, Fraction(7, 9))):
        samples = [
            probabilistic._binomial(rng.getrandbits, n, p.numerator, p.denominator)
            for _ in range(20_000)
        ]
        stat, df = _chi_square(samples, _binomial_pmf(n, p))
        assert stat <= df + 4 * math.sqrt(2 * df), (n, p, stat, df)


def test_multinomial_over_every_bit_sequence_is_exact():
    # Weights 4, 2, 1, 1 over 8: each binomial of the chain has a power-of-two
    # denominator (8, 4, 2), so 3 + 2 + 1 rounds of n bits decide it.
    row = ((5, 4), (6, 2), (7, 1), (8, 1))
    for n in range(3):
        law = collections.Counter()
        for bits in itertools.product((0, 1), repeat=6 * n):
            split = dict(probabilistic._multinomial(_bits(bits), n, row, 8))
            assert sum(split.values()) == n and all(split.values())
            law[tuple(split.get(target, 0) for target, _ in row)] += Fraction(1, 2 ** (6 * n))
        exact = {}
        for ks in itertools.product(range(n + 1), repeat=4):
            if sum(ks) == n:
                ways = math.factorial(n) // math.prod(map(math.factorial, ks))
                exact[ks] = ways * math.prod(Fraction(w, 8) ** k for (_, w), k in zip(row, ks))
        assert law == exact, n


def test_multinomial_marginals_track_their_binomials():
    rng = random.Random("multinomial-marginals")
    row = ((0, 2), (1, 3), (2, 5))
    draws = [dict(probabilistic._multinomial(rng.getrandbits, 40, row, 10)) for _ in range(5_000)]
    assert all(sum(split.values()) == 40 for split in draws)
    for target, weight in row:
        samples = [split.get(target, 0) for split in draws]
        stat, df = _chi_square(samples, _binomial_pmf(40, Fraction(weight, 10)))
        assert stat <= df + 4 * math.sqrt(2 * df), (target, stat, df)


def test_monte_carlo_conserves_trials():
    # Full rows into decisive states: every trial ends accepted or rejected.
    rng = random.Random("conserved")
    for _ in range(20):
        size = rng.randint(1, 4)
        rows = {(q, "a"): _random_row(rng, size, rng.randint(1, 12)) for q in range(size)}
        roles = {q: rng.choice((ROLE_ACCEPTING, ROLE_REJECTING)) for q in range(size)}
        pfa = OneWayPfa(size, ("a",), 0, rows, roles)
        for trials in (1, 17, 10**4):
            word = "a" * rng.randint(0, 30)
            assert monte_carlo(pfa, word, trials, rng.randrange(99)).neutral == 0
    pfa = _lcm_pfa()
    unit, rows = pfa._unit, pfa._weights
    for row in rows.values():
        for n in (0, 1, 3, 1000):
            split = probabilistic._multinomial(rng.getrandbits, n, row, unit)
            assert sum(k for _, k in split) == n


def test_monte_carlo_sends_a_missing_row_to_neutral():
    # State 1 accepts but has no row, so every trial that reaches it halts.
    pfa = OneWayPfa(
        3,
        ("a",),
        0,
        {(0, "a"): ((1, Fraction(1, 2)), (2, Fraction(1, 2))), (2, "a"): ((2, Fraction(1)),)},
        {0: ROLE_NEUTRAL, 1: ROLE_ACCEPTING, 2: ROLE_REJECTING},
    )
    assert monte_carlo(pfa, "a", 1000, 1).accept > 0
    for seed in range(5):
        dist = monte_carlo(pfa, "aa", 1000, seed)
        assert dist.accept == 0 and 0 < dist.neutral < 1
        assert dist.neutral + dist.reject == 1


def test_monte_carlo_never_reaches_a_zero_weight_target():
    # The segment sampler rejects no yes word and accepts no no word.
    pfa = trios_lasvegas_pfa(2, 1)
    for index, (word, cls) in enumerate(trios_problem(2, 1).enumerate_instances(7)):
        dist = monte_carlo(pfa, word, 10**5, index)
        assert (dist.reject if cls == "yes" else dist.accept) == 0, word
    # Outcomes of exact probability 0 or 1, zero-weight entries among the rows.
    for index, pfa in enumerate(_oracle_pfas()):
        for word in _words(sorted(pfa.symbols), 3):
            sampled = monte_carlo(pfa, word, 1000, index)
            parts = (sampled.accept, sampled.reject, sampled.neutral)
            for exact, got in zip(_oracle_dist(pfa, word), parts):
                if exact in (0, 1):
                    assert got == exact, (index, word)


def test_monte_carlo_matches_the_per_trial_sampler_in_distribution():
    # A two-sample chi-square over every (machine, word) case, pooled:
    # the count-vector sampler and the old per-trial one draw the same law.
    trials, stat, df = 2000, 0.0, 0
    for index, pfa in enumerate(_oracle_pfas()):
        for word in _words(sorted(pfa.symbols), 2):
            new = monte_carlo(pfa, word, trials, index)
            new = [int(part * trials) for part in (new.accept, new.reject, new.neutral)]
            old = _block_sampler(pfa, word, trials, index)
            used = [(a, b) for a, b in zip(new, old) if a + b]
            for a, b in used:
                expected = (a + b) / 2
                stat += (a - expected) ** 2 / expected + (b - expected) ** 2 / expected
            df += len(used) - 1
    assert df >= 60
    assert stat <= df + 4 * math.sqrt(2 * df), (stat, df)


def test_monte_carlo_with_a_huge_denominator():
    big = 10**9 + 7
    split = 123_456_789
    pfa = OneWayPfa(
        2,
        ("a",),
        0,
        {(0, "a"): ((0, Fraction(split, big)), (1, 1 - Fraction(split, big)))},
        {0: ROLE_ACCEPTING, 1: ROLE_REJECTING},
    )
    # One uniform that agrees with split/big for 60 bits and then has a 0
    # where split/big has its next 1 is below; a 1 where it has a 0, above.
    expansion, rest = [], split
    for _ in range(90):
        rest <<= 1
        expansion.append(int(rest >= big))
        rest -= big * expansion[-1]
    one, zero = expansion.index(1, 60), expansion.index(0, 60)
    assert probabilistic._binomial(_bits(expansion[:one] + [0]), 1, split, big) == 1
    assert probabilistic._binomial(_bits(expansion[:zero] + [1]), 1, split, big) == 0
    tracemalloc.start()
    try:
        sampled = monte_carlo(pfa, "aaa", 2000, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    exact = outcome_dist(pfa, "aaa")
    sigma = math.sqrt(float(exact.accept) * (1 - float(exact.accept)) / 2000)
    assert abs(float(sampled.accept) - float(exact.accept)) <= 4 * sigma


def test_monte_carlo_golden_values():
    assert monte_carlo(_coin(Fraction(9, 10)), "aa", 500, 3) == OutcomeDistribution(
        Fraction(411, 500), Fraction(89, 500), Fraction(0)
    )


def _counting_generators(monkeypatch):
    """Record each generator's seed and the size of each getrandbits call."""
    seeds, sizes = [], []

    class Counting(random.Random):
        def __init__(self, key):
            seeds.append(key)
            super().__init__(key)

        def getrandbits(self, k):
            sizes.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(probabilistic.random, "Random", Counting)
    return seeds, sizes


def test_monte_carlo_seeds_s_and_minus_s_differ(monkeypatch):
    seeds, _ = _counting_generators(monkeypatch)
    for seed in (5, -5):
        monte_carlo(_coin(), "a", 10**4, seed)
    assert seeds == ["5", "-5"]
    monkeypatch.undo()
    assert monte_carlo(_coin(), "aaaa", 500, 5) != monte_carlo(_coin(), "aaaa", 500, -5)


def test_monte_carlo_generator_calls_grow_with_log_trials(monkeypatch):
    # About log2(trials) + 2 rounds per binomial: a thousandfold more trials
    # costs a small factor more generator calls, never trials x |word| more.
    pfa, word = _coin(Fraction(9, 10)), "a" * 20
    calls = {}
    for trials in (10**3, 10**6):
        _, sizes = _counting_generators(monkeypatch)
        monte_carlo(pfa, word, trials, 7)
        calls[trials] = len(sizes)
        assert max(sizes) <= trials
    assert calls[10**6] <= 3 * calls[10**3], calls


def test_monte_carlo_tracks_halting_mass_within_four_sigma():
    pfa = OneWayPfa(
        3,
        ("a",),
        0,
        {
            (0, "a"): ((0, Fraction(1, 2)), (1, Fraction(1, 3)), (2, Fraction(1, 6))),
            (1, "a"): ((1, Fraction(1)),),
        },
        {0: ROLE_ACCEPTING, 1: ROLE_REJECTING, 2: ROLE_REJECTING},
    )
    exact = outcome_dist(pfa, "aa")
    assert exact == OutcomeDistribution(Fraction(1, 4), Fraction(7, 12), Fraction(1, 6))
    trials = 20_000
    sampled = monte_carlo(pfa, "aa", trials, 2024)
    for name in ("accept", "reject", "neutral"):
        p = float(getattr(exact, name))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(float(getattr(sampled, name)) - p) <= 4 * sigma


# --- zero-error verification ---


def test_lasvegas_success_solves_with_threshold():
    report = lasvegas_success(
        trios_lasvegas_pfa(2, 1), trios_problem(2, 1), 7, Fraction(1, 2)
    )
    assert report.verdict == SOLVES
    assert report.measured["min_success"] == Fraction(1, 2)


def _check_lasvegas_bound(n, r):
    bound = trios_success_bound(n, r)
    report = lasvegas_success(
        trios_lasvegas_pfa(n, r),
        trios_problem(n, r),
        r * (1 + 3 * n),
        bound,
    )
    assert report.verdict == SOLVES, (n, r)
    assert report.measured["min_success"] >= bound


def test_lasvegas_success_bound_is_met_for_all_small_cases():
    for n in (1, 2, 3):
        for r in (1, 2):
            _check_lasvegas_bound(n, r)
    for n in (1, 2):
        _check_lasvegas_bound(n, 3)


@pytest.mark.slow
def test_lasvegas_success_bound_largest_small_case():
    # Roughly 100k enumerated instances; a few seconds of exact arithmetic.
    _check_lasvegas_bound(3, 3)


def test_lasvegas_fails_when_threshold_too_high():
    report = lasvegas_success(
        trios_lasvegas_pfa(2, 1), trios_problem(2, 1), 7, Fraction(3, 4)
    )
    assert report.verdict == FAILS
    assert report.counterexample is not None


def test_lasvegas_rejects_wrong_answer_mass():
    # A machine that accepts everything cannot be zero-error on no-instances.
    always_accept = OneWayPfa(
        state_count=1,
        alphabet=("0", "1", "#"),
        initial=0,
        transitions={
            (0, "0"): ((0, Fraction(1)),),
            (0, "1"): ((0, Fraction(1)),),
            (0, "#"): ((0, Fraction(1)),),
        },
        roles={0: ROLE_ACCEPTING},
    )
    report = lasvegas_success(always_accept, trios_problem(1, 1), 4)
    assert report.verdict == FAILS
    word, cls, _ = report.counterexample
    assert cls == "no"


def test_lasvegas_never_answering_machine_fails():
    silent = OneWayPfa(
        state_count=1,
        alphabet=("0", "1", "#"),
        initial=0,
        transitions={
            (0, "0"): ((0, Fraction(1)),),
            (0, "1"): ((0, Fraction(1)),),
            (0, "#"): ((0, Fraction(1)),),
        },
        roles={0: ROLE_NEUTRAL},
    )
    report = lasvegas_success(silent, trios_problem(1, 1), 4)
    assert report.verdict == FAILS


def test_success_bound_formula():
    assert trios_success_bound(1, 1) == 1
    assert trios_success_bound(2, 1) == Fraction(1, 2)
    assert trios_success_bound(2, 3) == 1 - Fraction(1, 2) ** 3
    assert trios_success_bound(3, 2) == 1 - Fraction(2, 3) ** 2


def test_expected_rounds():
    assert expected_rounds(Fraction(1)) == 1
    assert expected_rounds(Fraction(1, 2)) == 2
    assert expected_rounds(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        expected_rounds(Fraction(0))
    with pytest.raises(ValueError):
        expected_rounds(Fraction(3, 2))


def test_restart_bound_decreases():
    values = [restart_bound(n) for n in range(1, 8)]
    assert all(b > 1 for b in values)
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("n", range(1, 7))
def test_restart_ceiling_is_decided_exactly(n):
    # The ceiling lies within 10^-55 of both values below (60 series terms),
    # so 10^-40 either side needs a wider enclosure than the first one.
    low, high = e_bounds(60)
    below = (high**n / (high**n - 1)) ** 2 - Fraction(1, 10**40)
    above = (low**n / (low**n - 1)) ** 2 + Fraction(1, 10**40)
    assert within_restart_bound(below, n) is True
    assert within_restart_bound(above, n) is False
    for rounds in (Fraction(1), Fraction(restart_bound(n)) * Fraction(99, 100), Fraction(3)):
        assert within_restart_bound(rounds, n) is (float(rounds) <= restart_bound(n))
    with pytest.raises(ValueError):
        within_restart_bound(Fraction(1), 0)


def test_restart_bound_dominates_observed_rounds():
    for n in (2, 3, 4):
        r = 3 * n
        rounds = expected_rounds(trios_success_bound(n, r))
        assert float(rounds) <= restart_bound(n) + 1e-9
        assert within_restart_bound(rounds, n)


# --- round composition ---


def test_round_model_validation():
    with pytest.raises(ValueError):
        RoundModel(2, 1, 1, Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        RoundModel(3, 0, 1, Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        RoundModel(3, 1, 1, Fraction(3, 2), 10)
    model = RoundModel(3, 1, 1, Fraction(1, 972), 1944)
    narrowed = model.with_reject(Fraction(1, 2916))
    assert narrowed.r == Fraction(1, 2916)
    with pytest.raises(ValueError):
        model.with_reject(Fraction(1))


def test_expeq_params_closed_form():
    model = expeq_params(3, 1, 1)
    assert model.a == Fraction(1, 972)
    assert model.t == 1944
    model = expeq_params(3, 1, 2)
    assert model.a == Fraction(1, 3 * 18**3)
    assert model.t == 3 * 18**3 * 2
    model = expeq_params(10, 1, 1)
    assert model.a == Fraction(1, 3 * 200**2)
    assert model.t == 3 * 200**2 * 3


def test_expeq_params_respects_bit_cap():
    with pytest.raises(ResourceCapError):
        expeq_params(100, 40, 40, max_bits=500)
    # The default cap admits every size the workbench targets.
    assert expeq_params(100, 40, 40).a > 0


def test_compose_identities():
    """The accept and reject shares keep their prior ratio, and the neutral
    share is the plain tail power."""
    model = expeq_params(3, 1, 1).with_reject(Fraction(1, 2916))
    dist = expeq_compose(model)
    q = 1 - model.a - model.r
    assert dist.neutral == q**model.t
    assert dist.accept / dist.reject == model.a / model.r
    assert dist.accept + dist.reject + dist.neutral == 1


def test_compose_with_no_signal_is_all_neutral():
    model = RoundModel(3, 1, 1, Fraction(0), 5, Fraction(0))
    dist = expeq_compose(model)
    assert dist.neutral == 1


def test_compose_digit_cap():
    model = expeq_params(10, 1, 1).with_reject(Fraction(1, 10**6))
    with pytest.raises(ResourceCapError):
        expeq_compose(model, digit_cap=1000)


def _plain_compose(model):
    """expeq_compose as plain Fraction arithmetic, with its default cap check."""
    a, r, t = model.a, model.r, model.t
    if a + r == 0:
        return Fraction(0), Fraction(0), Fraction(1)
    q = 1 - a - r
    digits = t * len(str(q.denominator))
    cap = probabilistic.DEFAULT_DIGIT_CAP
    if digits > cap:
        raise ResourceCapError(
            f"composition needs about {digits} digits, above the {cap}-digit cap"
        )
    tail = q**t
    return a * (1 - tail) / (a + r), r * (1 - tail) / (a + r), tail


def _terms(value):
    return value.numerator, value.denominator


@pytest.mark.parametrize("c", [3, 4, 5])
@pytest.mark.parametrize(("m", "n"), [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("side", ["a_over_c", "a_times_c", "zero", "a", "one_minus_a"])
def test_compose_equals_the_fraction_formula(c, m, n, side):
    # Between them the cases give every gcd expeq_compose takes a factor
    # above 1: the weight's with D^t (3, 4 and 5), the decided mass's with
    # w_d (5 at c = 4, 3 at c = 5), and neutral's w_d.
    base = expeq_params(c, m, n)
    r = {
        "a_over_c": base.a / c,
        "a_times_c": base.a * c,
        "zero": Fraction(0),
        "a": base.a,
        "one_minus_a": 1 - base.a,
    }
    model = base.with_reject(r[side])
    try:
        expected = _plain_compose(model)
    except ResourceCapError as cap:
        with pytest.raises(ResourceCapError) as raised:
            expeq_compose(model)
        assert str(raised.value) == str(cap)
        return
    dist = expeq_compose(model)
    got = (dist.accept, dist.reject, dist.neutral)
    assert [_terms(part) for part in got] == [_terms(part) for part in expected]
    assert all(type(part) is Fraction for part in got)


@pytest.mark.parametrize(
    ("a", "r"),
    [
        (Fraction(0), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2, 9), Fraction(4, 9)),
        (Fraction(6, 35), Fraction(10, 21)),
        (Fraction(0), Fraction(0)),
    ],
)
def test_compose_edges_equal_the_fraction_formula(a, r):
    for t in (1, 2, 7):
        dist = expeq_compose(RoundModel(3, 1, 1, a, t, r))
        expected = _plain_compose(RoundModel(3, 1, 1, a, t, r))
        assert [_terms(p) for p in (dist.accept, dist.reject, dist.neutral)] == [
            _terms(p) for p in expected
        ]


@pytest.mark.parametrize(
    ("accept", "reject", "scale"),
    [(-1, 1, 4), (1, -1, 4), (3, 2, 4), (5, 0, 4), (0, 5, 4), (0, 0, 0), (1, 0, -1)],
)
def test_outcome_numerators_outside_the_scale_are_refused(accept, reject, scale):
    with pytest.raises(ValueError, match="accept \\+ reject <= scale"):
        OutcomeDistribution._from_numerators(accept, reject, scale)


def test_outcome_numerators_reduce_like_fractions():
    for scale in range(1, 13):
        for accept in range(scale + 1):
            for reject in range(scale + 1 - accept):
                dist = OutcomeDistribution._from_numerators(accept, reject, scale)
                neutral = scale - accept - reject
                assert [_terms(p) for p in (dist.accept, dist.reject, dist.neutral)] == [
                    _terms(Fraction(x, scale)) for x in (accept, reject, neutral)
                ]
                assert dist == OutcomeDistribution(
                    Fraction(accept, scale), Fraction(reject, scale), Fraction(neutral, scale)
                )


def test_outcome_numerators_refuse_a_gcd_that_does_not_divide():
    with pytest.raises(ValueError, match="does not divide"):
        OutcomeDistribution._from_numerators(2, 1, 6, gcds=(2, 3, 3))
    dist = OutcomeDistribution._from_numerators(2, 1, 6, gcds=(2, 1, 3))
    assert (dist.accept, dist.reject, dist.neutral) == (
        Fraction(1, 3),
        Fraction(1, 6),
        Fraction(1, 2),
    )


@pytest.mark.parametrize("c", [3, 4, 5])
def test_certified_tail_bound_all_small_cases(c):
    """After t rounds the undecided probability is certified below 1/c."""
    for m, n in [(1, 1), (1, 2), (2, 1)]:
        model = expeq_params(c, m, n).with_reject(expeq_params(c, m, n).a)
        assert expeq_tail_below(model, Fraction(1, c)), (c, m, n)


def test_certified_tail_cross_checked_exactly():
    """Where exact composition is affordable, the certified comparison and
    the exact rational agree."""
    cases = [(3, 1, 1), (3, 1, 2), (4, 1, 1), (5, 1, 1)]
    for c, m, n in cases:
        model = expeq_params(c, m, n)
        model = model.with_reject(model.a)
        assert expeq_tail_below(model, Fraction(1, c))
        dist = expeq_compose(model)
        assert dist.neutral < Fraction(1, c), (c, m, n)


def test_decisive_bounds_on_skewed_models():
    model = expeq_params(3, 1, 1)
    yes = model.with_reject(model.a / 3)
    no = model.with_reject(model.a * 3)
    cut = 1 - Fraction(2, 3 + 1)
    assert expeq_decisive_above(yes, "accept", cut)
    assert expeq_decisive_above(no, "reject", cut)
    assert not expeq_decisive_above(yes, "reject", cut)
    assert not expeq_decisive_above(no, "accept", cut)
    # Exact cross-check at the affordable size.
    for m, which in ((yes, "accept"), (no, "reject")):
        dist = expeq_compose(m)
        assert getattr(dist, which) > cut


def test_expeq_problem_parses_block_words():
    problem = expeq_problem(3)
    model = expeq_params(3, 1, 1)
    block = "ab"
    yes_word = block * model.t
    assert problem.yes_member(yes_word)
    assert not problem.no_member(yes_word)
    uneven = expeq_params(3, 1, 2)
    no_word = "abb" * uneven.t
    assert problem.no_member(no_word)
    assert not problem.yes_member(no_word)


def test_expeq_problem_rejects_wrong_round_count():
    problem = expeq_problem(3)
    assert not problem.yes_member("ab" * 7)
    assert not problem.no_member("ab")
    assert not problem.yes_member("")


def test_expeq_problem_enumerates_smallest_instances():
    problem = expeq_problem(3)
    model = expeq_params(3, 1, 1)
    instances = problem.enumerate_instances(2 * model.t)
    assert (("a" + "b") * model.t, "yes") in instances


# --- properties ---


@given(
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
    st.integers(min_value=0, max_value=25),
)
@settings(deadline=None, max_examples=80)
def test_geometric_decay_property(p, j):
    assert accept_prob(up_pfa(p), "a" * j) == p**j


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=30))
@settings(deadline=None, max_examples=80)
def test_success_bound_monotone_in_rounds(n, r):
    assert trios_success_bound(n, r + 1) >= trios_success_bound(n, r)
    assert 0 < trios_success_bound(n, r) <= 1
