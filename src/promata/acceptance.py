"""The package's acceptance gate: eleven reproducible checks.

Each criterion is registered once, with its number and title, by
_criterion, which runs its checks and builds its structured result, so the
test suite and the command line share one registry. Checks that need random
machines use fixed seeds; checks that need big-number comparisons use the
exact or certified engines, never floats at a decision boundary (floats
appear only where a tolerance is part of the check itself).
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .boundslab import (
    KIND_DFA,
    KIND_UNARY_DFA,
    KIND_UNARY_NFA,
    SearchSpec,
    min_dfa_size,
    min_unary_dfa_size,
    min_unary_nfa_size,
    pumping_check,
)
from .constructions import (
    critical_lengths,
    evenodd_afa_epsfree,
    evenodd_afa_rt,
    evenodd_dfa,
    evenodd_problem,
    trios_dfa,
    trios_lasvegas_pfa,
    trios_problem,
    up_dfa,
    up_pfa,
    up_problem,
)
from .conversions import (
    _floor_cbrt,
    bound_2nfa_to_dfa,
    bound_afa_to_dfa,
    bound_svfa_to_dfa,
    dfa_equivalent,
    dfa_minimize,
    unary_afa_to_dfa,
)
from .machines import (
    SOLVES,
    OneWayDfa,
    OneWayNfa,
    _afa_stepper,
    _dfa_block,
    _resumed_outcomes,
    _unary_outcomes,
    front_coded,
    promise_check,
)
from .probabilistic import (
    _pfa_stepper,
    accept_prob,
    expected_rounds,
    expeq_compose,
    expeq_decisive_above,
    expeq_params,
    expeq_tail_below,
    lasvegas_success,
    monte_carlo,
    outcome_dist,
    trios_success_bound,
    within_restart_bound,
)

TIER_FAST = "fast"
TIER_SLOW = "slow"


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)
    deviations: list[str] = field(default_factory=list)

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f" ({'; '.join(self.deviations)})" if self.deviations else ""
        return f"criterion {self.number}: {status} - {self.title}{note}"


class _Checks:
    """Collects named boolean checks and the first failures' names, plus
    the notes and deviations a criterion reports beside them."""

    def __init__(self) -> None:
        self.failed: list[str] = []
        self.count = 0
        self.notes: list[str] = []
        self.deviations: list[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.count += 1
        if not ok:
            self.failed.append(name)

    @property
    def passed(self) -> bool:
        return not self.failed

    def details(self) -> list[str]:
        lines = [f"{self.count} checks"]
        lines.extend(f"failed: {name}" for name in self.failed[:8])
        lines.extend(self.notes)
        return lines


CRITERIA: dict[int, Callable[[str], CriterionResult]] = {}


def _criterion(number: int, title: str):
    """Register the decorated body as criterion `number` in CRITERIA.

    The body takes a fresh _Checks and the tier, and records its checks,
    notes and deviations on it; the registered function takes the tier
    alone and builds the CriterionResult from them.
    """

    def register(body: Callable[[_Checks, str], None]) -> Callable[[str], CriterionResult]:
        @functools.wraps(body)
        def run(tier: str = TIER_FAST) -> CriterionResult:
            checks = _Checks()
            body(checks, tier)
            return CriterionResult(
                number, title, checks.passed, checks.details(), checks.deviations
            )

        CRITERIA[number] = run
        return run

    return register


@_criterion(1, "construction state counts")
def criterion_1(checks: _Checks, tier: str) -> None:
    """Exact state-count formulas of every sized construction."""
    for k in range(1, 9):
        checks.expect(f"rt({k}) count", evenodd_afa_rt(k).state_count == 7 * k + 2)
        checks.expect(f"counter({k}) count", evenodd_dfa(k).state_count == 2 ** (k + 1))
    for k in range(3, 9):
        checks.expect(
            f"epsfree({k}) count", evenodd_afa_epsfree(k).state_count == 11 * k - 14
        )
    for n in range(1, 9):
        checks.expect(
            f"triossampler({n}) count",
            trios_lasvegas_pfa(n, 2).state_count == 4 * n + 3,
        )
    for p, expected in ((Fraction(1, 2), 1), (Fraction(9, 10), 3)):
        machine = up_dfa(p)
        a_len, _ = critical_lengths(p)
        checks.expect(f"chain({p}) count", machine.state_count == expected == a_len + 1)


@_criterion(2, "divisibility machines solve their problems")
def criterion_2(checks: _Checks, tier: str) -> None:
    """The alternating machines solve their divisibility problems."""
    for k in range(1, 6):
        machine = evenodd_afa_rt(k)
        horizon = 2 ** (k + 3)
        report = promise_check(machine, evenodd_problem(k), horizon)
        checks.expect(f"rt({k}) solves", report.verdict == SOLVES)
        # a^0..a^horizon read off one orbit of the machine's valuations.
        period = 2 ** (k + 1)
        powers = front_coded(("a" * n, "yes") for n in range(horizon + 1))
        runs = _unary_outcomes(_afa_stepper(machine), "a", powers)
        agree = all(accepted == (n % period == 0) for n, _, accepted in runs)
        checks.expect(f"rt({k}) divisibility cross-check", agree)
    for k in range(1, 6):
        kk = max(k, 3)
        report = promise_check(
            evenodd_afa_epsfree(kk), evenodd_problem(kk), 2 ** (kk + 3)
        )
        checks.expect(f"epsfree({kk}) solves", report.verdict == SOLVES)
    checks.deviations.append(
        "the padded machine is checked against the problem of its own order; "
        "orders below 3 clamp machine and problem together"
    )


@_criterion(3, "minimal unary sizes and pumping")
def criterion_3(checks: _Checks, tier: str) -> None:
    """Minimal unary machine sizes, plus the block-pumping property."""
    search_ks = [1, 2] + ([3] if tier == TIER_SLOW else [])
    for k in search_ks:
        spec = SearchSpec(KIND_UNARY_DFA, 18, evenodd_problem(k), 2 ** (k + 4))
        result = min_unary_dfa_size(spec)
        checks.expect(f"unary dfa minimum k={k}", result.size == 2 ** (k + 1))
    nfa_spec = SearchSpec(KIND_UNARY_NFA, 4, evenodd_problem(1), 24)
    checks.expect("unary nfa minimum k=1", min_unary_nfa_size(nfa_spec).size == 4)

    rng = random.Random(90321)
    dfa_ok = 0
    for _ in range(200):
        machine = _random_dfa(rng, ("a",), 0.85)
        report = pumping_check(machine, machine.state_count, (1, 2))
        dfa_ok += report.verdict == SOLVES
    checks.expect("pumping on 200 deterministic machines", dfa_ok == 200)
    rng = random.Random(77145)
    nfa_ok = 0
    for _ in range(200):
        machine = _random_unary_nfa(rng)
        report = pumping_check(machine, 6, (1,))
        nfa_ok += report.verdict == SOLVES
    checks.expect("pumping on 200 nondeterministic machines", nfa_ok == 200)
    checks.notes += [f"tier={tier}", f"search orders: {search_ks}"]


@_criterion(4, "determinization reproduces the counter")
def criterion_4(checks: _Checks, tier: str) -> None:
    """Valuation-vector determinization reproduces the canonical counter."""
    for k in (1, 2):
        source = evenodd_afa_rt(k)
        big = unary_afa_to_dfa(source)
        small = dfa_minimize(big)
        checks.expect(f"minimized count k={k}", small.state_count == 2 ** (k + 1))
        checks.expect(f"equivalent k={k}", dfa_equivalent(small, evenodd_dfa(k)))
        checks.expect(
            f"vector count cap k={k}", big.state_count <= 2 ** source.state_count
        )


def _chain_holds(n: int) -> bool:
    """Whether 1 + 3^((n-1)/3) <= 2^(529n/1000), decided in integers.

    With c the floor cube root of 3^(n-1) * 2^(3s), the value x lies in
    [lo, hi] / 2^s for lo = 2^s + c and hi = lo + 1 (hi = lo when the root
    is exact). The bit length b of an integer y^k brackets k log2 y in
    (b - 1, b], so comparing 1000 b with k (1000 s + 529 n) decides the
    chain when hi's power lies below 2^(529n/1000) or lo's above it;
    otherwise s and k double. Equality would loop; it occurs at no n this
    criterion asks about.
    """
    s, k = 8, 64
    while True:
        scaled = 3 ** (n - 1) << 3 * s
        c = _floor_cbrt(scaled)
        lo = (1 << s) + c
        hi = lo + (c**3 != scaled)
        budget = k * (1000 * s + 529 * n)
        if 1000 * (hi**k).bit_length() <= budget:
            return True
        if 1000 * ((lo**k).bit_length() - 1) > budget:
            return False
        s, k = 2 * s, 2 * k


@_criterion(5, "trade-off formulas")
def criterion_5(checks: _Checks, tier: str) -> None:
    """Closed-form trade-off values and their stated ceilings."""
    checks.expect("double sum at 1", bound_2nfa_to_dfa(1).value == 1)
    checks.expect("double sum at 2", bound_2nfa_to_dfa(2).value == 7)
    for n in range(1, 13):
        value = bound_2nfa_to_dfa(n).value
        checks.expect(f"double sum cap n={n}", value <= 2 ** (n * n + n))
    checks.expect("alternation blowup at 1", bound_afa_to_dfa(1).value == 4)
    checks.expect("alternation blowup at 2", bound_afa_to_dfa(2).value == 256)
    checks.expect("self-verifying at 4", bound_svfa_to_dfa(4).value == 4)
    checks.expect("self-verifying at 7", bound_svfa_to_dfa(7).value == 10)
    for n in range(4, 31):
        checks.expect(f"exponent chain n={n}", _chain_holds(n))
    for n in (1, 2, 3):
        checks.expect(f"exponent chain pinned false n={n}", not _chain_holds(n))
    checks.deviations.append(
        "the 0.529-exponent ceiling is asserted for sizes 4..30 and pinned as "
        "false at sizes 1..3, where the stated chain does not hold"
    )


@_criterion(6, "zero-error segment machines meet the bound")
def criterion_6(checks: _Checks, tier: str) -> None:
    """Zero-error segment machines meet the exact success bound."""
    instances_seen = 0
    for n in (1, 2, 3):
        for r in (1, 2):
            problem = trios_problem(n, r)
            machine = trios_lasvegas_pfa(n, r)
            bound = trios_success_bound(n, r)
            horizon = r * (1 + 3 * n)
            report = lasvegas_success(machine, problem, horizon, bound)
            checks.expect(f"zero error n={n} r={r}", report.verdict == SOLVES)
            instances_seen += report.measured.get("instances", 0)
    checks.notes.append(f"instances checked: {instances_seen}")


@_criterion(7, "three-state exhaustion for segments")
def criterion_7(checks: _Checks, tier: str) -> None:
    """No three-state machine solves the width-2 segment problem."""
    problem = trios_problem(2, 1)
    spec = SearchSpec(KIND_DFA, 3, problem, 7)
    result = min_dfa_size(spec)
    checks.expect("no solver with three states", result.size is None)
    built = trios_dfa(2, 1)
    checks.expect("built machine is big enough", built.state_count >= 4)
    report = promise_check(built, problem, 7)
    checks.expect("built machine solves", report.verdict == SOLVES)
    checks.notes += [
        f"search nodes: {result.candidates_checked}",
        f"fooling set: {' '.join(result.fooling_set)}",
    ]


@_criterion(8, "stochastic chain analysis")
def criterion_8(checks: _Checks, tier: str) -> None:
    """Analysis of the two-state stochastic chain and its deterministic twin."""
    powers = list(front_coded(("a" * j, "yes") for j in range(41)))
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        machine = up_pfa(p)
        # One fold over a^0..a^40: each length resumes from the one before.
        runs = _resumed_outcomes(_pfa_stepper(machine), powers)
        ok = all(dist.accept == p**j for j, _, dist in runs)
        checks.expect(f"geometric acceptance p={p}", ok)
    checks.expect("critical pair 1/2", critical_lengths(Fraction(1, 2)) == (0, 2))
    checks.expect("critical pair 9/10", critical_lengths(Fraction(9, 10)) == (2, 14))
    for p in (Fraction(1, 2), Fraction(3, 5), Fraction(9, 10)):
        a_len, r_len = critical_lengths(p)
        problem = up_problem(p)
        report = promise_check(up_dfa(p), problem, r_len + 5)
        checks.expect(f"chain solves p={p}", report.verdict == SOLVES)
        spec = SearchSpec(KIND_UNARY_DFA, 18, problem, r_len + a_len + 2)
        checks.expect(f"chain minimal p={p}", min_unary_dfa_size(spec).size == a_len + 1)


@_criterion(9, "round composition bounds and traversal pumping")
def criterion_9(checks: _Checks, tier: str) -> None:
    """Round-composition bounds, certified at any size, plus traversal pumping."""
    checks.deviations.append(
        "astronomical round counts are decided by certified directed-rounding "
        "interval comparison; the composition is cross-checked in exact "
        "rationals wherever the tail stays under the digit cap"
    )
    for c in (3, 10, 100):
        third = Fraction(1, c)
        decisive = 1 - Fraction(2, c + 1)
        for m, n in ((1, 1), (1, 2), (2, 1)):
            base = expeq_params(c, m, n)
            yes_model = base.with_reject(base.a / c)
            no_model = base.with_reject(base.a * c)
            checks.expect(
                f"tail below 1/c c={c} m={m} n={n}", expeq_tail_below(yes_model, third)
            )
            checks.expect(
                f"accept mass c={c} m={m} n={n}",
                expeq_decisive_above(yes_model, "accept", decisive),
            )
            checks.expect(
                f"reject mass c={c} m={m} n={n}",
                expeq_decisive_above(no_model, "reject", decisive),
            )
            if c == 3:
                dist = expeq_compose(yes_model)
                checks.expect(
                    f"exact cross-check c=3 m={m} n={n}",
                    dist.neutral < third and dist.accept > decisive,
                )
    rng = random.Random(55901)
    triple_ok = 0
    for _ in range(200):
        machine = _random_dfa(rng, ("a", "b"), 0.9)
        if _triples_agree(machine):
            triple_ok += 1
    checks.expect("block-structured pumping triples", triple_ok == 200)


@_criterion(10, "sampled frequencies track exact probabilities")
def criterion_10(checks: _Checks, tier: str) -> None:
    """Sampled frequencies track exact probabilities within four sigmas."""
    trials = 10**5
    pairs = []
    for j in (0, 1, 2, 3, 5):
        pairs.append((up_pfa(Fraction(1, 2)), "a" * j, f"half chain a^{j}"))
        pairs.append((up_pfa(Fraction(9, 10)), "a" * j, f"nine-tenths chain a^{j}"))
    machine = trios_lasvegas_pfa(2, 1)
    words = [word for word, _ in trios_problem(2, 1).enumerate_instances(7)]
    for word in words[:5] + words[7:12]:
        pairs.append((machine, word, f"segment sampler {word}"))
    for index, (pfa, word, name) in enumerate(pairs):
        exact = accept_prob(pfa, word)
        sampled = monte_carlo(pfa, word, trials, seed=4200 + index)
        within = (sampled.accept - exact) ** 2 <= 16 * exact * (1 - exact) / trials
        checks.expect(f"{name} within 4 sigma", within)
    checks.notes.append(f"pairs: {len(pairs)}, trials each: {trials}")


@_criterion(11, "restart-round accounting")
def criterion_11(checks: _Checks, tier: str) -> None:
    """Restart-round accounting, exact and against the closed-form ceiling."""
    checks.expect("one round at certainty", expected_rounds(Fraction(1)) == 1)
    checks.expect("two rounds at a half", expected_rounds(Fraction(1, 2)) == 2)
    sigma = trios_success_bound(3, 9)
    rounds = expected_rounds(sigma)
    checks.expect("reciprocal form", rounds == 1 / sigma)
    checks.expect(
        "under the closed-form ceiling", within_restart_bound(rounds, 3)
    )
    checks.notes.append(f"rounds = {rounds} ~ {float(rounds):.6f}")


def _random_dfa(rng: random.Random, alphabet: tuple[str, ...], density: float) -> OneWayDfa:
    """A DFA of 1-8 states in which each move is defined with probability density."""
    size = rng.randint(1, 8)
    transitions = {}
    for q in range(size):
        for sym in alphabet:
            if rng.random() < density:
                transitions[(q, sym)] = rng.randrange(size)
    accepting = frozenset(q for q in range(size) if rng.random() < 0.5)
    return OneWayDfa(
        state_count=size,
        alphabet=alphabet,
        initial=rng.randrange(size),
        transitions=transitions,
        accepting=accepting,
    )


def _random_unary_nfa(rng: random.Random) -> OneWayNfa:
    size = rng.randint(1, 5)
    transitions = frozenset(
        (q, "a", p) for q in range(size) for p in range(size) if rng.random() < 0.5
    )
    accepting = frozenset(q for q in range(size) if rng.random() < 0.5)
    return OneWayNfa(
        state_count=size,
        alphabet=("a",),
        initial=rng.randrange(size),
        transitions=transitions,
        accepting=accepting,
    )


def _block_word_outcome(dfa: OneWayDfa, a_len: int, b_len: int, reps: int):
    """Outcome of running (a^a_len b^b_len)^reps: end state, or the first
    stuck point normalized to (repetition, letter, depth). A run that
    survives state_count steps inside one block has entered a cycle and can
    never stick, so stuck depths are always below the block length and
    comparable across pumped variants."""
    state = dfa.initial
    for rep in range(reps):
        for sym, length in (("a", a_len), ("b", b_len)):
            state, depth = _dfa_block(dfa, state, sym, length)
            if state is None:
                return ("stuck", rep, sym, depth)
    return ("state", state)


def _triples_agree(machine: OneWayDfa) -> bool:
    """End-of-word agreement across the three pumped block words."""
    n = machine.state_count
    pump = 1
    for i in range(2, n + 1):
        pump *= i
    for reps in (1, 2, 3):
        plain = _block_word_outcome(machine, n, n, reps)
        both = _block_word_outcome(machine, n + pump, n + pump, reps)
        tail = _block_word_outcome(machine, n, n + 2 * pump, reps)
        if not plain == both == tail:
            return False
    return True


def run_criterion(number: int, tier: str = TIER_FAST) -> CriterionResult:
    if tier not in (TIER_FAST, TIER_SLOW):
        raise ValueError("tier must be 'fast' or 'slow'")
    if number not in CRITERIA:
        raise ValueError(f"no criterion {number}")
    return CRITERIA[number](tier)


def run_all(tier: str = TIER_FAST) -> list[CriterionResult]:
    return [run_criterion(number, tier) for number in sorted(CRITERIA)]
