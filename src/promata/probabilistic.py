"""Exact probabilistic semantics, sampling cross-checks, and round models."""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceCapError
from .exactmath import ceil_ln, e_bounds, pow_less_than
from .machines import (
    FAILS,
    ROLE_ACCEPTING,
    ROLE_REJECTING,
    SOLVES,
    OneWayPfa,
    PromiseProblem,
    Stepper,
    VerificationReport,
    _fold,
    _instances_for,
    _require_symbols,
    _resumed_outcomes,
    _word_at,
)

DEFAULT_DIGIT_CAP = 500_000  # digits of the tail power expeq_compose may build


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact probability split of one run: accept, reject, and neither."""

    accept: Fraction
    reject: Fraction
    neutral: Fraction

    def __post_init__(self) -> None:
        for name in ("accept", "reject", "neutral"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
            value = getattr(self, name)
            if value < 0 or value > 1:
                raise ValueError(f"{name} probability {value} outside [0, 1]")
        if self.accept + self.reject + self.neutral != 1:
            raise ValueError("outcome probabilities must sum to exactly 1")

    @classmethod
    def _from_numerators(
        cls, accept: int, reject: int, scale: int, gcds: tuple[int, int, int] | None = None
    ) -> OutcomeDistribution:
        """accept/scale, reject/scale and the rest, neutral, from integers.

        0 <= accept, 0 <= reject and accept + reject <= scale is
        __post_init__'s check in integers: every part lies in [0, 1] and the
        three sum to exactly one, with no Fraction added. Each part is
        reduced by its numerator's gcd with scale; a caller that knows the
        three gcds (accept, reject, neutral) from small numbers passes them,
        so no gcd between two big integers is taken.
        """
        neutral = scale - accept - reject
        if scale < 1 or accept < 0 or reject < 0 or neutral < 0:
            raise ValueError("need 0 <= accept, 0 <= reject and accept + reject <= scale")
        if gcds is None:
            gcds = (math.gcd(accept, scale), math.gcd(reject, scale), math.gcd(neutral, scale))
        dist = object.__new__(cls)
        for name, numerator, common in zip(
            ("accept", "reject", "neutral"), (accept, reject, neutral), gcds
        ):
            numerator, left = divmod(numerator, common)
            denominator, right = divmod(scale, common)
            if left or right:
                raise ValueError(f"{common} does not divide a numerator and the scale")
            part = object.__new__(Fraction)  # in lowest terms: skip Fraction()'s gcd
            part._numerator, part._denominator = numerator, denominator
            object.__setattr__(dist, name, part)
        return dist


def _pfa_stepper(pfa: OneWayPfa) -> Stepper:
    """The value is (masses, scale): the state still running holds exact
    mass masses[state] / scale, with scale = D^j after j symbols for the
    common denominator D the machine keeps as _unit, with its integer rows
    as _weights. A step multiplies and adds plain ints, and the fractions
    are reduced only in outcome. Mass reaching a (state, symbol) with no
    row halts and leaves the distribution."""
    unit, rows = pfa._unit, pfa._weights  # type: ignore[attr-defined]
    roles = pfa.roles

    def step(value: tuple[dict[int, int], int], sym: str) -> tuple[dict[int, int], int]:
        masses, scale = value
        nxt: dict[int, int] = {}
        for state, mass in masses.items():
            row = rows.get((state, sym))
            if row is None:
                continue
            for target, weight in row:
                nxt[target] = nxt.get(target, 0) + mass * weight
        return nxt, scale * unit

    def outcome(value: tuple[dict[int, int], int]) -> OutcomeDistribution:
        masses, scale = value
        accept = reject = 0
        for state, mass in masses.items():
            role = roles[state]
            if role == ROLE_ACCEPTING:
                accept += mass
            elif role == ROLE_REJECTING:
                reject += mass
        return OutcomeDistribution._from_numerators(accept, reject, scale)

    return Stepper(({pfa.initial: 1}, 1), step, outcome)


def outcome_dist(pfa: OneWayPfa, word: str) -> OutcomeDistribution:
    """Exact forward propagation of the state distribution.

    A decision requires reading the entire input: mass that halts early, for
    lack of a transition row, counts as neutral no matter which state it
    stopped in, alongside mass ending in neutral-role states. Mass is kept
    as integer numerators over D^j (see _pfa_stepper), so the answer is
    reduced to lowest terms once, not after every product and sum.
    """
    _require_symbols(word, pfa.symbols)
    return _fold(_pfa_stepper(pfa), word)


def accept_prob(pfa: OneWayPfa, word: str) -> Fraction:
    """Probability that a run reads the whole word into an accepting state."""
    return outcome_dist(pfa, word).accept


def _binomial(getrandbits: Callable[[int], int], n: int, a: int, d: int) -> int:
    """An exact draw of Bin(n, a/d), for 0 <= a <= d, with no floats.

    It counts how many of n uniforms in [0, 1) fall below a/d, comparing
    them with a/d's binary expansion one bit at a time, as a group. Of the
    n uniforms still tied, getrandbits(n).bit_count() have a 1 at this bit.
    If a/d has a 1 there, the others have a 0 and fall below, and those with
    a 1 stay tied; if a/d has a 0, those with a 1 are above and the others
    stay tied. Integer doubling gives the bits of a/d, and the draw stops
    when nothing is tied or the rest of the expansion is zero (a tie then
    means at or above a/d). This is the lazy comparison behind Knuth and
    Yao's DDG trees; it takes about log2(n) + 2 rounds on average.
    """
    if a >= d:
        return n
    below = 0
    while n and a:
        a <<= 1
        ones = getrandbits(n).bit_count()
        if a >= d:
            a -= d
            below += n - ones
            n = ones
        else:
            n -= ones
    return below


def _multinomial(
    getrandbits: Callable[[int], int], n: int, row: tuple[tuple[int, int], ...], left: int
) -> Iterator[tuple[int, int]]:
    """Yield (target, count) for an exact multinomial split of n trials over
    a row of a machine's _weights, whose weights sum to left; targets that
    draw no trial are skipped. It is a chain of binomials: each target takes
    Bin(trials left, its weight / the weight left), and the last takes what
    remains."""
    for target, weight in row[:-1]:
        if not n:
            return
        taken = _binomial(getrandbits, n, weight, left)
        if taken:
            yield target, taken
            n -= taken
        left -= weight
    if n:
        yield row[-1][0], n


def monte_carlo(
    pfa: OneWayPfa, word: str, trials: int, seed: int
) -> OutcomeDistribution:
    """Sampled outcome frequencies over independent trials, drawn exactly.

    The trials are independent runs of one Markov chain, so the sampler
    keeps how many trials sit in each state and advances that count vector
    one symbol at a time. The trials in state q split among the targets of
    q's row as one exact multinomial draw over the row's integer weights
    (the machine's _weights over D, see _multinomial), so the final counts
    have exactly the law of running each trial alone. Trials that meet a
    missing row halt and count as neutral. One generator
    random.Random(str(seed)) serves the whole call, so the result is a pure
    function of (machine, word, trials, seed) and differs for seeds s and
    -s. The cost is about |word| x occupied states x row length x
    (log2(trials) + 2) generator calls; a call for n tied trials builds an
    n-bit integer. Frequencies come back as exact counts over trials.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _require_symbols(word, pfa.symbols)
    unit, rows = pfa._unit, pfa._weights  # type: ignore[attr-defined]
    getrandbits = random.Random(str(seed)).getrandbits
    counts = {pfa.initial: trials}
    for sym in word:
        nxt: dict[int, int] = {}
        for state, n in counts.items():
            row = rows.get((state, sym))
            if row is not None:
                for target, taken in _multinomial(getrandbits, n, row, unit):
                    nxt[target] = nxt.get(target, 0) + taken
        counts = nxt
    return _pfa_stepper(pfa).outcome((counts, trials))


def trios_success_bound(n: int, r: int) -> Fraction:
    """Guaranteed per-word decision probability 1 - ((n-1)/n)^r."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be at least 1")
    return 1 - Fraction(n - 1, n) ** r


def lasvegas_success(
    pfa: OneWayPfa,
    problem: PromiseProblem,
    max_length: int,
    threshold: Fraction = Fraction(0),
) -> VerificationReport:
    """Check zero-error behavior with decision probability >= threshold.

    On every yes instance the machine must have reject probability exactly 0
    and accept probability at least the threshold (and above zero even when
    the threshold is 0, so a machine that never answers does not pass);
    symmetrically for no instances. measured carries the smallest decisive
    probability seen. Each instance's distribution is propagated on from
    the previous instance's after the symbols the problem's front-coded
    enumeration keeps.
    """
    threshold = Fraction(threshold)
    coded = _instances_for(pfa, problem, max_length)
    measured: dict[str, object] = {"instances": len(coded), "threshold": threshold}
    min_success: Fraction | None = None
    runs = _resumed_outcomes(_pfa_stepper(pfa), pfa.symbols, coded)
    for index, cls, dist in runs:
        good, bad = (
            (dist.accept, dist.reject) if cls == "yes" else (dist.reject, dist.accept)
        )
        if bad != 0 or good < threshold or good == 0:
            word = _word_at(coded, index)
            return VerificationReport(
                FAILS,
                counterexample=(word, cls, f"accept={dist.accept} reject={dist.reject}"),
                measured=measured,
            )
        min_success = good if min_success is None else min(min_success, good)
    if min_success is not None:
        measured["min_success"] = min_success
    return VerificationReport(SOLVES, measured=measured)


def expected_rounds(success: Fraction) -> Fraction:
    """Mean number of reruns until a zero-error machine answers: 1/success."""
    success = Fraction(success)
    if not 0 < success <= 1:
        raise ValueError("success probability must be in (0, 1]")
    return 1 / success


def restart_bound(n: int) -> float:
    """Closed-form ceiling (1 + 1/(e^n - 1))^2 on expected restart rounds."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (1 + 1 / (math.exp(n) - 1)) ** 2


def within_restart_bound(rounds: Fraction, n: int) -> bool:
    """Certified rounds <= (e^n / (e^n - 1))^2, the ceiling restart_bound
    shows as a float, decided with no float.

    The ceiling falls as e grows, so e_bounds' upper bound on e gives a
    value at or below it and the lower bound one at or above it; the
    enclosure widens until rounds falls on one side. The ceiling is
    irrational (e^n is transcendental), so the loop always ends.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rounds = Fraction(rounds)
    terms = 20
    while True:
        low, high = e_bounds(terms)
        if rounds <= (high**n / (high**n - 1)) ** 2:
            return True
        if rounds > (low**n / (low**n - 1)) ** 2:
            return False
        terms *= 2


@dataclass(frozen=True)
class RoundModel:
    """One round of a repeated three-way experiment.

    A single round accepts with probability a, rejects with probability r,
    and stays undecided otherwise; t rounds run back to back. r is left
    free until instantiated, since the analysis constrains it relative to a
    rather than fixing it.
    """

    c: int
    m: int
    n: int
    a: Fraction
    t: int
    r: Fraction | None = None

    def __post_init__(self) -> None:
        if self.c < 3:
            raise ValueError("c must be at least 3")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be at least 1")
        if self.t < 1:
            raise ValueError("t must be at least 1")
        if not 0 <= self.a <= 1:
            raise ValueError("a must lie in [0, 1]")
        if self.r is not None:
            object.__setattr__(self, "r", Fraction(self.r))
            if self.r < 0 or self.a + self.r > 1:
                raise ValueError("need r >= 0 and a + r <= 1")

    def with_reject(self, r: Fraction) -> "RoundModel":
        return RoundModel(self.c, self.m, self.n, self.a, self.t, Fraction(r))


def expeq_params(c: int, m: int, n: int, max_bits: int = 10**6) -> RoundModel:
    """Round acceptance weight and round count for block exponents m, n.

    a = 1/(3 * (2c^2)^(m+n)) and t = 3 * (2c^2)^(m+n) * ceil(ln c), with the
    log ceiling decided exactly. The power's size is capped by max_bits.
    """
    if c < 3:
        raise ValueError("c must be at least 3")
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    base = 2 * c * c
    if (m + n) * base.bit_length() > max_bits:
        raise ResourceCapError(f"(2c^2)^(m+n) exceeds the {max_bits}-bit cap")
    scale = 3 * base ** (m + n)
    return RoundModel(c=c, m=m, n=n, a=Fraction(1, scale), t=scale * ceil_ln(c))


def _tail_probability_digits(model: RoundModel) -> int:
    q = 1 - model.a - (model.r or 0)
    return model.t * len(str(q.denominator))


def expeq_compose(
    model: RoundModel, digit_cap: int = DEFAULT_DIGIT_CAP
) -> OutcomeDistribution:
    """Exact outcome split of t composed rounds.

    Undecided mass is (1 - a - r)^t; the decided mass splits between accept
    and reject in the ratio a : r. Exact arithmetic throughout; models
    whose tail power would exceed digit_cap digits raise ResourceCapError
    (the certified comparators remain usable at any size).

    With 1 - a - r = N/D in lowest terms, the tail N^t/D^t is in lowest
    terms, and so is the decided mass X/D^t with X = D^t - N^t, since
    gcd(X, D^t) = gcd(N^t, D^t) = 1. Over the common scale w_d * D^t, with
    a/(a + r) = w_n/w_d in lowest terms, accept is w_n * X, reject is
    (w_d - w_n) * X and neutral is w_d * N^t. A side weight is coprime to
    w_d, so that side's gcd with the scale is gcd(weight, D^t) * gcd(X, w_d),
    and neutral's is w_d: every gcd taken has a small side.
    """
    if model.r is None:
        raise ValueError("instantiate r before composing rounds")
    a, r, t = model.a, model.r, model.t
    if a + r == 0:
        return OutcomeDistribution(Fraction(0), Fraction(0), Fraction(1))
    if _tail_probability_digits(model) > digit_cap:
        raise ResourceCapError(
            f"composition needs about {_tail_probability_digits(model)} digits, "
            f"above the {digit_cap}-digit cap"
        )
    q = 1 - a - r
    tail_den = q.denominator**t
    decided = tail_den - q.numerator**t
    w = a / (a + r)
    whole = w.denominator

    def common(weight: int) -> int:
        with_tail = math.gcd(weight, pow(q.denominator, t, weight)) if weight else tail_den
        return with_tail * math.gcd(decided, whole)

    accept_w = w.numerator
    reject_w = whole - accept_w
    return OutcomeDistribution._from_numerators(
        accept_w * decided,
        reject_w * decided,
        whole * tail_den,
        gcds=(common(accept_w), common(reject_w), whole),
    )


def expeq_tail_below(model: RoundModel, bound: Fraction) -> bool:
    """Certified check that the undecided mass (1 - a - r)^t < bound."""
    if model.r is None:
        raise ValueError("instantiate r before checking the tail")
    q = 1 - model.a - model.r
    if q == 0:
        return 0 < bound
    return pow_less_than(q, model.t, Fraction(bound))


def expeq_decisive_above(model: RoundModel, which: str, bound: Fraction) -> bool:
    """Certified check that the composed accept (or reject) mass exceeds bound.

    With side weight w (a for accept, r for reject), the composed mass is
    w * (1 - tail) / (a + r), so the comparison reduces to a certified tail
    bound.
    """
    if model.r is None:
        raise ValueError("instantiate r before checking decisive mass")
    if which not in ("accept", "reject"):
        raise ValueError("which must be 'accept' or 'reject'")
    bound = Fraction(bound)
    weight = model.a if which == "accept" else model.r
    total = model.a + model.r
    if weight == 0:
        return 0 > bound
    # w (1 - tail) / total > bound  <=>  tail < 1 - bound * total / w
    return expeq_tail_below(model, 1 - bound * total / weight)


def expeq_problem(c: int) -> PromiseProblem:
    """Promise problem over {a, b}: t(m, n) repetitions of the block a^m b^n,
    yes when m = n and no otherwise, with t tied to m + n as in expeq_params.
    """
    if c < 3:
        raise ValueError("c must be at least 3")
    log_ceiling = ceil_ln(c)
    base = 2 * c * c

    def round_count(total: int) -> int:
        return 3 * base**total * log_ceiling

    def parse(word: str) -> tuple[int, int] | None:
        """(m, n) when the word is exactly (a^m b^n)^t(m, n), else None."""
        if not word or word[0] != "a":
            return None
        m = len(word) - len(word.lstrip("a"))
        rest = word[m:]
        n = len(rest) - len(rest.lstrip("b"))
        if n == 0:
            return None
        period = m + n
        count, remainder = divmod(len(word), period)
        if remainder or word != word[:period] * count:
            return None
        if count != round_count(period):
            return None
        return m, n

    def yes_member(word: str) -> bool:
        parsed = parse(word)
        return parsed is not None and parsed[0] == parsed[1]

    def no_member(word: str) -> bool:
        parsed = parse(word)
        return parsed is not None and parsed[0] != parsed[1]

    def enumerator(max_length: int):
        total = 2
        while True:
            rounds = round_count(total)
            if total * rounds > max_length:
                return
            for m in range(1, total):
                n = total - m
                # The previous word starts a^(m-1) b; at m = 1 it is the
                # previous total's last word: none, (ab)^t, or aab... onwards.
                if m > 1:
                    keep = m - 1
                else:
                    keep = {2: 0, 3: 2}.get(total, 1)
                word = ("a" * m + "b" * n) * rounds
                yield keep, word[keep:], ("yes" if m == n else "no")
            total += 1

    return PromiseProblem(
        alphabet=("a", "b"),
        yes_member=yes_member,
        no_member=no_member,
        enumerator=enumerator,
        name=f"expeq({c})",
    )
