"""Certified power comparisons and enclosures of e against exact rational arithmetic."""

import functools
import math
import random
import time
from fractions import Fraction

import pytest

from promata.exactmath import ceil_ln, e_bounds, pow_less_than


@pytest.mark.parametrize(
    ("base", "exponent", "bound", "expected"),
    [
        (Fraction(1, 2), 10**18, Fraction(1, 3), True),
        (Fraction(2), 10**18, Fraction(3), False),
    ],
)
def test_huge_exponents_answer_within_a_second(base, exponent, bound, expected):
    start = time.perf_counter()
    assert pow_less_than(base, exponent, bound) is expected
    assert time.perf_counter() - start < 1.0


def test_decimal_overflow_and_underflow_saturate():
    # 1.5^(10^10) ~ 10^(1.76e9), 2^(10^19) ~ 10^(3e18) and 2^-(10^19) lie
    # past any bounded exponent range; binary enclosures carry the exponent
    # as an int, and their leading bits' positions decide without a shift.
    assert pow_less_than(Fraction(3, 2), 10**10, Fraction(10**100)) is False
    assert pow_less_than(Fraction(2), 10**19, Fraction(3)) is False
    assert pow_less_than(Fraction(1, 2), 10**19, Fraction(1, 10**1000)) is True
    assert pow_less_than(Fraction(1, 2), 10**19, Fraction(0)) is False


def test_long_bound_terms():
    # Bounds whose numerator and denominator run to tens of thousands of
    # digits, on both sides of the power and at equality.
    base = Fraction(9, 10)
    power = base**2000
    assert pow_less_than(base, 2000, power) is False
    assert pow_less_than(base, 2000, power * Fraction(10**50 + 1, 10**50)) is True
    assert pow_less_than(base, 2000, power * Fraction(10**50 - 1, 10**50)) is False
    assert pow_less_than(Fraction(1, 2), 100_000, Fraction(1, 2**99_999)) is True
    assert pow_less_than(Fraction(1, 2), 100_000, Fraction(1, 2**100_001)) is False


def test_equality_is_not_less():
    assert pow_less_than(Fraction(1, 2), 3, Fraction(1, 8)) is False
    assert pow_less_than(Fraction(1, 3), 3, Fraction(1, 27)) is False
    assert pow_less_than(Fraction(5, 7), 0, Fraction(1)) is False
    # Equal sides with terms past the interpreter's int-to-str digit limit
    # reach the exact fallback.
    base = Fraction(3**10000, 2**15000)
    assert pow_less_than(base, 2, base**2) is False
    # Powers of two are enclosed exactly, so dyadic equalities decide at the
    # first precision, far past the exact fallback's digit guard.
    assert pow_less_than(Fraction(1, 2), 10**7, Fraction(1, 2 ** (10**7))) is False
    assert pow_less_than(Fraction(4), 10**7, Fraction(2 ** (2 * 10**7))) is False


@pytest.mark.parametrize("seed", range(3))
def test_agrees_with_exact_comparison(seed):
    rng = random.Random(seed)
    for _ in range(200):
        kind = rng.randrange(5)
        if kind == 4:
            base = Fraction(2) ** rng.randint(-10, 10)
        else:
            base = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        exponent = rng.randint(0, 40)
        power = base**exponent
        if kind == 0:
            bound = power
        elif kind == 1:
            nudge = Fraction(1, rng.choice((10**3, 10**30, 10**200)))
            bound = power * (1 + rng.choice((-1, 1)) * nudge)
        elif kind == 2:
            bound = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        elif kind == 3:
            bound = Fraction(rng.randint(-5, 0))
        else:
            bound = power * Fraction(2) ** rng.randint(-1, 1)
        assert pow_less_than(base, exponent, bound) is (power < bound)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pow_less_than(Fraction(1, 2), -1, Fraction(1))
    with pytest.raises(ValueError):
        pow_less_than(Fraction(0), 3, Fraction(1))


# --- enclosures of e ---


@functools.lru_cache(maxsize=None)
def _series_bounds(terms):
    """e's bounds as reduced Fraction sums: sum of 1/i! for i <= terms, and
    that plus 1/(terms * terms!)."""
    total = sum(Fraction(1, math.factorial(i)) for i in range(terms + 1))
    return total, total + Fraction(1, terms * math.factorial(terms))


def _ceil_ln_per_k(c):
    """The smallest k with e^k >= c, each k compared through an enclosure
    that restarts at 20 terms and doubles until it separates."""
    if c == 1:
        return 0
    k = 1
    while True:
        terms = 20
        while True:
            low, high = _series_bounds(terms)
            if low**k >= c:
                return k
            if high**k < c:
                break
            terms *= 2
        k += 1


@pytest.mark.parametrize("terms", range(1, 61))
def test_e_bounds_equal_the_series_sum(terms):
    low, high = e_bounds(terms)
    expected = _series_bounds(terms)
    assert (low.numerator, low.denominator) == (expected[0].numerator, expected[0].denominator)
    assert (high.numerator, high.denominator) == (expected[1].numerator, expected[1].denominator)
    assert low < high


def test_ceil_ln_equals_the_per_k_loop():
    for c in range(1, 5001):
        assert ceil_ln(c) == _ceil_ln_per_k(c), c
    for c in (10**50, 10**200):
        assert ceil_ln(c) == _ceil_ln_per_k(c), c


def test_ceil_ln_widens_the_enclosure_near_a_power_of_e():
    # floor(e^k) and its successor sit within 1 of e^k; 20 terms cannot
    # separate e^k from c once k exceeds about 40.
    for k in (1, 2, 10, 45, 60):
        low, _ = e_bounds(200)
        below = low**k
        c = below.numerator // below.denominator
        assert ceil_ln(c) == k
        assert ceil_ln(c + 1) == k + 1
        assert _ceil_ln_per_k(c) == k


def test_e_bounds_and_ceil_ln_reject_bad_arguments():
    with pytest.raises(ValueError):
        e_bounds(0)
    with pytest.raises(ValueError):
        ceil_ln(0)
