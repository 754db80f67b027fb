"""Certified power comparisons against exact rational arithmetic."""

import random
import time
from fractions import Fraction

import pytest

from promata.exactmath import pow_less_than


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
    # 1.5^(10^10) ~ 10^(1.76e9) lies past an exponent range of 10^9;
    # 2^(10^19) ~ 10^(3e18) and 2^-(10^19) lie past even the widest Decimal
    # range, so their enclosures saturate.
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


@pytest.mark.parametrize("seed", range(3))
def test_agrees_with_exact_comparison(seed):
    rng = random.Random(seed)
    for _ in range(200):
        base = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        exponent = rng.randint(0, 40)
        power = base**exponent
        kind = rng.randrange(4)
        if kind == 0:
            bound = power
        elif kind == 1:
            nudge = Fraction(1, rng.choice((10**3, 10**30, 10**200)))
            bound = power * (1 + rng.choice((-1, 1)) * nudge)
        elif kind == 2:
            bound = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        else:
            bound = Fraction(rng.randint(-5, 0))
        assert pow_less_than(base, exponent, bound) is (power < bound)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pow_less_than(Fraction(1, 2), -1, Fraction(1))
    with pytest.raises(ValueError):
        pow_less_than(Fraction(0), 3, Fraction(1))
