"""Exact decision procedures for quantities that floats would get wrong.

Comparisons against transcendental expressions are settled with rigorous
enclosures: rational bounds that are provably on either side of the true
value, widened in precision until the comparison separates. No decision is
ever taken from a machine float near the boundary.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction

from .errors import ResourceCapError


def e_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Rational lower and upper bounds on e from the factorial series.

    The lower bound is the partial sum through 1/terms!; the tail is below
    1/(terms * terms!) for terms >= 1, giving the upper bound.
    """
    if terms < 1:
        raise ValueError("terms must be at least 1")
    total = Fraction(0)
    factorial = 1
    for i in range(terms + 1):
        if i > 0:
            factorial *= i
        total += Fraction(1, factorial)
    return total, total + Fraction(1, terms * factorial)


def ceil_ln(c: int) -> int:
    """Smallest integer k with e^k >= c, decided by exact rational bounds.

    Equals the ceiling of ln(c) for c >= 2 (and 0 for c = 1). Each candidate
    power is compared through an enclosure of e that widens until the
    comparison is strict on one side; since e is transcendental, e^k never
    equals an integer and the loop always separates.
    """
    if c < 1:
        raise ValueError("c must be at least 1")
    if c == 1:
        return 0
    k = 1
    while True:
        terms = 20
        while True:
            low, high = e_bounds(terms)
            if low**k >= c:
                return k
            if high**k < c:
                break  # e^k is certainly below c, try the next power
            terms *= 2
        k += 1


def _pow_enclosure(base: Fraction, exponent: int, digits: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] with lo <= base^exponent <= hi, via directed rounding.

    Square-and-multiply over Decimal intervals: the lower track rounds every
    operation down, the upper track up, so the enclosure is rigorous at any
    precision. base must be positive.
    """
    if base <= 0:
        raise ValueError("base must be positive")
    floor_ctx = decimal.Context(
        prec=digits, rounding=decimal.ROUND_FLOOR, Emin=-(10**9), Emax=10**9
    )
    ceil_ctx = decimal.Context(
        prec=digits, rounding=decimal.ROUND_CEILING, Emin=-(10**9), Emax=10**9
    )
    num = Decimal(base.numerator)
    den = Decimal(base.denominator)
    base_lo = floor_ctx.divide(num, den)
    base_hi = ceil_ctx.divide(num, den)
    result_lo, result_hi = Decimal(1), Decimal(1)
    bits = bin(exponent)[2:] if exponent else "0"
    for bit in bits:
        result_lo = floor_ctx.multiply(result_lo, result_lo)
        result_hi = ceil_ctx.multiply(result_hi, result_hi)
        if bit == "1":
            result_lo = floor_ctx.multiply(result_lo, base_lo)
            result_hi = ceil_ctx.multiply(result_hi, base_hi)
    if exponent == 0:
        return Fraction(1), Fraction(1)
    return Fraction(result_lo), Fraction(result_hi)


_PRECISIONS = (40, 80, 160, 320, 640)


def pow_less_than(base: Fraction, exponent: int, bound: Fraction) -> bool:
    """Decide base^exponent < bound with certainty, for 0 < base, 0 <= exp.

    Uses enclosures of escalating precision; if they never separate, the two
    sides are equal (or astronomically close), and the exact rational
    comparison is attempted as a last resort with a size guard.
    """
    base = Fraction(base)
    bound = Fraction(bound)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if base <= 0:
        raise ValueError("base must be positive")
    if exponent == 0:
        return 1 < bound
    if base == 1:
        return 1 < bound
    for digits in _PRECISIONS:
        lo, hi = _pow_enclosure(base, exponent, digits)
        if hi < bound:
            return True
        if lo >= bound:
            return False
    # Enclosures would only fail to separate when base^exponent = bound or
    # the gap needs more than 640 digits; fall back to exact arithmetic if
    # the operands stay manageable.
    digit_estimate = exponent * len(str(max(base.numerator, base.denominator)))
    if digit_estimate > 2_000_000:
        raise ResourceCapError(
            "power comparison did not separate within the precision ladder"
        )
    return base**exponent < bound
