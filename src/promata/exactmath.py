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
    1/(terms * terms!) for terms >= 1, giving the upper bound. The partial
    sum is one integer over terms!, the sum of terms!/i! built by Horner's
    rule (s_i = i * s_(i-1) + 1), so each bound takes a single reduction.
    """
    if terms < 1:
        raise ValueError("terms must be at least 1")
    total = factorial = 1
    for i in range(1, terms + 1):
        total = total * i + 1
        factorial *= i
    return Fraction(total, factorial), Fraction(terms * total + 1, terms * factorial)


def ceil_ln(c: int) -> int:
    """Smallest integer k with e^k >= c, decided by exact rational bounds.

    Equals the ceiling of ln(c) for c >= 2 (and 0 for c = 1). The upper
    bound of one enclosure low < e < high is raised k by k as an integer
    numerator and denominator while high^k < c; then low^k >= c settles k,
    and otherwise the enclosure is rebuilt with twice the terms. Since e is transcendental,
    e^k never equals an integer and every comparison eventually separates.
    """
    if c < 1:
        raise ValueError("c must be at least 1")
    if c == 1:
        return 0
    terms, k = 20, 1
    while True:
        low, high = e_bounds(terms)
        step_num, step_den = high.as_integer_ratio()
        high_num, high_den = step_num**k, step_den**k
        while high_num < c * high_den:  # e^k is certainly below c: try k + 1
            k += 1
            high_num, high_den = high_num * step_num, high_den * step_den
        if low**k >= c:
            return k
        terms *= 2  # the enclosure does not separate e^k from c


def _directed_contexts(digits: int) -> tuple[decimal.Context, decimal.Context]:
    """Decimal contexts at the given precision that round toward -inf and
    toward +inf, over the widest exponent range, with overflow and underflow
    saturating instead of trapping.

    Saturation keeps every bound rigorous for positive operands: rounding
    down, an overflow gives the largest finite number and an underflow gives
    0; rounding up, an overflow gives Infinity and an underflow the smallest
    positive number.
    """
    return tuple(
        decimal.Context(
            prec=digits,
            rounding=rounding,
            Emin=decimal.MIN_EMIN,
            Emax=decimal.MAX_EMAX,
            traps=[decimal.InvalidOperation, decimal.DivisionByZero],
        )
        for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING)
    )


def _int_enclosure(
    n: int, floor_ctx: decimal.Context, ceil_ctx: decimal.Context
) -> tuple[Decimal, Decimal]:
    """Decimals lo <= n <= hi for an integer n >= 1, exact for short n.

    A long n is read through its leading 4 * precision bits, top, as
    top * 2^shift <= n < (top + 1) * 2^shift, so no conversion ever touches
    all of its digits.
    """
    shift = n.bit_length() - 4 * floor_ctx.prec
    if shift <= 0:
        exact = Decimal(n)
        return exact, exact
    top = n >> shift
    two = Decimal(2)
    scale_lo, scale_hi = _pow_enclosure(two, two, shift, floor_ctx, ceil_ctx)
    return (
        floor_ctx.multiply(Decimal(top), scale_lo),
        ceil_ctx.multiply(Decimal(top + 1), scale_hi),
    )


def _enclose(
    value: Fraction, floor_ctx: decimal.Context, ceil_ctx: decimal.Context
) -> tuple[Decimal, Decimal]:
    """Decimals lo <= value <= hi for a positive rational, equal when value
    has short terms and is representable at the contexts' precision."""
    num_lo, num_hi = _int_enclosure(value.numerator, floor_ctx, ceil_ctx)
    den_lo, den_hi = _int_enclosure(value.denominator, floor_ctx, ceil_ctx)
    return floor_ctx.divide(num_lo, den_hi), ceil_ctx.divide(num_hi, den_lo)


def _pow_enclosure(
    base_lo: Decimal,
    base_hi: Decimal,
    exponent: int,
    floor_ctx: decimal.Context,
    ceil_ctx: decimal.Context,
) -> tuple[Decimal, Decimal]:
    """Decimals lo <= base^exponent <= hi for base in [base_lo, base_hi],
    a positive interval, via directed rounding.

    Square-and-multiply over Decimal intervals: the lower track rounds every
    operation down, the upper track up, so the enclosure is rigorous at any
    precision.
    """
    result_lo, result_hi = Decimal(1), Decimal(1)
    for bit in bin(exponent)[2:]:
        result_lo = floor_ctx.multiply(result_lo, result_lo)
        result_hi = ceil_ctx.multiply(result_hi, result_hi)
        if bit == "1":
            result_lo = floor_ctx.multiply(result_lo, base_lo)
            result_hi = ceil_ctx.multiply(result_hi, base_hi)
    return result_lo, result_hi


_PRECISIONS = (40, 80, 160, 320, 640)


def pow_less_than(base: Fraction, exponent: int, bound: Fraction) -> bool:
    """Decide base^exponent < bound with certainty, for 0 < base, 0 <= exp.

    At escalating precision, an enclosure of the power is compared with an
    enclosure of bound at the same precision, both in the Decimal domain;
    the first precision whose enclosures separate decides. If they never
    separate, the two sides are equal (or astronomically close), and the
    exact rational comparison is attempted as a last resort with a size
    guard.
    """
    base = Fraction(base)
    bound = Fraction(bound)
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if base <= 0:
        raise ValueError("base must be positive")
    if bound <= 0:
        return False
    if exponent == 0 or base == 1:
        return 1 < bound
    for digits in _PRECISIONS:
        floor_ctx, ceil_ctx = _directed_contexts(digits)
        base_lo, base_hi = _enclose(base, floor_ctx, ceil_ctx)
        lo, hi = _pow_enclosure(base_lo, base_hi, exponent, floor_ctx, ceil_ctx)
        bound_lo, bound_hi = _enclose(bound, floor_ctx, ceil_ctx)
        if hi < bound_lo:
            return True
        if lo >= bound_hi:
            return False
    # Enclosures would only fail to separate when base^exponent = bound or
    # the gap needs more than 640 digits; fall back to exact arithmetic if
    # the operands stay manageable.
    # Decimal digits from the bit length: str() of a long int is quadratic
    # and refused past the interpreter's digit limit.
    digits_per_factor = max(base.numerator, base.denominator).bit_length() * 30103 // 100000 + 1
    digit_estimate = exponent * digits_per_factor
    if digit_estimate > 2_000_000:
        raise ResourceCapError(
            "power comparison did not separate within the precision ladder"
        )
    return base**exponent < bound
