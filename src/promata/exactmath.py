"""Exact decision procedures for quantities that floats would get wrong.

Comparisons against transcendental expressions are settled with rigorous
enclosures: rational bounds that are provably on either side of the true
value, widened in precision until the comparison separates. No decision is
ever taken from a machine float near the boundary.
"""

from __future__ import annotations

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


_Enclosure = tuple[int, int, int]  # (lo, hi, shift): lo * 2^shift <= x <= hi * 2^shift


def _enclose(value: Fraction, bits: int) -> _Enclosure:
    """An enclosure of a positive rational: lo is its floor at about `bits`
    bits, and hi = lo + 1 unless that division is exact, as for a dyadic
    value. One floor division, so the cost is linear in the terms' length."""
    num, den = value.numerator, value.denominator
    shift = num.bit_length() - den.bit_length() - bits
    if shift < 0:
        lo, rest = divmod(num << -shift, den)
    else:
        lo, rest = divmod(num, den << shift)
    return lo, lo + (rest != 0), shift


def _times(a: _Enclosure, b: _Enclosure, bits: int) -> _Enclosure:
    """The product of two enclosures, its ends rounded down and up to
    `bits` bits by right shifts."""
    lo, hi, shift = a[0] * b[0], a[1] * b[1], a[2] + b[2]
    drop = hi.bit_length() - bits
    if drop > 0:
        lo >>= drop
        hi = -(-hi >> drop)
        shift += drop
    return lo, hi, shift


def _below(a: int, ea: int, b: int, eb: int) -> bool:
    """Whether a * 2^ea < b * 2^eb, for integers a, b >= 0. Leading bits at
    different positions decide at once, so exponents like 10^19 never build
    a long shift; at one position, |ea - eb| is below either's length."""
    if not a or not b:
        return a < b
    top_a, top_b = a.bit_length() + ea, b.bit_length() + eb
    if top_a != top_b:
        return top_a < top_b
    if ea >= eb:
        return a << (ea - eb) < b
    return a < b << (eb - ea)


_PRECISIONS = (133, 266, 532, 1064, 2127)  # bits: 40 to 640 decimal digits


def pow_less_than(base: Fraction, exponent: int, bound: Fraction) -> bool:
    """Decide base^exponent < bound with certainty, for 0 < base, 0 <= exp.

    At escalating precision, square-and-multiply over binary enclosures
    rounded outward (Moore's interval arithmetic) encloses the power, which
    is compared with an enclosure of bound; the first precision whose
    enclosures separate decides, and dyadic sides stay exact. If none
    separates, the exact comparison is tried under a size guard.
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
    for bits in _PRECISIONS:
        step = power = _enclose(base, bits)
        for bit in bin(exponent)[3:]:
            power = _times(power, power, bits)
            if bit == "1":
                power = _times(power, step, bits)
        lo, hi, shift = power
        bound_lo, bound_hi, bound_shift = _enclose(bound, bits)
        if _below(hi, shift, bound_lo, bound_shift):
            return True
        if not _below(lo, shift, bound_hi, bound_shift):
            return False
    # Enclosures fail to separate only when base^exponent = bound or the gap
    # is below 2^-2127 of them: compare exactly if the operands stay small.
    # Digits come from bit lengths, since str() of a long int is quadratic.
    digits_per_factor = max(base.numerator, base.denominator).bit_length() * 30103 // 100000 + 1
    if exponent * digits_per_factor > 2_000_000:
        raise ResourceCapError("power comparison did not separate within the precision ladder")
    return base**exponent < bound
