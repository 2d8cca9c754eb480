"""Counting representations by sums of 4k squares.

Three routes for r_{4k}(d), the number of integer 4k-vectors of squared
norm d:

* an exact table, the coefficients of theta(q)^(4k) with
  theta = 1 + 2 * sum_t q^(t^2), raised by binary powering on packed
  decimal numbers (Kronecker substitution, see r4k_bruteforce),
* the divisor-sum closed form for 4 squares (k = 1), where the count is
  exactly 8 * sum of divisors not divisible by 4,
* the multiplicative model rstar_{4k}, which reproduces r_{4k} up to the
  rational coefficient 4k/((4^k-1)|B_{2k}|) and an O(d^k) error that
  vanishes identically for k <= 2 (the cusp forms of weight 2 and 4 on
  Gamma_0(4) are zero).

Counting weighs divisors by the model: 8 * rstar_4 is exactly r_4 and
16 * rstar_8 exactly r_8, so the divisor-sum form r4_jacobi is kept only
as the test reference for the first identity.  The table weighs the exact
route (k >= 3, and the independent checks) and the oracle's classes.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction

from .arith import CapacityError, DomainError, bernoulli, factorize

# Guard for table construction, and so for the exact route and the oracle:
# the digits the powering holds, (limit + 1) * _slot_digits(limit, k), may
# not exceed this; the count edges are B = 518, 381, 320, 278, 252 and 232
# for k = 1..6.  On a 2-core x86 machine with Python 3.11 one cold n_oracle
# call at the edge, table included, took 0.85-0.92, 1.09-1.15, 1.41-1.59,
# 1.13-1.37, 1.18-1.89 and 1.41-1.90 s for k = 1..6 (three runs each),
# within a budget of 2 s, and peaked under 40 MiB (VmHWM).
R4K_TABLE_BUDGET = 3_500_000


def _bounds(limit: int, k: int) -> tuple:
    """(side, steps, cube_bits, walk_bits): the bounds side^(4k) and
    steps^limit of _slot_digits and their bit lengths n log2(a), as floats."""
    side, steps = 2 * math.isqrt(limit) + 1, 8 * k + 1
    return side, steps, 4 * k * math.log2(side), limit * math.log2(steps)


def _slot_digits(limit: int, k: int) -> int:
    """Digits w with 10^w > r_j(d) for every j <= 4k and d <= limit.

    r_j(d) <= r_{4k}(d), since a j-vector padded with zeros is a 4k-vector.
    r_{4k}(d) is at most (2 isqrt(limit) + 1)^(4k), as every |y_i| <= sqrt(d),
    and at most (8k + 1)^limit: that many walks of `limit` steps, each moving
    one coordinate by +-1 or none, reach every y with
    sum |y_i| <= sum y_i^2 = d <= limit.  w comes from the bit length of the
    smaller bound, and only that one is raised: the two are compared by
    their bit lengths, n log2(a) for a^n, and both are raised only when
    these lie within a bit of each other, where float rounding could pick
    the wrong one.
    """
    side, steps, cube_bits, walk_bits = _bounds(limit, k)
    bounds = []
    if cube_bits < walk_bits + 1:
        bounds.append(side ** (4 * k))
    if walk_bits < cube_bits + 1:
        bounds.append(steps ** limit)
    return min(bounds).bit_length() * 30103 // 100000 + 1  # 30103e-5 > log10(2)


def r4k_bruteforce(limit: int, k: int) -> tuple:
    """(r_{4k}(0), ..., r_{4k}(limit)): the coefficients of theta(q)^(4k).

    A series c_0 + c_1 q + ... + c_limit q^limit is packed into the integer
    sum c_d 10^(w d), one w-digit slot per coefficient, and theta is raised
    to the power 4k by binary powering on these numbers in a decimal
    context of maximal precision, whose large products run through
    libmpdec's number-theoretic transform.  Every coefficient of every
    partial power is a nonnegative r_j(d) < 10^w (`_slot_digits`), so no
    slot carries into the next one and the low limit + 1 slots of each
    product are the exact truncated series; the higher slots are cut off
    after every product.  The traps on Inexact and Rounded make any
    rounding raise.
    """
    if limit < 1 or k < 1:
        raise DomainError("limit and k must be >= 1")
    # below the packed size: the smaller bound has more bits than its
    # n log2(a) less one, for float rounding, and each bit takes 0.30103 digits
    # of the width.  A table past the budget even so is refused before a bound
    # is raised, which takes seconds at 10^6 digits.
    size = (limit + 1) * (min(_bounds(limit, k)[2:]) - 1) * 0.30103
    if size <= R4K_TABLE_BUDGET:
        width = _slot_digits(limit, k)
        size = (limit + 1) * width
    if size > R4K_TABLE_BUDGET:
        raise CapacityError(f"representation table r_{4 * k}(0..{limit}) exceeds "
                            f"the budget of {R4K_TABLE_BUDGET} packed digits")
    digits = bytearray(b"0" * size)  # slot d holds digits [size - (d+1)w, size - dw)
    digits[-1] = ord("1")
    for t in range(1, math.isqrt(limit) + 1):
        digits[size - 1 - t * t * width] = ord("2")
    theta = Decimal(digits.decode())
    del digits
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                    traps=[Inexact, Rounded])
    # shift(0) under precision `size` keeps the low `size` digits: the low slots
    low_slots = Context(prec=size)
    power = theta
    for bit in bin(4 * k)[3:]:
        # squaring one operand lets libmpdec transform it once
        power = exact.multiply(power, power).shift(0, low_slots)
        if bit == "1":
            power = exact.multiply(power, theta).shift(0, low_slots)
    text = str(power).rjust(size, "0")
    del power, theta
    return tuple(int(text[end - width:end]) for end in range(size, 0, -width))


def r4_jacobi(d: int) -> int:
    """r_4(d) = 8 * sum of divisors of d not divisible by 4."""
    if d < 1:
        raise DomainError("d must be >= 1")
    f = factorize(d)
    total = 1
    even = False
    for p, e in f.factors:
        if p == 2:
            even = True
        else:
            total *= (p ** (e + 1) - 1) // (p - 1)
    # divisors not divisible by 4 pair each odd divisor m with m and 2m
    return 8 * (3 if even else 1) * total


def _p2_coefficients(k: int) -> tuple:
    """The exact rationals (A, B) in the prime-power values at p = 2."""
    denom = 1 - 2 ** (2 * k - 1)
    sign = (-1) ** k
    a = 1 - Fraction(sign, denom)
    b = -sign * Fraction(1 - 2 ** (2 * k), denom)
    return a, b


def r4k_star_prime_power(p: int, l: int, k: int) -> int:
    """Value of the multiplicative model at p^l, always an integer."""
    if l == 0:
        return 1
    if p == 2:
        # A 2^(lm) + B with (A, B) = _p2_coefficients(k) and m = 2k - 1, in
        # integers: 2^(lm) + (-1)^k (1 + 2^m + ... + 2^((l-1)m) - 2)
        m = 2 * k - 1
        return (1 << l * m) + (-1) ** k * (sum(1 << i * m for i in range(l)) - 2)
    # the geometric sum 1 + z + ... + z^l, z = p^(2k-1), an exact division
    z = p ** (2 * k - 1)
    return (z ** (l + 1) - 1) // (z - 1)


def r4k_star(d: int, k: int) -> int:
    """Multiplicative extension of the prime-power model."""
    if d < 1 or k < 1:
        raise DomainError("d and k must be >= 1")
    out = 1
    for p, e in factorize(d).factors:
        out *= r4k_star_prime_power(p, e, k)
    return out


def r4k_main_coeff(k: int) -> Fraction:
    """Exact coefficient 4k / ((4^k - 1) |B_{2k}|) linking r and rstar."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return Fraction(4 * k) / ((4 ** k - 1) * abs(bernoulli(2 * k)))

