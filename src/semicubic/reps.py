"""Counting representations by sums of 4k squares.

Three routes for r_{4k}(d), the number of integer 4k-vectors of squared
norm d:

* an exact table built by repeated convolution with the one-variable
  square-count sequence,
* the divisor-sum closed form for 4 squares (k = 1), where the count is
  exactly 8 * sum of divisors not divisible by 4,
* the multiplicative model rstar_{4k}, which reproduces r_{4k} up to the
  rational coefficient 4k/((4^k-1)|B_{2k}|) and an O(d^k) error that
  vanishes identically for k <= 2 (the cusp forms of weight 2 and 4 on
  Gamma_0(4) are zero).

Counting weighs divisors by the model: 8 * rstar_4 is exactly r_4 and
16 * rstar_8 exactly r_8, so the divisor-sum form r4_jacobi is kept only
as the test reference for the first identity, and the table serves only
k >= 3 and the checks that need an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import CapacityError, DomainError, bernoulli, factorize

# Guard for table construction: limit * 4k may not exceed this.
R4K_TABLE_BUDGET = 1_000_000


@dataclass(frozen=True)
class RepCountTable:
    """counts[d] = r_{4k}(d) for 0 <= d <= limit."""

    k: int
    limit: int
    counts: tuple

    def __getitem__(self, d: int) -> int:
        return self.counts[d]


def r4k_bruteforce(limit: int, k: int) -> RepCountTable:
    """Exact r_{4k} up to limit by 4k rounds of square-sequence convolution."""
    if limit < 1 or k < 1:
        raise DomainError("limit and k must be >= 1")
    if limit * 4 * k > R4K_TABLE_BUDGET:
        raise CapacityError(
            f"representation table of size {limit} x {4*k} exceeds budget "
            f"{R4K_TABLE_BUDGET}"
        )
    pos_squares = []
    t = 1
    while t * t <= limit:
        pos_squares.append(t * t)
        t += 1
    counts = [1] + [0] * limit
    for _ in range(4 * k):
        nxt = [0] * (limit + 1)
        for d in range(limit + 1):
            c = counts[d]
            if c:
                nxt[d] += c            # y = 0
                for sq in pos_squares:
                    if d + sq > limit:
                        break
                    nxt[d + sq] += 2 * c   # y = +-t
        counts = nxt
    return RepCountTable(k, limit, tuple(counts))


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
        a, b = _p2_coefficients(k)
        val = a * 2 ** (l * (2 * k - 1)) + b
        if val.denominator != 1:
            raise AssertionError(
                f"prime-power value at 2^{l}, k={k} is not integral: {val}"
            )
        return int(val)
    # geometric sum (1 - p^((l+1)(2k-1))) / (1 - p^(2k-1))
    z = p ** (2 * k - 1)
    total = 1
    zpow = 1
    for _ in range(l):
        zpow *= z
        total += zpow
    return total


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

