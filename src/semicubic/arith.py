"""Exact integer and rational arithmetic primitives.

p-adic valuations, deterministic factorization, the Mobius function,
divisor windows on cubes, Bernoulli numbers, and zeta at the integers in
128-bit fixed point.  Everything here is pure and exact except zeta_real,
which rounds that fixed-point sum to the nearest float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class DomainError(ValueError):
    """Argument outside an operation's domain."""


class CapacityError(RuntimeError):
    """A configured resource budget would be exceeded."""


# 2,3,5 wheel: candidate divisors 7, 11, 13, 17, 19, 23, 29, 31, ...
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def _least_factor(n: int) -> int:
    """Smallest prime factor of n >= 2, by trial division on the 2,3,5 wheel."""
    for p in (2, 3, 5):
        if n % p == 0:
            return p
    d = 7
    i = 0
    while d * d <= n:
        if n % d == 0:
            return d
        d += _WHEEL[i]
        i = (i + 1) & 7
    return n


@lru_cache(maxsize=1 << 17)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (values up to ~1e12)."""
    return n >= 2 and _least_factor(n) == n


# Largest n primes_up_to sieves to.  Of the constants, only local-factors and
# analytic.euler_product sieve this far; predict only checks its cutoff here.
# On a 2-core x86 machine with Python 3.11, one cold local-factors run at a
# cutoff of 10^6 took 0.43-0.74 s and peaked at 20.5 MiB (ru_maxrss) at k = 1,
# 0.64-1.01 s at k = 6, and 0.85 s at 2 * 10^6; one cold euler_product(1, {},
# 10^6) took 0.13-0.30 s and peaked at 28 MiB (VmHWM).  So 2 * 10^6 would fit
# a budget of 2 s, but the limit stays at the edge of the loop over n
# (counting.WALK_BOUND_LIMIT), whose prefix sums and Mobius list come from
# this sieve, until the two are repriced together.
PRIME_SIEVE_LIMIT = 10**6


def check_sieve_limit(n: int) -> None:
    """Raise CapacityError if primes_up_to(n) would pass PRIME_SIEVE_LIMIT."""
    if n > PRIME_SIEVE_LIMIT:
        raise CapacityError(f"prime sieve up to {n} is guarded at n <= {PRIME_SIEVE_LIMIT}")


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve; n is guarded at PRIME_SIEVE_LIMIT."""
    check_sieve_limit(n)
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray((n - p * p) // p + 1)
    return list(itertools.compress(range(n + 1), sieve))


# Largest member a PrimeSet accepts: is_prime's trial division covers it, and a
# larger prime divides no n a counting route reaches nor lies below a cutoff
# any route can sieve.
PRIME_SET_LIMIT = 10**12


@dataclass(frozen=True)
class PrimeSet:
    """A finite set of excluded primes (the exceptional set)."""

    primes: frozenset

    def __post_init__(self):
        for p in self.primes:
            if p > PRIME_SET_LIMIT:
                raise DomainError(f"excluded prime {p} is above the limit 10^12")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")

    @classmethod
    def empty(cls) -> "PrimeSet":
        return cls(frozenset())

    @classmethod
    def of(cls, *ps: int) -> "PrimeSet":
        return cls(frozenset(ps))

    @classmethod
    def parse(cls, text: str) -> "PrimeSet":
        """Parse a comma-separated list; empty string means the empty set."""
        text = text.strip()
        if not text:
            return cls.empty()
        return cls(frozenset(int(t) for t in text.split(",")))

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self):
        return iter(sorted(self.primes))

    def __len__(self):
        return len(self.primes)

    def __str__(self):
        return ",".join(str(p) for p in sorted(self.primes))


@dataclass(frozen=True)
class Factorization:
    """value = prod p^e with primes strictly increasing and e >= 1."""

    value: int
    factors: tuple

    def __post_init__(self):
        if self.value < 1:
            raise DomainError("factorization of a nonpositive value")
        prod = 1
        last = 1
        for p, e in self.factors:
            if e < 1 or p <= last:
                raise DomainError("factors must be (increasing prime, exponent>=1)")
            last = p
            prod *= p ** e
        if prod != self.value:
            raise DomainError("factor list does not reconstruct the value")


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Deterministic trial division with a 2,3,5 wheel.

    Results are cached; Factorization is immutable so sharing is safe.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    m = n
    out = []
    while m > 1:
        p = _least_factor(m)
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return Factorization(n, tuple(out))


def vp(p: int, n: int) -> int:
    """Exponent of the largest power of p dividing n (n nonzero)."""
    if n == 0:
        raise DomainError("vp is undefined at 0")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mobius(n: int) -> int:
    """0 on non-squarefree n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise DomainError("mobius requires n >= 1")
    f = factorize(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def mobius_sieve(n: int) -> list[int]:
    """mu(0..n) as a list, sieved from primes_up_to(n).

    Each prime flips the sign at its multiples and zeroes the multiples of
    its square; n is guarded at PRIME_SIEVE_LIMIT by the prime sieve.
    """
    mu = [1] * (n + 1)
    mu[0] = 0
    for p in primes_up_to(n):
        mu[p::p] = [-v for v in mu[p::p]]
        square = p * p
        mu[square::square] = [0] * (n // square)
    return mu


def smallest_prime_factors(n: int) -> list[int]:
    """spf[i] = smallest prime factor of i, for 0 <= i <= n.

    Each prime p <= sqrt(n) is written at its multiples from p^2 on, the
    largest prime first, so the last prime written at m is its smallest.
    """
    spf = list(range(n + 1))
    for p in reversed(primes_up_to(math.isqrt(n))):
        spf[p * p::p] = [p] * ((n - p * p) // p + 1)
    return spf


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)  # exact for ints, floats, strings


def divisors_of_cube(n: int, lo, hi) -> list[Factorization]:
    """Divisors d of n^3 with lo < d <= hi, ascending, each factored.

    The window is half-open on the left.  Bounds may be int, Fraction or
    float; each is floored once, exactly (no floating point), since for an
    integer d, lo < d <= hi exactly when floor(lo) < d <= floor(hi).
    Divisors grow prime by prime; a partial product past hi, or one that
    stays at or below lo times every p^(3e) still to come, is dropped.
    """
    if n < 1:
        raise DomainError("divisors_of_cube requires n >= 1")
    lo = math.floor(_as_fraction(lo))
    hi = math.floor(_as_fraction(hi))
    divs = [(1, ())]
    rest = n ** 3  # the product of p^(3e) over the primes still to come
    for p, e in factorize(n).factors:
        rest //= p ** (3 * e)
        grown = []
        for d, fs in divs:
            if d * rest > lo:
                grown.append((d, fs))
            for f in range(1, 3 * e + 1):
                d *= p
                if d > hi:  # partial products only grow
                    break
                if d * rest > lo:
                    grown.append((d, fs + ((p, f),)))
        divs = grown
    return [Factorization(d, fs) for d, fs in sorted(divs) if lo < d <= hi]


# B_0, B_1, B_2, ... as Fractions, convention B_1 = -1/2, grown by bernoulli.
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]


def bernoulli(m: int) -> Fraction:
    """Exact B_m for even m >= 2 (B_2 = 1/6, B_4 = -1/30).

    From sum_{j <= r} C(r+1, j) B_j = 0, over one table shared by every
    call; the odd B_j past B_1 are 0 and skipped.
    """
    if m < 2 or m % 2:
        raise DomainError("bernoulli requires even m >= 2")
    bs = _BERNOULLI
    while len(bs) <= m:
        r = len(bs)
        if r % 2:
            bs.append(Fraction(0))
            continue
        s = (r + 1) * bs[1] + sum(math.comb(r + 1, j) * bs[j] for j in range(0, r, 2))
        bs.append(-s / (r + 1))
    return bs[m]


# zeta(m) in fixed point: _zeta_fixed's Euler-Maclaurin cutoff N and number
# of corrections, and its floors (15 terms, the integral, the half term and
# the corrections), each of which drops less than one unit of 2^-_FIXED_BITS.
_FIXED_BITS = 128
_ZETA_N = 16
_ZETA_CORRECTIONS = 8
_ZETA_FLOORS = _ZETA_N - 1 + 2 + _ZETA_CORRECTIONS


def _zeta_fixed(m: int) -> tuple:
    """(z, remainder) for an integer m >= 2, z = zeta(m) 2^_FIXED_BITS.

    Euler-Maclaurin summation: sum_{i < N} i^-m + N^(1-m)/(m-1) + N^-m/2
    plus the corrections B_2j/(2j)! m(m+1)...(m+2j-2) N^(1-m-2j), each
    term floored to an integer, so z lies below the sum by less than
    _ZETA_FLOORS.  remainder, a float, is the size of the first omitted
    correction, which bounds |sum - zeta(m)| for real m > 1.  Every power
    is an exact integer, so the cost grows with m.
    """
    one = 1 << _FIXED_BITS
    n = _ZETA_N
    z = sum(one // i**m for i in range(1, n)) + one // ((m - 1) * n ** (m - 1))
    z += one // (2 * n**m)
    for j in range(1, _ZETA_CORRECTIONS + 2):
        b = bernoulli(2 * j)
        num = b.numerator * math.prod(range(m, m + 2 * j - 1))
        den = b.denominator * math.factorial(2 * j) * n ** (m + 2 * j - 1)
        if j > _ZETA_CORRECTIONS:
            return z, abs(num) / den
        z += num * one // den


def zeta_real(m: int) -> float:
    """zeta(m) for an integer m >= 2: _zeta_fixed's sum, rounded once.

    Correctly rounded at every m from 2 to 520 (the tests check each
    against mpmath): the sum is within 10^-21 of zeta(m).
    """
    if m < 2 or m % 1:
        raise DomainError("zeta_real requires an integer m >= 2")
    return _zeta_fixed(int(m))[0] / 2**_FIXED_BITS
