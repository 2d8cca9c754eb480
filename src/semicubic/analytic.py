"""Euler factors of the counting Dirichlet series and the main-term constants.

The double series sum_n sum_{d | n^3} rstar(d) 1_S(n^2/d) / (n^s d^w)
factors over primes.  Each factor has a closed rational form in
x = p^(-s), y = p^(-w), z = p^(2k-1); dividing out three zeta factors
leaves a local factor close to 1, whose product over all primes gives
the constant in the B^(4k-1) log B main terms.

The closed forms here are certified against the raw series (fp_series,
built from the actual multiplicative model with rstar(p^0) = 1).  At
p = 2 this certification forces two corrections relative to the uniform
two-term weight A z^b + B that the tabulated specializations rest on
(the model is 1 at exponent 0, not A + B, and one numerator misfactors):

* both p = 2 cases carry the correction term (1 - A - B)/(1 - x);
* the case of 2 outside the set uses the numerators
  1 + x^2 y z - x^2 y^3 z^3 - x^3 y^4 z^4 and 1 + x^2 y - x^2 y^3 - x^3 y^4
  (the factored form would expand to x^4 y^4 z^4 in place of x^3 y^4 z^4).

gp_special keeps the tabulated specializations verbatim so the
disagreement at p = 2 is computed and reported, never hidden; the Euler
product always rests on the certified route.  In the in-set case the
correction term is the only difference: the three zeta denominators are
1/8 at (1, 2k-1) and 1/(1 - x) is 2, so

    gp - gp_special = (1 - A - B)/4,

which is -1/2 for odd k and +1/2 for even k, with (A, B) the exact
_p2_coefficients(k).

At the centre point (s, w) = (1, 2k-1) an odd prime's factor needs no
power of p: with u = 1/p, x = u, y = u^(2k-1) and z = u^-(2k-1), every
monomial is a power of u, so gp - 1 = N(u) / D(u) with integer
polynomials N and D (_centre_coefficients), evaluated by Horner
(_centre_h) for every odd prime in euler_product and local_factors, a
prime of the set above the cutoff included.  p = 2, gp, fp_closed,
gp_special and centre_factors keep the closed forms above.

The constant G that every prediction rests on is euler_constant: the
factors of the primes up to 100 (and of the set's primes above 100) one
by one, and the primes above 100 outside the set through the exact
expansion log gp = sum_m c_m p^-m, summed over the primes as
sum_m c_m T(m) with T(m) = sum_{p > 100} p^-m, with a certified bound on
the relative error of the G printed.  euler_product, the direct product up
to a prime cutoff, is its reference.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

from .arith import (
    _FIXED_BITS,
    _ZETA_FLOORS,
    DomainError,
    PrimeSet,
    _zeta_fixed,
    bernoulli,
    is_prime,
    primes_up_to,
    zeta_real,
)
from .reps import _p2_coefficients, r4k_main_coeff

SERIES_TERM_FLOOR = 1e-22  # a-terms below this cannot move any tested digit


@dataclass(frozen=True)
class EulerFactorInput:
    p: int
    k: int
    in_S: bool
    s: float
    w: float

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        _check_point(self.k, self.s, self.w)


def _check_point(k: int, s: float, w: float) -> None:
    """The checks of EulerFactorInput that do not depend on p.

    The pole guard of the closed form runs here for every prime at once:
    |1 - p^-e| grows with p, so p = 2 is the prime nearest to a pole.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if not (s > 15 / 16 and w > 2 * k - 17 / 16):
        raise DomainError("(s, w) outside the holomorphy domain")
    for exponent in (s, s + 2 * w, s + 3 * w, s + 2 * (w - 2 * k + 1), s + 3 * (w - 2 * k + 1)):
        _denominator(2, exponent)


@dataclass
class EulerProductResult:
    value: float
    prime_cutoff: int
    tail_estimate: float


# The monomials sign * x^a y^b z^c, as (sign, a, b, c), of the numerator
# 1 + f_poly outside the set (f_poly's 23, in the order summed) and of the
# nine-term numerator of odd primes in the set.  Every one has b >= c.
_F_TERMS = (
    (1, 2, 1, 1), (-1, 2, 3, 3), (-1, 3, 4, 4), (1, 1, 2, 1), (1, 1, 3, 2),
    (1, 2, 1, 0), (-1, 2, 3, 2), (-1, 2, 5, 4), (-1, 3, 4, 3), (1, 1, 3, 1),
    (-1, 2, 3, 1), (-1, 2, 5, 3), (1, 3, 5, 3), (-1, 2, 3, 0), (-1, 2, 5, 2),
    (-1, 3, 4, 1), (1, 3, 5, 2), (1, 3, 6, 3), (1, 4, 7, 4), (-1, 2, 5, 1),
    (-1, 3, 4, 0), (1, 4, 7, 3), (1, 4, 8, 4),
)
_IN_S_TERMS = (
    (1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1), (1, 1, 2, 0), (1, 1, 2, 1),
    (1, 1, 2, 2), (1, 1, 3, 1), (1, 1, 3, 2), (1, 2, 4, 2),
)


def _monomial_sum(terms, x, y, z):
    """The sum of sign * x^a y^b z^c over terms, left to right; each power is taken once."""
    xs = (1, x, x**2, x**3, x**4)
    ys = (1, y, y**2, y**3, y**4, y**5, y**6, y**7, y**8)
    zs = (1, z, z**2, z**3, z**4)
    total = 0
    for sign, a, b, c in terms:
        total += sign * xs[a] * ys[b] * zs[c]
    return total


def f_poly(x: float, y: float, z: float) -> float:
    """The 23-term numerator polynomial for odd primes outside the set.

    All coefficients are +-1; every term carries a factor xy, and the
    values at (1,1,1) sum to -1.  Its monomials are _F_TERMS.
    """
    return _monomial_sum(_F_TERMS, x, y, z)


def fp_series(inp: EulerFactorInput, a_max: int = 60) -> float:
    """Raw Euler-factor double sum, truncated at a_max.

    Requires the convergent region s > 1, w > 2k - 1.  Prime-power
    weights are the multiplicative model itself (1 at exponent 0); the
    geometric pieces are summed as y^b and (yz)^b, both < 1 here, so no
    large intermediate appears.  Deterministic for fixed input.

    The sum over a of x^a times the inner sum over b <= 3a is taken as a
    double loop would take it, bit for bit, but each weight is evaluated
    once: the inner sums are read off left-to-right partial sums of the
    weights (_series_core).  Float addition is not associative, so a
    reordered or compensated sum (math.fsum, or sum() from Python 3.12 on)
    would move the last bits.
    """
    _check_series_region(inp.k, inp.s, inp.w)
    if a_max < 0:
        raise DomainError("a_max must be nonnegative")
    return _series_core(inp.p, inp.k, inp.in_S, inp.s, inp.w, a_max)


def _check_series_region(k: int, s: float, w: float) -> None:
    if not (s > 1 and w > 2 * k - 1):
        raise DomainError("series evaluation requires s > 1 and w > 2k - 1")


def _series_core(p: int, k: int, in_s: bool, s: float, w: float, a_max: int) -> float:
    """fp_series at a prime p and a point in the convergent region, a_max >= 0.

    part[j] is the left-to-right sum ((0.0 + w_0) + w_1) + ... + w_(j-1) of
    the weights w_b.  The inner sum of a is part[3a + 1] in the set and at
    a = 0; outside the set, where b = 2a - 1 is skipped, it is part[2a - 1]
    plus w_2a, ..., w_3a in that order: the additions of the double loop,
    in its order.
    """
    x = p ** (-s)
    y = p ** (-w)
    yz = p ** (2 * k - 1 - w)
    if p == 2:
        fa, fb = _p2_coefficients(k)
        A, B = float(fa), float(fb)

        def weighted(b: int) -> float:
            if b == 0:
                return 1.0
            return A * yz**b + B * y**b
    else:
        z = float(p) ** (2 * k - 1)
        zc = 1.0 / (1.0 - z)

        def weighted(b: int) -> float:
            # y^b (1 - z^(b+1)) / (1 - z), without forming z^b
            return (y**b - z * yz**b) * zc

    weights = []
    part = [0.0]
    total = 0.0
    xa = 1.0
    for a in range(a_max + 1):
        if a:
            xa *= x
        top = 3 * a + 1
        for b in range(len(weights), top):
            weights.append(wb := weighted(b))
            part.append(part[-1] + wb)
        if in_s or not a:
            inner = part[top]
        else:
            inner = part[2 * a - 1]
            for b in range(2 * a, top):
                inner += weights[b]
        term = xa * inner
        total += term
        if a >= 2 and abs(term) < SERIES_TERM_FLOOR:
            break
    return total


def _denominator(p: float, exponent: float) -> float:
    d = 1.0 - p ** (-exponent)
    if abs(d) < 1e-14:
        raise DomainError(f"closed form has a pole: 1 - p^-{exponent} ~ 0")
    return d


def _local_factor(p: int, k: int, in_s: bool, s: float, w: float) -> tuple:
    """(pre, fp) at a prime p and a point (s, w) that passed _check_point.

    fp is the certified closed form of the Euler factor, pre the product of
    its three zeta denominators, and gp = pre * fp.  Each power of p is
    taken once; the pole guard ran in _check_point.
    """
    x = p ** (-s)
    y = p ** (-w)
    z = float(p) ** (2 * k - 1)
    d_x = 1.0 - x
    d_xy2z2 = 1.0 - p ** -(s + 2 * (w - 2 * k + 1))
    d_xy3z3 = 1.0 - p ** -(s + 3 * (w - 2 * k + 1))
    d_xy3 = 1.0 - p ** -(s + 3 * w)
    pre = d_x * d_xy2z2 * d_xy3z3
    if p != 2:
        if in_s:
            num = _monomial_sum(_IN_S_TERMS, x, y, z)
            return pre, num / (d_x * d_xy3 * d_xy3z3)
        d_xy2 = 1.0 - p ** -(s + 2 * w)
        return pre, (1.0 + f_poly(x, y, z)) / (d_x * d_xy3 * d_xy2 * d_xy3z3 * d_xy2z2)

    fa, fb = _p2_coefficients(k)
    A, B = float(fa), float(fb)
    correction = (1.0 - A - B) / d_x  # the model is 1 at exponent 0, not A + B
    if in_s:
        part_a = (1 + x * y * z + x * y**2 * z**2) / (d_x * d_xy3z3)
        part_b = (1 + x * y + x * y**2) / (d_x * d_xy3)
        return pre, A * part_a + B * part_b + correction
    d_xy2 = 1.0 - p ** -(s + 2 * w)
    num_a = 1 + x**2 * y * z - x**2 * y**3 * z**3 - x**3 * y**4 * z**4
    num_b = 1 + x**2 * y - x**2 * y**3 - x**3 * y**4
    part_a = num_a / (d_x * d_xy2z2 * d_xy3z3)
    part_b = num_b / (d_x * d_xy2 * d_xy3)
    return pre, A * part_a + B * part_b + correction


def fp_closed(inp: EulerFactorInput) -> float:
    """Certified rational closed form of the Euler factor."""
    return _local_factor(inp.p, inp.k, inp.in_S, inp.s, inp.w)[1]


def gp(inp: EulerFactorInput) -> float:
    """Local factor: three zeta denominators times the closed Euler factor."""
    pre, fp = _local_factor(inp.p, inp.k, inp.in_S, inp.s, inp.w)
    return pre * fp


def gp_special(p: int, k: int, in_S: bool) -> float:
    """Tabulated specialization of the local factor at (1, 2k-1), verbatim.

    Cross-check only: the odd-prime cases agree with gp to rounding, the
    p = 2 cases do not (see module docstring); the comparison is reported
    by the local-factors table and the verification suite.  With 2 in the
    set the two differ exactly by the exponent-0 term,
    gp - gp_special = (1 - A - B)/4 with (A, B) = _p2_coefficients(k),
    i.e. -1/2 for odd k and +1/2 for even k.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return _gp_special(p, k, in_S)


def _gp_special(p: int, k: int, in_S: bool) -> float:
    """gp_special for a p known to be prime."""
    if p != 2:
        pf = float(p)
        if in_S:
            return (
                (1 + 2 / pf + 3 / pf ** (2 * k) + (2 * pf + 1) / pf ** (4 * k))
                * (1 - 1 / pf)
                / (1 - pf ** (-(6 * k - 2)))
            )
        return (
            (
                1
                - 1 / pf**3
                + (2 * pf**2 - pf - 1) / pf ** (2 * k + 2)
                + (pf**2 - 2 * pf + 1) / pf ** (4 * k + 1)
                - (2 * pf**2 - pf - 1) / pf ** (6 * k + 1)
                - (pf**2 + pf - 2) / pf ** (8 * k)
            )
            / (1 - pf ** (-(4 * k - 1)))
            / (1 - pf ** (-(6 * k - 2)))
        )
    sign = (-1.0) ** k
    if in_S:
        return (
            1
            - sign / (1 - 2.0 ** (2 * k - 1))
            - sign
            * (1 - 2.0 ** (2 * k))
            * (1 + 2.0 ** (-2 * k) + 2.0 ** (-4 * k + 1))
            / (4 * (1 - 2.0 ** (2 * k - 1)) * (1 - 2.0 ** (-6 * k + 2)))
        )
    return (
        (15.0 / 128.0) * (sign / (1 - 2.0 ** (2 * k - 1)))
        - sign
        * (1 - 2.0 ** (2 * k))
        * (1 + 2.0 ** (-2 * k - 1))
        * (1 - 2.0 ** (-6 * k + 1))
        / (
            4
            * (1 - 2.0 ** (-4 * k + 1))
            * (1 - 2.0 ** (-6 * k + 2))
            * (1 - 2.0 ** (2 * k - 1))
        )
    )


@lru_cache(maxsize=64)
def _centre_coefficients(k: int, in_s: bool) -> tuple:
    """Pairs (N_i, D_i), highest degree first: g_p - 1 = N(u) / D(u) at (1, 2k-1), u = 1/p.

    For odd p.  At the centre x = u, y = u^m and z = u^-m with m = 2k - 1,
    so x^a y^b z^c = u^(a + m(b - c)), a polynomial in u since b >= c in
    every monomial.  Outside the set gp = (1 + f_poly) / D with
    D = (1 - u^(4k-1)) (1 - u^(6k-2)); in it gp = (1 - u) num / D with
    D = 1 - u^(6k-2) and num the nine-term numerator.  N is that numerator
    less D.  The coefficients are exact integers, held as floats.
    """
    m = 2 * k - 1
    if in_s:
        den = [(0, 1), (6 * k - 2, -1)]
        num = [(a + m * (b - c) + shift, sign * f)
               for sign, a, b, c in _IN_S_TERMS for shift, f in ((0, 1), (1, -1))]
    else:
        den = [(0, 1), (4 * k - 1, -1), (6 * k - 2, -1), (10 * k - 3, 1)]
        num = [(0, 1)] + [(a + m * (b - c), sign) for sign, a, b, c in _F_TERMS]
    coefficients = [[0, 0] for _ in range(1 + max(e for e, _ in num + den))]
    for e, c in num:
        coefficients[e][0] += c
    for e, c in den:
        coefficients[e][0] -= c
        coefficients[e][1] += c
    return tuple((float(n), float(d)) for n, d in reversed(coefficients))


def _centre_h(p: int, coefficients: tuple) -> float:
    """g_p - 1 at (1, 2k-1) for an odd prime p, by Horner in u = 1/p on
    _centre_coefficients(k, in_s)."""
    u = 1.0 / p
    n = d = 0.0
    for a, b in coefficients:
        n = n * u + a
        d = d * u + b
    return n / d


def _centre_sweep(k: int, s_set: PrimeSet, prime_cutoff: int) -> tuple:
    """(g_2, odd, outside, inside) at (1, 2k-1), for euler_product and local_factors.

    k and the point are checked, and g_2 = gp(2) comes from _local_factor
    before anything else is built, so a k past its float range is refused
    before the coefficient lists of about 10k entries; odd holds the sieved
    odd primes up to the cutoff, outside and inside their coefficients.
    """
    w = 2.0 * k - 1.0
    _check_point(k, 1.0, w)
    pre, fp = _local_factor(2, k, 2 in s_set, 1.0, w)
    primes = primes_up_to(prime_cutoff)
    if not primes:
        raise DomainError(f"prime cutoff {prime_cutoff} must be >= 2")
    return pre * fp, primes[1:], _centre_coefficients(k, False), _centre_coefficients(k, True)


def _series_closed_sweep(k: int, s: float, w: float, prime_cutoff: int) -> float:
    """The worst relative difference, over the primes up to the cutoff, each
    outside the set, between the Euler factor's series fp_series(p, 60) and
    its closed form fp_closed at (s, w).

    The point is checked once, as EulerFactorInput and fp_series check it, and
    the primes come from the sieve, so no prime is tested; the closed form is
    fp from _local_factor, and the series is _series_core.
    """
    _check_point(k, s, w)
    _check_series_region(k, s, w)
    worst = 0.0
    for p in primes_up_to(prime_cutoff):
        fp = _local_factor(p, k, False, s, w)[1]
        worst = max(worst, abs(_series_core(p, k, False, s, w, 60) - fp) / abs(fp))
    return worst


def _centre_logs(k: int, s_set: PrimeSet, prime_cutoff: int) -> tuple:
    """(logs, sides): the logs of G's factors at (1, 2k-1), for euler_product
    and euler_constant, after _centre_sweep's checks.

    logs[0] is log g_2 from _centre_sweep, and logs[i + 1] is the log of the
    odd factor sides[i] = (p, in_s, sign), from _centre_h: each odd prime up
    to the cutoff once, on its side of the set, with sign 1, then each prime
    of the set above the cutoff twice, as log gp(p, in the set) with sign 1
    and -log gp(p, outside it) with sign -1.  A factor <= 0 raises
    ArithmeticError.
    """
    g2, odd, *coefficients = _centre_sweep(k, s_set, prime_cutoff)
    s_primes = s_set.primes
    sides = [(p, p in s_primes, 1) for p in odd]
    sides += [(p, in_s, sign) for p in s_primes if p > prime_cutoff
              for in_s, sign in ((True, 1), (False, -1))]
    try:
        logs = [math.log(g2)]
        logs += [sign * math.log1p(_centre_h(p, coefficients[in_s])) for p, in_s, sign in sides]
    except ValueError:  # the log of a factor <= 0
        raise ArithmeticError("Euler product is not positive") from None
    return logs, sides


def euler_product(k: int, s_set: PrimeSet, prime_cutoff: int) -> EulerProductResult:
    """Product of local factors at (1, 2k-1) over primes up to the cutoff and the set.

    exp of the math.fsum of _centre_logs, so the tail covers the primes
    above the cutoff outside the set.  The sum is correctly rounded whatever
    the order of the primes, and G is within a few units in the last place
    of the product of these factors.  The tail estimate is
    C / (cutoff log cutoff) * 1.5 with C the largest |log gp| p^2 over the
    primes 10 < p <= cutoff outside the set (in the set it is about p): a
    fit, not a bound.  This is the direct product that euler_constant's
    series replaces in every prediction; it stays as their reference.  The
    logs are held as one list: at a cutoff of 10^6 (78,498 primes) one cold
    call takes 0.13-0.30 s at k = 1 and peaks at 28 MiB (VmHWM) on a
    2-core x86 machine.
    """
    if prime_cutoff < 100:
        raise DomainError("prime cutoff must be at least 100")
    logs, sides = _centre_logs(k, s_set, prime_cutoff)
    fit = max((abs(log_g) * p * p for log_g, (p, in_s, sign) in zip(logs[1:], sides)
               if p > 10 and not in_s and sign > 0), default=0.0)
    tail = 1.5 * fit / (prime_cutoff * math.log(prime_cutoff))
    return EulerProductResult(value=math.exp(math.fsum(logs)), prime_cutoff=prime_cutoff,
                              tail_estimate=tail)


# euler_constant multiplies the primes up to _HEAD_CUTOFF one by one and
# takes the rest as sum_{m=2}^{_TAIL_TERMS} c_m T(m), T(m) = sum_{p > 100}
# p^-m, with zeta_100(m) in fixed point with _FIXED_BITS fractional bits.
_HEAD_CUTOFF = 100
_TAIL_TERMS = 20
_U = 2.0**-53  # the unit roundoff of a float
# The relative error of g_2 from _local_factor at (1, 2k-1): at most 2^-52
# at every k it reaches, both sides of the set, against exact rationals (the
# tests check each k); twice that is allowed here.
_P2_ERROR = 2.0**-51


def _horner_bound(coefficients: tuple) -> tuple:
    """(K, v) with |log1p(_centre_h(p, coefficients)) - log gp| <= K (3/p)^v
    for every odd prime p, before log1p's own rounding.

    Horner at u = fl(1/p) leaves the degree-i coefficient of N and of D
    times (1 + t), |t| <= (3i + 1) 2^-53 (i roundings of u, 2i + 1 of the
    steps), and N has no term below u^v, so for u <= 1/3 the sums over
    i >= v of c_i u^i are at most (3u)^v times their values at 1/3.  With
    D >= d_lo and |h| <= (3u)^v n_hi / d_lo there, the error of h = N/D
    and of log1p(h), over gp >= g_lo, follows to first order; the bounds
    are taken 2% wide.  Terms past 3^-679 underflow to 0 and are dropped.
    """
    n = [abs(a) for a, _ in reversed(coefficients)]
    d = [abs(b) for _, b in reversed(coefficients)]
    v = next(i for i, a in enumerate(n) if a)
    third = [3.0**-i for i in range(len(n))]
    n_hi = math.fsum(map(operator.mul, n, third))
    n_err = math.fsum((3 * i + 1) * a * w for i, (a, w) in enumerate(zip(n, third)))
    d_err = math.fsum((3 * i + 1) * b * w for i, (b, w) in enumerate(zip(d, third)))
    d_lo = 2.0 - math.fsum(map(operator.mul, d, third))  # d[0] = 1
    h_hi = n_hi / d_lo
    g_lo = 1.0 - h_hi  # at least 0.39 at every k euler_constant takes (the tests check each)
    return 1.02 * _U * ((n_err + h_hi * d_err) / d_lo + h_hi) / g_lo, v


def _log_series(poly: list, terms: int) -> list:
    """[b_0, ..., b_terms] with u P'(u) / P(u) = sum b_m u^m, for integer
    coefficients poly (lowest degree first, poly[0] = 1): log P = sum b_m u^m / m.
    """
    a = (poly + [0] * terms)[: terms + 1]
    b = [0]
    for m in range(1, terms + 1):
        b.append(m * a[m] - sum(a[i] * b[m - i] for i in range(1, m)))
    return b


@lru_cache(maxsize=64)
def _centre_expansion(k: int) -> tuple:
    """(c, truncation, bounds) for euler_constant at k.

    c[m] is the coefficient of u^m in log gp = log(1 + N/D) outside the set
    (_centre_coefficients(k, False)), m = 0.._TAIL_TERMS, exact integers
    over m; c[0] = c[1] = 0.  truncation bounds sum_{m > _TAIL_TERMS}
    |c_m| T(m): by Cauchy's bound the roots of a polynomial 1 + a_1 u + ...
    of degree n lie outside 1/R, R = 1 + max |a_i|, so the u^m coefficient
    of its log is at most n R^m / m, and T(m) <= 101^-m (1 + 101/(m-1)).
    bounds[in_s] is _horner_bound's pair on that side of the set.
    """
    coefficients = _centre_coefficients(k, False)
    den = [int(b) for _, b in reversed(coefficients)]
    num = [int(a) + b for (a, _), b in zip(reversed(coefficients), den)]
    terms = _TAIL_TERMS
    c = [(x - y) / m if m else 0.0
         for m, (x, y) in enumerate(zip(_log_series(num, terms), _log_series(den, terms)))]
    degree = len(den) - 1
    q = max(1 + max(map(abs, poly[1:])) for poly in (num, den)) / (_HEAD_CUTOFF + 1)
    truncation = (2 * degree * q ** (terms + 1) / (1 - q)
                  * (1 + (_HEAD_CUTOFF + 1) / terms) / (terms + 1))
    return tuple(c), truncation, (_horner_bound(coefficients),
                                  _horner_bound(_centre_coefficients(k, True)))


@lru_cache(maxsize=1)
def _prime_zeta_tail() -> tuple:
    """(T, err): T[m] = sum_{p > 100} p^-m and a bound on its error, m = 2.._TAIL_TERMS.

    Independent of k and the set, so built once per process.  From the top
    down, T(m) = log zeta_100(m) - sum_{r >= 2} T(rm)/r, the Moebius
    inversion of log zeta_100(s) = sum_r T(rs)/r; the r with rm > 20 are
    bounded, not summed.  zeta_100(m) = zeta(m) prod_{p <= 100} (1 - p^-m)
    is taken in fixed point: zeta(m) from _zeta_fixed, as zeta_real takes
    it, then one floor per prime, each within one unit of 2^-128.  Only
    zeta_100(m) - 1, about 101^-m, is rounded to a float.  Taken as
    log zeta(m) + sum log1p(-p^-m) in floats, log zeta_100(m) would carry
    an error near 2^-53 at every m, which the largest c_m multiply (it
    moved G by 1e-6 with m up to 60).  log1p is taken within two units in
    the last place.
    """
    terms = _TAIL_TERMS
    one = 1 << _FIXED_BITS
    small = primes_up_to(_HEAD_CUTOFF)
    # what the inversion leaves out at any m: sum_{j > 20} T(j), with
    # T(j) <= sum_{i >= 101} i^-j <= 101^-j (1 + 101/(j - 1))
    beyond = 2 * (_HEAD_CUTOFF + 1) ** -(terms + 1) * (1 + (_HEAD_CUTOFF + 1) / terms)
    floors = (_ZETA_FLOORS + len(small)) / one  # one unit per floor
    t = [0.0] * (terms + 1)
    err = [0.0] * (terms + 1)
    for m in range(terms, 1, -1):
        z, remainder = _zeta_fixed(m)
        for p in small:
            z -= z // p**m
        rough = (z - one) / one
        higher = [-t[r * m] / r for r in range(2, terms // m + 1)]
        log_rough = math.log1p(rough)
        t[m] = math.fsum([log_rough, *higher])
        err[m] = (1.01 * (remainder + floors + _U * abs(rough)) + 4 * _U * abs(log_rough)
                  + beyond + _U * abs(t[m])
                  + math.fsum((err[r * m] + _U * abs(t[r * m])) / r
                              for r in range(2, terms // m + 1)))
    return tuple(t), tuple(err)


def euler_constant(k: int, s_set: PrimeSet) -> EulerProductResult:
    """G_S(1, 2k-1) over every prime, with a certified relative error bound.

    log G = sum_{p <= 100} log gp + sum_{m=2}^{20} c_m T(m) (Cohen 1998;
    Ettahri-Ramare-Surel 2021): the head is _centre_logs at a cutoff of
    100, as euler_product takes it, so a prime of the set above 100 enters
    as log gp(in the set) - log gp(outside it); every other prime above 100
    is outside the set, and its log gp = sum_m c_m p^-m is summed over the
    primes through T(m) (_centre_expansion, _prime_zeta_tail).  G is exp
    of one math.fsum of both parts.

    tail_estimate is a bound on |G_printed / G - 1| for the G printed to 15
    significant digits: the head's rounding (_P2_ERROR, two units in the
    last place per log, and _horner_bound's term for each odd factor, read
    off the same sides that _centre_logs returned with the logs summed), the
    tail's (T's error times |c_m|, and the truncation at m = 20), the fsum
    and the exp, and half a unit in the 15th digit: 1.6e-15 to 7.5e-15 on
    the benchmark's eight (k, set) pairs.  prime_cutoff is 100.
    """
    head, sides = _centre_logs(k, s_set, _HEAD_CUTOFF)  # k and p = 2 checked first
    c, truncation, bounds = _centre_expansion(k)
    t, t_err = _prime_zeta_tail()
    tail = [c[m] * t[m] for m in range(2, _TAIL_TERMS + 1)]
    log_g = math.fsum(head + tail)
    value = math.exp(log_g)

    head_err = 1.01 * _P2_ERROR + 4 * _U * math.fsum(map(abs, head))
    for p, in_s, _ in sides:
        scale, v = bounds[in_s]
        head_err += scale * (3 / p) ** v
    tail_err = truncation + math.fsum(abs(c[m]) * (t_err[m] + 4 * _U * abs(t[m]))
                                      for m in range(2, _TAIL_TERMS + 1))
    computed = 1.01 * (head_err + tail_err + _U * abs(log_g)) + 4 * _U  # and exp's
    exponent = int(f"{value:.14e}".partition("e")[2])
    printed = 0.5 * 10.0 ** (exponent - 14) / value
    bound = computed + printed * (1 + computed)
    return EulerProductResult(value=value, prime_cutoff=_HEAD_CUTOFF, tail_estimate=bound)


def _main_terms(k: int, g: float, lead: float, bound) -> dict:
    """Leading main terms at B from the Euler product g and leading constant."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    size = bound ** (4 * k - 1) * math.log(bound)
    return {
        "n_main": lead * size,
        "s_main": g / (3 * (2 * k - 1)) * size,
        "t_main": g / (6 * (2 * k - 1) * (3 * k - 1)) * size,
    }


def centre_factors(p: int, k: int, in_S: bool) -> tuple:
    """(gp, gp_special) at the centre point (s, w) = (1, 2k-1)."""
    inp = EulerFactorInput(p=p, k=k, in_S=in_S, s=1.0, w=2.0 * k - 1.0)
    return gp(inp), _gp_special(p, k, in_S)


def local_factors(k: int, s_set: PrimeSet, prime_cutoff: int):
    """An iterator of (p, in_S, gp, gp_special) at (1, 2k-1) for each prime up to the cutoff.

    Each row is computed when it is asked for, but every check runs in this
    call, so a table written row by row is never cut short: _centre_sweep's,
    and the float range of gp_special, whose powers grow with p, so among
    the odd primes in the set, and among those outside it, the largest
    overflows first.  gp is _centre_sweep's at p = 2 and 1 + _centre_h at
    the odd primes, as in euler_product.  At a cutoff of 10^6 one cold
    `local-factors` takes about 0.45-0.7 s and peaks at 20 MiB on a 2-core
    x86 machine.
    """
    g2, odd, outside, inside = _centre_sweep(k, s_set, prime_cutoff)
    s_primes = s_set.primes
    last_in = max((p for p in s_primes if 2 < p <= prime_cutoff), default=None)
    last_out = next((p for p in reversed(odd) if p not in s_primes), None)
    for p in filter(None, (last_in, last_out)):
        _gp_special(p, k, p in s_primes)  # raises any OverflowError before the first row

    def row(p: int) -> tuple:
        in_s = p in s_primes
        g = 1.0 + _centre_h(p, inside if in_s else outside)
        return p, in_s, g, _gp_special(p, k, in_s)

    in_2 = 2 in s_primes
    return itertools.chain([(2, in_2, g2, _gp_special(2, k, in_2))], map(row, odd))


def leading_constant(k: int, s_set: PrimeSet) -> float:
    """4k G_S(1,2k-1) / ((3k-1)(4^k-1)|B_2k| zeta(4k-1))."""
    return constants_report(k, s_set)["leading_constant"]


def predict(bound: float, k: int, s_set: PrimeSet) -> dict:
    """Leading main terms at B: the tuple count and the two auxiliary sums."""
    row = constants_report(k, s_set, [bound])["predictions"][0]
    del row["bound"]
    return row


def constants_report(k: int, s_set: PrimeSet, bounds=()) -> dict:
    """Everything the prediction rests on, with G's certified error bound.

    G and its bound come from euler_constant, over every prime.  OverflowError
    where the prefactor or the leading constant is not a normal float (k >= 109).
    """
    ep = euler_constant(k, s_set)
    z = zeta_real(4 * k - 1)
    pre = float(r4k_main_coeff(k) / (3 * k - 1))  # the exact rational, rounded once
    lead = pre * ep.value / z
    if min(pre, lead) < sys.float_info.min:
        raise OverflowError(f"the leading constant leaves the float range at k = {k}")
    g2, g2_special = centre_factors(2, k, 2 in s_set)
    return {
        "schema": "v1",
        "k": k,
        "exclude_primes": str(s_set),
        "bernoulli_2k": str(abs(bernoulli(2 * k))),
        "zeta_4k_minus_1": z,
        "prefactor": pre / z,
        "euler_product": ep.value,
        "euler_product_tail_estimate": ep.tail_estimate,
        "leading_constant": lead,
        "g2_special_vs_certified_abs_diff": abs(g2_special - g2),
        "predictions": [
            {"bound": b, **_main_terms(k, ep.value, lead, b)} for b in bounds
        ],
    }
