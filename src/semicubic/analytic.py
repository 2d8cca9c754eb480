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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import DomainError, PrimeSet, bernoulli, is_prime, primes_up_to, zeta_real
from .reps import _p2_coefficients

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
    """
    p, k, s, w = inp.p, inp.k, inp.s, inp.w
    if not (s > 1 and w > 2 * k - 1):
        raise DomainError("series evaluation requires s > 1 and w > 2k - 1")
    if a_max < 0:
        raise DomainError("a_max must be nonnegative")
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

    total = 0.0
    xa = 1.0
    for a in range(a_max + 1):
        if a:
            xa *= x
        inner = 0.0
        for b in range(3 * a + 1):
            if not inp.in_S and b == 2 * a - 1:
                continue
            inner += weighted(b)
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


def euler_product(k: int, s_set: PrimeSet, prime_cutoff: int) -> EulerProductResult:
    """Product of local factors at (1, 2k-1) over primes up to the cutoff and the set.

    exp of the math.fsum of log gp: p = 2 from _centre_sweep, each odd
    prime up to the cutoff as log1p of its _centre_h, and each prime of the
    set above it as log gp(p, in the set) - log gp(p, outside it), both
    from _centre_h, so the tail covers the primes above the cutoff outside
    the set.  The sum is correctly rounded whatever the order of the
    primes, and G is within a few units in the last place of the product
    of these factors.  The tail estimate is C / (cutoff log cutoff) * 1.5
    with C the largest |log gp| p^2 over the primes 10 < p <= cutoff
    outside the set (in the set it is about p).  At a cutoff of 10^6
    (78,498 primes) one cold `predict` takes about 0.16-0.29 s at k = 1
    and 2 on a 2-core x86 machine.
    """
    if prime_cutoff < 100:
        raise DomainError("prime cutoff must be at least 100")
    g2, odd, outside, inside = _centre_sweep(k, s_set, prime_cutoff)
    s_primes = s_set.primes
    c_fit = 0.0

    def logs():
        nonlocal c_fit
        yield math.log(g2)
        for p in odd:
            if p in s_primes:
                yield math.log1p(_centre_h(p, inside))
                continue
            log_g = math.log1p(_centre_h(p, outside))
            if p > 10 and (fit := abs(log_g) * p * p) > c_fit:
                c_fit = fit
            yield log_g
        for p in s_primes:
            if p > prime_cutoff:
                yield math.log1p(_centre_h(p, inside))
                yield -math.log1p(_centre_h(p, outside))

    try:
        value = math.exp(math.fsum(logs()))
    except ValueError:  # the log of a factor <= 0
        raise ArithmeticError("Euler product is not positive") from None
    tail = 1.5 * c_fit / (prime_cutoff * math.log(prime_cutoff))
    return EulerProductResult(value=value, prime_cutoff=prime_cutoff, tail_estimate=tail)


def _prefactor(k: int) -> float:
    """4k / ((3k-1)(4^k-1)|B_2k|), the rational part of the leading constant."""
    return 4 * k / ((3 * k - 1) * (4**k - 1) * float(abs(bernoulli(2 * k))))


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


def leading_constant(k: int, s_set: PrimeSet, prime_cutoff: int) -> float:
    """4k G_S(1,2k-1) / ((3k-1)(4^k-1)|B_2k| zeta(4k-1))."""
    return constants_report(k, s_set, prime_cutoff)["leading_constant"]


def predict(bound: float, k: int, s_set: PrimeSet, prime_cutoff: int) -> dict:
    """Leading main terms at B: the tuple count and the two auxiliary sums."""
    row = constants_report(k, s_set, prime_cutoff, [bound])["predictions"][0]
    del row["bound"]
    return row


def constants_report(
    k: int, s_set: PrimeSet, prime_cutoff: int, bounds=()
) -> dict:
    """Everything the prediction rests on, with truncation metadata."""
    ep = euler_product(k, s_set, prime_cutoff)
    z = zeta_real(4 * k - 1)
    pre = _prefactor(k)
    lead = pre * ep.value / z
    g2, g2_special = centre_factors(2, k, 2 in s_set)
    return {
        "schema": "v1",
        "k": k,
        "exclude_primes": str(s_set),
        "prime_cutoff": prime_cutoff,
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
