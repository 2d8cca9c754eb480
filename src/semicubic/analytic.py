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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def f_poly(x: float, y: float, z: float) -> float:
    """The 23-term numerator polynomial for odd primes outside the set.

    All coefficients are +-1; every term carries a factor xy, and the
    values at (1,1,1) sum to -1.  Each power is taken once.
    """
    x2, x3, x4 = x**2, x**3, x**4
    y2, y3, y4, y5, y6, y7, y8 = y**2, y**3, y**4, y**5, y**6, y**7, y**8
    z2, z3, z4 = z**2, z**3, z**4
    return (
        x * x * y * z
        - x2 * y3 * z3
        - x3 * y4 * z4
        + x * y2 * z
        + x * y3 * z2
        + x2 * y
        - x2 * y3 * z2
        - x2 * y5 * z4
        - x3 * y4 * z3
        + x * y3 * z
        - x2 * y3 * z
        - x2 * y5 * z3
        + x3 * y5 * z3
        - x2 * y3
        - x2 * y5 * z2
        - x3 * y4 * z
        + x3 * y5 * z2
        + x3 * y6 * z3
        + x4 * y7 * z4
        - x2 * y5 * z
        - x3 * y4
        + x4 * y7 * z3
        + x4 * y8 * z4
    )


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
            num = (
                1
                + x * y
                + x * y * z
                + x * y**2
                + x * y**2 * z
                + x * y**2 * z**2
                + x * y**3 * z
                + x * y**3 * z**2
                + x**2 * y**4 * z**2
            )
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


def euler_product(k: int, s_set: PrimeSet, prime_cutoff: int) -> EulerProductResult:
    """Product of local factors at (1, 2k-1) over primes up to the cutoff and the set.

    Sequential multiplication over sorted primes, so the value is
    bit-stable.  A prime of the set above the cutoff enters as
    gp(p, in the set) / gp(p, outside it), so the tail covers the primes
    above the cutoff outside the set.  The tail estimate is
    C / (cutoff log cutoff) * 1.5 with C the largest |log gp| p^2 over the
    primes 10 < p <= cutoff outside the set (in the set it is about p).
    k, (s, w) and the pole guard are checked once, before the first prime;
    each sieve prime then goes through _local_factor as it stands, with no
    primality re-check and no input object.  At a cutoff of 10^6 (78,498
    primes) one cold `predict` takes about 0.35-0.47 s on a 2-core x86 machine.
    """
    if prime_cutoff < 100:
        raise DomainError("prime cutoff must be at least 100")
    w = 2.0 * k - 1.0
    _check_point(k, 1.0, w)
    value = 1.0
    c_fit = 0.0
    for p in primes_up_to(prime_cutoff):
        in_s = p in s_set
        pre, fp = _local_factor(p, k, in_s, 1.0, w)
        g = pre * fp
        value *= g
        if p > 10 and not in_s:
            c_fit = max(c_fit, abs(math.log(g)) * p * p)
    for p in sorted(q for q in s_set.primes if q > prime_cutoff):
        pre_in, fp_in = _local_factor(p, k, True, 1.0, w)
        pre_out, fp_out = _local_factor(p, k, False, 1.0, w)
        value *= (pre_in * fp_in) / (pre_out * fp_out)
    if value <= 0:
        raise ArithmeticError("Euler product is not positive")
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
    call, so a table written row by row is never cut short: k and (s, w),
    the sieve's limit, and the float range.  The float powers of p grow
    with p, so among the odd primes in the set, and among those outside
    it, the largest overflows first; both are computed here.  p = 2, the
    one prime with formulas of its own, is the first row.  Rows come from
    _local_factor, as in euler_product.  At a cutoff of 10^6 one cold
    `local-factors` takes about 0.7-0.9 s and peaks at 20 MiB on a
    2-core x86 machine.
    """
    w = 2.0 * k - 1.0
    _check_point(k, 1.0, w)
    primes = primes_up_to(prime_cutoff)

    def row(p: int) -> tuple:
        in_s = p in s_set
        pre, fp = _local_factor(p, k, in_s, 1.0, w)
        return p, in_s, pre * fp, _gp_special(p, k, in_s)

    last_in = max((p for p in s_set.primes if 2 < p <= prime_cutoff), default=None)
    last_out = next((p for p in reversed(primes) if p > 2 and p not in s_set), None)
    for p in (last_in, last_out):
        if p is not None:
            row(p)  # raises any OverflowError before the first row is read
    return map(row, primes)


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
