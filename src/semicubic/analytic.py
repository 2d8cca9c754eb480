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
        if self.k < 1:
            raise DomainError("k must be >= 1")
        if not (self.s > 15 / 16 and self.w > 2 * self.k - 17 / 16):
            raise DomainError("(s, w) outside the holomorphy domain")


@dataclass
class EulerProductResult:
    value: float
    prime_cutoff: int
    tail_estimate: float
    per_prime_log: list = None


def f_poly(x: float, y: float, z: float) -> float:
    """The 23-term numerator polynomial for odd primes outside the set.

    All coefficients are +-1; every term carries a factor xy, and the
    values at (1,1,1) sum to -1.
    """
    return (
        x * x * y * z
        - x**2 * y**3 * z**3
        - x**3 * y**4 * z**4
        + x * y**2 * z
        + x * y**3 * z**2
        + x**2 * y
        - x**2 * y**3 * z**2
        - x**2 * y**5 * z**4
        - x**3 * y**4 * z**3
        + x * y**3 * z
        - x**2 * y**3 * z
        - x**2 * y**5 * z**3
        + x**3 * y**5 * z**3
        - x**2 * y**3
        - x**2 * y**5 * z**2
        - x**3 * y**4 * z
        + x**3 * y**5 * z**2
        + x**3 * y**6 * z**3
        + x**4 * y**7 * z**4
        - x**2 * y**5 * z
        - x**3 * y**4
        + x**4 * y**7 * z**3
        + x**4 * y**8 * z**4
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


def fp_closed(inp: EulerFactorInput) -> float:
    """Certified rational closed form of the Euler factor."""
    p, k, s, w = inp.p, inp.k, inp.s, inp.w
    x = p ** (-s)
    y = p ** (-w)
    z = float(p) ** (2 * k - 1)
    d_x = _denominator(p, s)
    d_xy3z3 = _denominator(p, s + 3 * (w - 2 * k + 1))
    if p != 2:
        d_xy3 = _denominator(p, s + 3 * w)
        if inp.in_S:
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
            return num / (d_x * d_xy3 * d_xy3z3)
        d_xy2 = _denominator(p, s + 2 * w)
        d_xy2z2 = _denominator(p, s + 2 * (w - 2 * k + 1))
        return (1.0 + f_poly(x, y, z)) / (d_x * d_xy3 * d_xy2 * d_xy3z3 * d_xy2z2)

    fa, fb = _p2_coefficients(k)
    A, B = float(fa), float(fb)
    correction = (1.0 - A - B) / d_x  # the model is 1 at exponent 0, not A + B
    if inp.in_S:
        d_xy3 = _denominator(p, s + 3 * w)
        part_a = (1 + x * y * z + x * y**2 * z**2) / (d_x * d_xy3z3)
        part_b = (1 + x * y + x * y**2) / (d_x * d_xy3)
        return A * part_a + B * part_b + correction
    d_xy3 = _denominator(p, s + 3 * w)
    d_xy2 = _denominator(p, s + 2 * w)
    d_xy2z2 = _denominator(p, s + 2 * (w - 2 * k + 1))
    num_a = 1 + x**2 * y * z - x**2 * y**3 * z**3 - x**3 * y**4 * z**4
    num_b = 1 + x**2 * y - x**2 * y**3 - x**3 * y**4
    part_a = num_a / (d_x * d_xy2z2 * d_xy3z3)
    part_b = num_b / (d_x * d_xy2 * d_xy3)
    return A * part_a + B * part_b + correction


def gp(inp: EulerFactorInput) -> float:
    """Local factor: three zeta denominators times the closed Euler factor."""
    p, k, s, w = inp.p, inp.k, inp.s, inp.w
    pre = (
        (1.0 - p ** (-s))
        * (1.0 - p ** (-s - 2 * (w - 2 * k + 1)))
        * (1.0 - p ** (-s - 3 * (w - 2 * k + 1)))
    )
    return pre * fp_closed(inp)


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


def euler_product(
    k: int, s_set: PrimeSet, prime_cutoff: int, keep_factors: bool = False
) -> EulerProductResult:
    """Product of local factors at (1, 2k-1) over primes up to the cutoff.

    Sequential multiplication over sorted primes, so the value is
    bit-stable.  The tail estimate is C / (cutoff log cutoff) * 1.5 with
    C fitted from the observed |log gp| p^2 decay.
    """
    if prime_cutoff < 100:
        raise DomainError("prime cutoff must be at least 100")
    w = 2.0 * k - 1.0
    value = 1.0
    c_fit = 0.0
    factors = [] if keep_factors else None
    for p in primes_up_to(prime_cutoff):
        g = gp(EulerFactorInput(p=p, k=k, in_S=p in s_set, s=1.0, w=w))
        value *= g
        if p > 10:
            c_fit = max(c_fit, abs(math.log(g)) * p * p)
        if keep_factors:
            factors.append((p, g))
    if value <= 0:
        raise ArithmeticError("Euler product is not positive")
    tail = 1.5 * c_fit / (prime_cutoff * math.log(prime_cutoff))
    return EulerProductResult(
        value=value,
        prime_cutoff=prime_cutoff,
        tail_estimate=tail,
        per_prime_log=factors,
    )


def _prefactor(k: int) -> float:
    """4k / ((3k-1)(4^k-1)|B_2k|), the rational part of the leading constant."""
    return 4 * k / ((3 * k - 1) * (4**k - 1) * float(abs(bernoulli(2 * k))))


def _main_terms(k: int, g: float, lead: float, bound) -> dict:
    """Leading main terms at B from the Euler product g and leading constant."""
    size = bound ** (4 * k - 1) * math.log(bound)
    return {
        "n_main": lead * size,
        "s_main": g / (3 * (2 * k - 1)) * size,
        "t_main": g / (6 * (2 * k - 1) * (3 * k - 1)) * size,
    }


def leading_constant(k: int, s_set: PrimeSet, prime_cutoff: int) -> float:
    """4k G_S(1,2k-1) / ((3k-1)(4^k-1)|B_2k| zeta(4k-1))."""
    g = euler_product(k, s_set, prime_cutoff).value
    return _prefactor(k) * g / zeta_real(4 * k - 1)


def predict(bound: float, k: int, s_set: PrimeSet, prime_cutoff: int) -> dict:
    """Leading main terms at B: the tuple count and the two auxiliary sums."""
    if bound <= 1:
        raise DomainError("bound must exceed 1")
    g = euler_product(k, s_set, prime_cutoff).value
    return _main_terms(k, g, _prefactor(k) * g / zeta_real(4 * k - 1), bound)


def constants_report(
    k: int, s_set: PrimeSet, prime_cutoff: int, bounds=()
) -> dict:
    """Everything the prediction rests on, with truncation metadata."""
    ep = euler_product(k, s_set, prime_cutoff)
    z = zeta_real(4 * k - 1)
    pre = _prefactor(k)
    lead = pre * ep.value / z
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
        "g2_special_vs_certified_abs_diff": abs(
            gp_special(2, k, 2 in s_set)
            - gp(EulerFactorInput(p=2, k=k, in_S=2 in s_set, s=1.0, w=2.0 * k - 1.0))
        ),
        "predictions": [
            {"bound": b, **_main_terms(k, ep.value, lead, b)} for b in bounds
        ],
    }
