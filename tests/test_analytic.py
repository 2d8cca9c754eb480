import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from semicubic import analytic
from semicubic.arith import (
    DomainError,
    PrimeSet,
    bernoulli,
    primes_up_to,
    zeta_real,
)
from semicubic.analytic import (
    EulerFactorInput,
    centre_factors,
    constants_report,
    euler_constant,
    euler_product,
    f_poly,
    fp_closed,
    fp_series,
    gp,
    gp_special,
    leading_constant,
    predict,
)
from semicubic.reps import _p2_coefficients


def _inp(p, k, in_S, s, w):
    return EulerFactorInput(p=p, k=k, in_S=in_S, s=s, w=w)


# --- the numerator polynomial ----------------------------------------------

def test_f_poly_vanishes_without_x_or_y():
    assert f_poly(0.0, 0.3, 1.7) == 0.0
    assert f_poly(0.4, 0.0, 1.7) == 0.0


def test_f_poly_signed_coefficient_sum():
    # 23 monomials with coefficients +-1; 11 positive, 12 negative
    assert f_poly(1, 1, 1) == -1


def _closed_forms(x, y, z):
    """The closed Euler factor before its zeta prefactor, (in the set, outside
    it): the nine-term numerator over three factors, and 1 + F over five."""
    nine = (1 + x*y + x*y*z + x*y**2 + x*y**2*z + x*y**2*z**2
            + x*y**3*z + x*y**3*z**2 + x**2*y**4*z**2)
    in_s = nine / ((1 - x) * (1 - x*y**3) * (1 - x*y**3*z**3))
    out = (1 + f_poly(x, y, z)) / (
        (1 - x) * (1 - x*y**3) * (1 - x*y**2) * (1 - x*y**3*z**3) * (1 - x*y**2*z**2))
    return in_s, out


def test_f_poly_identity_exact():
    # (1+F) / five factors = nine-term form - xy(1+z) correction, exactly
    pts = [
        (Fraction(1, 3), Fraction(1, 5), Fraction(7, 2)),
        (Fraction(2, 7), Fraction(3, 11), Fraction(13, 3)),
        (Fraction(1, 13), Fraction(5, 9), Fraction(31, 7)),
        (Fraction(5, 8), Fraction(1, 2), Fraction(9, 4)),
    ]
    for x, y, z in pts:
        nine_form, lhs = _closed_forms(x, y, z)
        rhs = nine_form - x*y*(1 + z) / ((1 - x*y**2) * (1 - x*y**2*z**2))
        assert lhs == rhs, (x, y, z)


def _times_one_minus(poly, mono, x_max):
    """poly * (1 - x^a y^b z^c) for mono = (a, b, c), above x-degree x_max dropped."""
    out = dict(poly)
    for (a, b, c), v in poly.items():
        if a + mono[0] <= x_max:
            key = (a + mono[0], b + mono[1], c + mono[2])
            out[key] = out.get(key, 0) - v
    return {key: v for key, v in out.items() if v}


def test_odd_prime_numerators_from_the_model_series():
    # the model's local series F = sum_a x^a sum_{b <= 3a} y^b (1 + z + ... + z^b),
    # with b = 2a - 1 skipped outside the set, times the closed form's zeta
    # denominators is the numerator, in integers: each denominator has
    # x-degree 1, so the product is exact up to the series' last a = 10, and
    # every coefficient of x-degree 5 to 10 is 0
    a_max = 10
    outside = ((1, 0, 0, 0),) + analytic._F_TERMS
    for in_s, terms, denominators in (
        (False, outside, ((1, 0, 0), (1, 3, 0), (1, 3, 3), (1, 2, 0), (1, 2, 2))),
        (True, analytic._IN_S_TERMS, ((1, 0, 0), (1, 3, 0), (1, 3, 3))),
    ):
        poly = {(a, b, c): 1 for a in range(a_max + 1) for b in range(3 * a + 1)
                if in_s or b != 2 * a - 1 for c in range(b + 1)}
        for mono in denominators:
            poly = _times_one_minus(poly, mono, a_max)
        want = {(a, b, c): sign for sign, a, b, c in terms}
        assert len(want) == len(terms) == (9 if in_s else 24)
        assert poly == want, in_s


def _at(poly, x, y, z):
    """The polynomial poly, as {(a, b, c): coefficient}, at (x, y, z)."""
    return sum(v * x**a * y**b * z**c for (a, b, c), v in poly.items())


def test_p2_numerators_from_the_model_series():
    # p = 2's weights are 1 at b = 0 and A z^b + B for b >= 1, so its series
    # is A H(x, yz) + B H(x, y) + (1 - A - B)/(1 - x), with
    # H(x, Y) = sum_a x^a sum_{b <= 3a} Y^b and b = 2a - 1 skipped outside
    # the set.  H times its zeta denominators is each part's numerator, in
    # integers, and every coefficient of x-degree 5 to 10 is 0; g_2 assembled
    # from these parts at the centre is _p2_exact's, which transcribes
    # _local_factor's p = 2 branch
    a_max = 10
    parts = {}
    for in_s in (False, True):
        for c in (1, 0):  # Y = yz for part a, Y = y for part b
            poly = {(a, b, c * b): 1 for a in range(a_max + 1) for b in range(3 * a + 1)
                    if in_s or b != 2 * a - 1}
            denominators = [(1, 0, 0), (1, 3, 3 * c)] + ([] if in_s else [(1, 2, 2 * c)])
            for mono in denominators:
                poly = _times_one_minus(poly, mono, a_max)
            if in_s:  # 1 + x Y + x Y^2
                want = {(0, 0, 0): 1, (1, 1, c): 1, (1, 2, 2 * c): 1}
            else:  # 1 + x^2 Y - x^2 Y^3 - x^3 Y^4
                want = {(0, 0, 0): 1, (2, 1, c): 1, (2, 3, 3 * c): -1, (3, 4, 4 * c): -1}
            assert not [key for key in poly if key[0] >= 5], (in_s, c)
            assert poly == want, (in_s, c)
            parts[in_s, c] = poly, denominators
    for k in range(1, 7):
        x, y, z = Fraction(1, 2), Fraction(1, 2 ** (2 * k - 1)), Fraction(2 ** (2 * k - 1))
        a, b = _p2_coefficients(k)
        pre = (1 - x) * (1 - x * (y * z) ** 2) * (1 - x * (y * z) ** 3)
        for in_s in (False, True):
            part_a, part_b = (
                _at(num, x, y, z) / math.prod(1 - _at({mono: 1}, x, y, z) for mono in den)
                for num, den in (parts[in_s, 1], parts[in_s, 0]))
            g2 = pre * (a * part_a + b * part_b + (1 - a - b) / (1 - x))
            assert g2 == _p2_exact(k, in_s), (k, in_s)


def test_centre_polynomials_are_the_closed_form(centre_factor_exact):
    # at x = 1/p, y = p^-(2k-1), z = p^(2k-1): three zeta denominators times
    # the closed Euler factor, exactly
    for k in range(1, 7):
        for p in (3, 5, 7, 11, 101, 65537):
            x, y, z = Fraction(1, p), Fraction(1, p ** (2 * k - 1)), Fraction(p ** (2 * k - 1))
            pre = (1 - x) * (1 - x * (y*z)**2) * (1 - x * (y*z)**3)
            in_s, out = _closed_forms(x, y, z)
            assert centre_factor_exact(p, k, True) == pre * in_s, (k, p)
            assert centre_factor_exact(p, k, False) == pre * out, (k, p)


def test_euler_product_against_a_30_digit_product(mp_euler_product):
    # G is exp of an fsum of logs: within 1e-15 of the product of its factors
    for k in (1, 2, 3):
        for s_set in (PrimeSet.empty(), PrimeSet.of(2, 3)):
            got = euler_product(k, s_set, 10**5).value
            assert abs(got / mp_euler_product(k, s_set, 10**5) - 1) <= 1e-15, (k, str(s_set))


# --- series vs closed forms --------------------------------------------------

def test_series_first_term():
    i = _inp(5, 1, True, 2.0, 2.0)
    assert fp_series(i, 0) == 1.0


def test_series_matches_closed_k3():
    for p in (2, 3, 7):
        for in_S in (True, False):
            i = _inp(p, 3, in_S, 2.0, 6.0)
            assert abs(fp_series(i, 60) - fp_closed(i)) <= 1e-9


def test_series_equals_the_double_loop(fp_series_reference):
    # bit for bit, not to a tolerance: each weight once, the same additions
    for p in (2, 3, 5, 7, 1999):
        for k in (1, 2, 3, 6):
            for in_S in (True, False):
                for s, dw in ((1.0001, 1e-4), (1.5, 0.5), (2.0, 1.0), (3.0, 2.0), (8.0, 5.0)):
                    i = _inp(p, k, in_S, s, 2 * k - 1 + dw)
                    for a_max in (0, 1, 2, 5, 60, 80):
                        assert fp_series(i, a_max) == fp_series_reference(i, a_max), (i, a_max)


def test_series_closed_sweep_checks_its_point_first(monkeypatch):
    def evaluated(*args):
        raise AssertionError("a prime was evaluated before the point was checked")

    monkeypatch.setattr(analytic, "_series_core", evaluated)
    monkeypatch.setattr(analytic, "_local_factor", evaluated)
    # outside the holomorphy domain, outside the convergent region, and k < 1
    for k, s, w in ((1, 0.5, 2.0), (1, 2.0, -1.0), (1, 1.0, 1.0), (2, 2.0, 3.0), (0, 2.0, 2.0)):
        with pytest.raises(DomainError):
            analytic._series_closed_sweep(k, s, w, 10**4)


def test_series_requires_convergent_region():
    with pytest.raises(DomainError):
        fp_series(_inp(3, 1, False, 1.0, 1.0))


def test_input_domain_validation():
    with pytest.raises(DomainError):
        _inp(4, 1, False, 2.0, 2.0)
    with pytest.raises(DomainError):
        _inp(3, 1, False, 0.5, 2.0)
    with pytest.raises(DomainError):
        _inp(3, 2, False, 2.0, 1.0)


# --- frozen closed-form values ----------------------------------------------

def test_fp_closed_hand_values():
    # p=2 outside the set, k=1, (s,w)=(1,1): 3*(1+x^2 y-x^2 y^3-x^3 y^4)
    #   /((1-x)(1-xy^2)(1-xy^3)) - 2/(1-x) at x=y=1/2 gives 138/35
    assert abs(fp_closed(_inp(2, 1, False, 1.0, 1.0)) - 138 / 35) < 1e-14
    # odd prime in the set: nine-term numerator over three factors
    assert abs(fp_closed(_inp(3, 1, True, 1.0, 1.0)) - 1521 / 320) < 1e-13


def test_gp_hand_values():
    assert abs(gp(_inp(2, 1, False, 1.0, 1.0)) - 69 / 140) < 1e-14
    assert abs(gp(_inp(2, 1, True, 1.0, 1.0)) - 3 / 5) < 1e-14
    assert abs(gp(_inp(3, 1, True, 1.0, 1.0)) - 169 / 120) < 1e-13


def test_gp_certified_p2_exact_rational():
    # the float route against the corrected p=2 closed form in exact arithmetic
    for k in (1, 2):
        for in_S in (True, False):
            got = gp(_inp(2, k, in_S, 1.0, 2.0 * k - 1.0))
            assert abs(got - float(_p2_exact(k, in_S))) < 1e-13, (k, in_S)


def test_pole_guard(monkeypatch):
    # unreachable from inside the holomorphy domain, but guarded anyway
    from semicubic.analytic import _denominator

    with pytest.raises(DomainError):
        _denominator(2.0, 1e-15)
    assert _denominator(2.0, 1.0) == 0.5

    # every public entry reaches the guard once per point, before the first
    # prime: gp and fp_closed through their EulerFactorInput
    def pole(p, exponent):
        raise DomainError("pole")

    monkeypatch.setattr(analytic, "_denominator", pole)
    with pytest.raises(DomainError, match="pole"):
        _inp(3, 1, False, 2.0, 2.0)
    with pytest.raises(DomainError, match="pole"):
        euler_product(1, PrimeSet.empty(), 1000)
    with pytest.raises(DomainError, match="pole"):
        analytic.local_factors(1, PrimeSet.empty(), 1000)


# --- tabulated specializations ----------------------------------------------

def test_gp_special_case2_exact_value():
    # independent exact-rational evaluation of the tabulated case at p=5, k=1
    p, k = 5, 1
    num = (Fraction(1) - Fraction(1, p**3)
           + Fraction(2*p*p - p - 1, p**(2*k + 2))
           + Fraction(p*p - 2*p + 1, p**(4*k + 1))
           - Fraction(2*p*p - p - 1, p**(6*k + 1))
           - Fraction(p*p + p - 2, p**(8*k)))
    exact = num / (1 - Fraction(1, p**(4*k - 1))) / (1 - Fraction(1, p**(6*k - 2)))
    assert exact == Fraction(26047, 24180)
    assert abs(gp_special(5, 1, False) - float(exact)) < 1e-15
    assert abs(gp(_inp(5, 1, False, 1.0, 1.0)) - float(exact)) < 1e-13


def test_gp_special_p2_differences_are_reported_values():
    # the tabulated p=2 specializations inherit the exponent-0 weight slip;
    # the exact differences are +-1/2 in the in-set case
    d1 = gp_special(2, 1, True) - gp(_inp(2, 1, True, 1.0, 1.0))
    d2 = gp_special(2, 2, True) - gp(_inp(2, 2, True, 1.0, 3.0))
    assert abs(d1 - 0.5) < 1e-12
    assert abs(d2 + 0.5) < 1e-12
    d3 = gp_special(2, 1, False) - gp(_inp(2, 1, False, 1.0, 1.0))
    assert abs(d3 - (4989 / 4480 - 69 / 140)) < 1e-12
    # the tabulated value even turns negative at k=2, violating positivity
    assert gp_special(2, 2, False) < 0 < gp(_inp(2, 2, False, 1.0, 3.0))


# --- products and constants ---------------------------------------------------

def test_triple_zeta_identity_truncated():
    # fp_closed / gp is the Euler factor of zeta(s) zeta(s + 2u) zeta(s + 3u),
    # u = w - (2k - 1): over the primes up to P the logs sum to the logs of
    # the three zeta values, less a tail of at most P^(1-e) / (e - 1) each
    cutoff = 10**4
    for k in (1, 2):
        for s, w in ((2.0, 2.0 * k), (3.0, 2.0 * k + 1)):
            exponents = [s + j * (w - 2 * k + 1) for j in (0, 2, 3)]
            lhs = math.fsum(math.log(fp_closed(i) / gp(i))
                            for p in primes_up_to(cutoff) for i in [_inp(p, k, False, s, w)])
            rhs = math.fsum(math.log(zeta_real(e)) for e in exponents)
            tail = sum(cutoff ** (1 - e) / (e - 1) for e in exponents)
            assert -1e-11 <= rhs - lhs <= tail + 1e-11, (k, s, w, rhs - lhs)


def test_local_factor_decay():
    worst = 0.0
    for p in primes_up_to(10**5):
        g = gp(_inp(p, 1, False, 1.0, 1.0))
        worst = max(worst, abs(g - 1.0) * p ** 1.25)
    # recorded witness: the maximum sits at p = 2 and is about 1.21
    assert worst < 2.0


def test_local_factors_positive():
    for k in (1, 2):
        for p in primes_up_to(10**5):
            assert gp(_inp(p, k, p == 2, 1.0, 2.0 * k - 1.0)) > 0
            assert gp(_inp(p, k, False, 1.0, 2.0 * k - 1.0)) > 0


def test_euler_product_properties():
    with pytest.raises(DomainError):
        euler_product(1, PrimeSet.empty(), 50)
    ep = euler_product(1, PrimeSet.empty(), 2000)
    ep2 = euler_product(1, PrimeSet.of(2), 2000)
    ratio = gp(_inp(2, 1, True, 1.0, 1.0)) / gp(_inp(2, 1, False, 1.0, 1.0))
    assert abs(ep2.value / ep.value - ratio) < 1e-12
    assert ep.tail_estimate >= 0
    assert euler_product(2, PrimeSet.empty(), 10**4).value > 0
    # determinism
    assert euler_product(1, PrimeSet.empty(), 2000).value == ep.value


def test_euler_product_primes_of_s_above_the_cutoff(mp_euler_product):
    # 101 enters at cutoff 100 as its in-set factor over its outside one, so
    # G at 100 lies within its tail of G at 200, where 101 is a sieve prime
    s101 = PrimeSet.of(101)
    for k in (1, 2):
        at100, at200 = (euler_product(k, s101, c) for c in (100, 200))
        assert abs(at100.value / at200.value - 1) <= at100.tail_estimate, k
        assert abs(at100.value / mp_euler_product(k, s101, 100) - 1) <= 1e-15, k


def test_euler_product_tail_is_fitted_outside_s():
    # an odd prime of S has |log gp| of about 1/p, not p^-2: it stays out of the fit
    for k in (1, 2):
        with_101, without = (euler_product(k, s, 200).tail_estimate
                             for s in (PrimeSet.of(101), PrimeSet.empty()))
        assert without / 2 <= with_101 <= 2 * without, k


def test_leading_constant_prefactors():
    for k, s_set in ((1, PrimeSet.empty()), (2, PrimeSet.empty()), (108, PrimeSet.empty())):
        lead = leading_constant(k, s_set)
        g = euler_constant(k, s_set).value
        pre = 4 * k / ((3 * k - 1) * (4**k - 1) * float(abs(bernoulli(2 * k))))
        assert abs(lead - pre * g / zeta_real(4 * k - 1)) < 1e-12 * abs(lead)
    assert abs(
        leading_constant(1, PrimeSet.empty())
        / euler_constant(1, PrimeSet.empty()).value
        - 4 / zeta_real(3)
    ) < 1e-12
    # from k = 109 on the prefactor is subnormal: the library refuses, as the CLI does
    for call in (leading_constant, lambda k, s_set: predict(10.0, k, s_set)):
        with pytest.raises(OverflowError, match="leading constant"):
            call(109, PrimeSet.empty())


def test_predict_identities():
    pr = predict(math.e, 1, PrimeSet.empty())
    lead = leading_constant(1, PrimeSet.empty())
    assert abs(pr["n_main"] - lead * math.e**3) <= 1e-9 * abs(pr["n_main"])
    for k in (1, 2):
        pk = predict(50.0, k, PrimeSet.empty())
        assert abs(pk["s_main"] / pk["t_main"] - 2 * (3 * k - 1)) < 1e-12
        coeff = 8 * k / ((4**k - 1) * float(abs(bernoulli(2 * k))))
        rebuilt = (pk["s_main"] - pk["t_main"]) * coeff / zeta_real(4 * k - 1)
        assert abs(pk["n_main"] - rebuilt) <= 1e-12 * abs(pk["n_main"])
    # one bound check serves predict and the report: B = 1 gives zero main terms
    row = constants_report(1, PrimeSet.empty(), bounds=[1])["predictions"][0]
    assert {"bound": 1, **predict(1, 1, PrimeSet.empty())} == row
    with pytest.raises(DomainError):
        predict(0.5, 1, PrimeSet.empty())


def test_constants_report_fields():
    rep = constants_report(1, PrimeSet.empty(), bounds=[10, 100])
    assert rep["schema"] == "v1"
    assert rep["bernoulli_2k"] == "1/6"
    assert len(rep["predictions"]) == 2
    assert rep["predictions"][1]["n_main"] > rep["predictions"][0]["n_main"]
    assert rep["g2_special_vs_certified_abs_diff"] > 0.1


# --- sieve primes are not re-checked ------------------------------------------

# the four prime sets of the benchmark grid (perfbench/workloads.py, S_GRID)
S_GRID = ("", "2", "2,3", "5,7")

# repr of (value, tail_estimate) of euler_product(k, S, 10**5); each value lies
# within 1e-16 relative of a 35-digit product of the same factors
EULER_PINS = {
    (1, ""): (0.7061360777613925, 2.6057668908982654e-06),
    (1, "2"): (0.8596439207529993, 2.6057668908982654e-06),
    (1, "2,3"): (1.0062001565766328, 2.6057668908982654e-06),
    (1, "5,7"): (0.9010534739535268, 2.6057668908982654e-06),
    (2, ""): (0.9185392720822466, 9.79922235732259e-08),
    (2, "2"): (1.0412646034356212, 9.79922235732259e-08),
    (2, "2,3"): (1.2041090245363777, 9.79922235732259e-08),
    (2, "5,7"): (1.1471322049983004, 9.79922235732259e-08),
    (3, ""): (0.818677991189888, 1.1831918609429199e-07),
    (3, "2"): (0.9377436216906674, 1.1831918609429199e-07),
    (3, "2,3"): (1.0822849018051648, 1.1831918609429199e-07),
    (3, "5,7"): (1.0216384225829, 1.1831918609429199e-07),
}

# sha256 over the repr lines of gp and fp_closed for p <= 1000, in and out of
# the set, at the verify suite's three points (s, w) and the centre point
# (1, 2k-1), recorded before the per-prime formula took plain arguments
GP_PINS = {
    (1, "gp"): "f6ca3691509b4122d368770f720df4d4c9576eec36cffd74e7587a25ffb164e2",
    (1, "fp_closed"): "7b14c7a57ae9a1863559b68e2912b394b1b9734c5a638265e0890a7d1141e8ff",
    (2, "gp"): "1920cc7273306b27482ff6b7406daf59661aafb0e813a1a6a7d8f47af2cc0bf0",
    (2, "fp_closed"): "79bc8596dcce2f35965e396d9b99b2d678a3e97a90dce295937380c43a679e63",
    (3, "gp"): "1602bbf4bfa988cf99e563165ad5b1b501739a03ebfd2afea32547e8e9a67731",
    (3, "fp_closed"): "95f3552f6afebbf8786a4e8e1babffd0541a7c0261c72431f7d936d30b1371c7",
}

# repr of (value, tail_estimate) of euler_product(k, S, 10**6) for the
# benchmark's predict configurations; within 1e-16 of the same product
EULER_PINS_1E6 = {
    (1, "2"): (0.8596451835249761, 2.1714724095119166e-07),
    (2, "2,3"): (1.204109024531413, 8.166018631102161e-09),
}


@pytest.mark.parametrize("k", (1, 2, 3))
def test_gp_and_fp_closed_pins(k):
    for name, f in (("gp", gp), ("fp_closed", fp_closed)):
        h = hashlib.sha256()
        for s, w in ((2.0, 2.0 * k), (1.5, 2.0 * k - 0.5), (3.0, 2.0 * k + 1),
                     (1.0, 2.0 * k - 1)):
            for p in primes_up_to(1000):
                for in_S in (False, True):
                    h.update((repr(f(_inp(p, k, in_S, s, w))) + "\n").encode())
        assert h.hexdigest() == GP_PINS[k, name], (k, name)


def test_euler_product_pins_at_harness_cutoff():
    for (k, s), pin in EULER_PINS_1E6.items():
        ep = euler_product(k, PrimeSet.parse(s), 10**6)
        assert (repr(ep.value), repr(ep.tail_estimate)) == tuple(map(repr, pin)), (k, s)


def test_sieved_primes_skip_is_prime(monkeypatch):
    sets = [PrimeSet.parse(s) for s in S_GRID]  # parsed while is_prime still works

    def refuse(n):
        raise AssertionError(f"is_prime({n}) called on a sieve prime")

    monkeypatch.setattr(analytic, "is_prime", refuse)
    for k in (1, 2):
        for s_set in sets:
            assert euler_product(k, s_set, 10**4).value > 0
        rows = list(analytic.local_factors(k, sets[2], 1000))
        assert [p for p, *_ in rows] == primes_up_to(1000)


def test_euler_product_visits_each_prime_once_in_order(monkeypatch):
    # p = 2 goes through _local_factor, each odd sieve prime, in order and
    # once, through the centre polynomials; local_factors makes the same calls
    calls = []
    for name in ("_local_factor", "_centre_h"):
        def counted(p, *args, name=name, f=getattr(analytic, name)):
            calls.append((name, p))
            return f(p, *args)

        monkeypatch.setattr(analytic, name, counted)
    euler_product(1, PrimeSet.of(2, 3), 10**4)
    primes = primes_up_to(10**4)
    expected = [("_local_factor", 2)] + [("_centre_h", p) for p in primes[1:]]
    assert calls == expected
    calls.clear()
    list(analytic.local_factors(1, PrimeSet.of(2, 3), 10**4))
    assert calls == expected
    # a prime of the set above the cutoff reaches the centre polynomials
    # twice, in the set and outside it, and never the general closed form
    calls.clear()
    euler_product(7, PrimeSet.of(3, 1000003), 10**4)
    assert calls == expected + [("_centre_h", 1000003)] * 2


def test_public_inputs_still_reject_composites():
    for k in (1, 2):
        with pytest.raises(DomainError, match="9 is not prime"):
            _inp(9, k, False, 1.0, 2.0 * k - 1.0)
        with pytest.raises(DomainError, match="9 is not prime"):
            gp_special(9, k, False)
        with pytest.raises(DomainError, match="9 is not prime"):
            centre_factors(9, k, True)
    # k and (s, w) are still checked once per product and per sweep
    for bad_k in (0, -1):
        with pytest.raises(DomainError, match="k must be >= 1"):
            euler_product(bad_k, PrimeSet.empty(), 1000)
        with pytest.raises(DomainError, match="k must be >= 1"):
            list(analytic.local_factors(bad_k, PrimeSet.empty(), 1000))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_euler_product_pins(k):
    for s in S_GRID:
        ep = euler_product(k, PrimeSet.parse(s), 10**5)
        assert (repr(ep.value), repr(ep.tail_estimate)) == tuple(
            map(repr, EULER_PINS[k, s])), (k, s)


# --- the certified constant ----------------------------------------------------

REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text())


def _g_refs():
    """((k, S), G) for each Euler-product reference of the benchmark."""
    for key, ref in REFS["G"].items():
        k, s = key.split("|")
        yield (int(k[2:]), s[2:]), ref["G"]


def test_mp_euler_constant_matches_the_references(mp_euler_constant):
    for (k, s), ref in _g_refs():
        g = mp_euler_constant(k, PrimeSet.parse(s))
        assert abs(g / Fraction(ref) - 1) <= Fraction(1, 10**25), (k, s)


def _assert_within_bound(ep, g):
    """G, and G as printed to 15 digits, lie within the bound of the constant g."""
    assert ep.prime_cutoff == 100 and 0 < ep.tail_estimate <= 1e-14
    for value in (ep.value, f"{ep.value:.15g}"):
        assert abs(Fraction(value) / Fraction(g) - 1) <= ep.tail_estimate, value


def test_euler_constant_within_its_bound(mp_euler_constant):
    sets = (*S_GRID, "101", "999999999989")
    for k in (1, 2, 3, 4, 5, 6, 20, 128):
        for s in sets:
            s_set = PrimeSet.parse(s)
            _assert_within_bound(euler_constant(k, s_set), mp_euler_constant(k, s_set))


def test_euler_constant_within_the_references():
    # without mpmath too: the benchmark's 30-digit constants
    for (k, s), ref in _g_refs():
        _assert_within_bound(euler_constant(k, PrimeSet.parse(s)), ref)


def test_euler_constant_refuses_as_the_product_does(monkeypatch):
    for bad_k in (0, -1):
        with pytest.raises(DomainError, match="k must be >= 1"):
            euler_constant(bad_k, PrimeSet.empty())
    # k = 129 overflows at p = 2 before any coefficient list is built
    monkeypatch.setattr(analytic, "_centre_coefficients", None)
    with pytest.raises(OverflowError):
        euler_constant(129, PrimeSet.empty())


def _p2_exact(k, in_s):
    """g_2 at (1, 2k-1) in exact rationals: _local_factor's p = 2 branch
    with x = 1/2, y = 2^-(2k-1), z = 2^(2k-1) and (A, B) exact."""
    x, y, z = Fraction(1, 2), Fraction(1, 2 ** (2 * k - 1)), Fraction(2 ** (2 * k - 1))
    a, b = _p2_coefficients(k)
    pre = (1 - x) * (1 - x * (y * z) ** 2) * (1 - x * (y * z) ** 3)
    correction = (1 - a - b) / (1 - x)
    if in_s:
        part_a = (1 + x * y * z + x * y**2 * z**2) / ((1 - x) * (1 - x * (y * z) ** 3))
        part_b = (1 + x * y + x * y**2) / ((1 - x) * (1 - x * y**3))
    else:
        part_a = (1 + x**2 * y * z - x**2 * y**3 * z**3 - x**3 * y**4 * z**4) / (
            (1 - x) * (1 - x * (y * z) ** 2) * (1 - x * (y * z) ** 3))
        part_b = (1 + x**2 * y - x**2 * y**3 - x**3 * y**4) / (
            (1 - x) * (1 - x * y**2) * (1 - x * y**3))
    return pre * (a * part_a + b * part_b + correction)


def test_certified_bound_counts_the_logged_odd_factors(monkeypatch):
    # with every odd factor's rounding bound set to 2^-10, the head's bound is
    # 2^-10 per odd factor that _centre_logs logged: the 24 odd primes up to
    # 100, each on its side of the set, and both sides of a prime of the set
    # above 100
    monkeypatch.setattr(analytic, "_horner_bound", lambda coefficients: (2.0**-10, 0))
    analytic._centre_expansion.cache_clear()
    try:
        for k in (1, 2):
            for primes, count in (((), 24), ((3,), 24), ((101,), 26), ((3, 101, 1000003), 28)):
                bound = euler_constant(k, PrimeSet.of(*primes)).tail_estimate
                assert abs(bound / (1.01 * 2.0**-10) - count) < 1e-9, (k, primes)
    finally:
        analytic._centre_expansion.cache_clear()


def test_p2_factor_within_its_rounding_bound():
    # _P2_ERROR allows twice the largest relative error of the float closed
    # form at p = 2 over every k it reaches, on both sides of the set
    worst = Fraction(0)
    edges = {}
    for in_s in (False, True):
        for k in range(1, 258):
            try:
                pre, fp = analytic._local_factor(2, k, in_s, 1.0, 2.0 * k - 1)
            except OverflowError:
                edges[in_s] = k
                break
            worst = max(worst, abs(Fraction(pre * fp) / _p2_exact(k, in_s) - 1))
    assert edges == {False: 129, True: 257}  # euler_constant's own edges
    assert worst <= analytic._P2_ERROR / 2, float(worst)


def test_horner_bound_holds(centre_factor_exact):
    # |log1p(_centre_h) - log gp| <= K (3/p)^v plus log1p's two units in the
    # last place, against the exact factor, on both sides of the set
    mpmath = pytest.importorskip("mpmath")
    primes = [*primes_up_to(100)[1:], 101, 65537, 999999999989]
    for k in range(1, 130):  # past 129 p = 2 overflows first
        for in_s in (False, True):
            bound, v = analytic._horner_bound(analytic._centre_coefficients(k, in_s))
            assert 0 < bound < 1e-14, (k, in_s)
            if k not in (1, 2, 3, 6, 20, 128):
                continue
            for p in primes:
                got = math.log1p(analytic._centre_h(p, analytic._centre_coefficients(k, in_s)))
                h = centre_factor_exact(p, k, in_s) - 1
                with mpmath.workdps(40):
                    err = abs(got - mpmath.log1p(mpmath.mpf(h.numerator) / h.denominator))
                assert err <= bound * (3 / p) ** v + 2.0**-51 * abs(got), (k, in_s, p)


def test_prime_zeta_tail_within_its_bound():
    mpmath = pytest.importorskip("mpmath")
    t, err = analytic._prime_zeta_tail()
    with mpmath.workdps(50):
        for m in range(2, analytic._TAIL_TERMS + 1):
            exact = mpmath.primezeta(m) - mpmath.fsum(mpmath.mpf(p) ** -m
                                                     for p in primes_up_to(100))
            assert abs(t[m] - exact) <= err[m] <= 1e-14 * exact + 1e-22, m


# sha256 of repr(_prime_zeta_tail()), recorded before its zeta(m) moved into
# arith._zeta_fixed
PRIME_ZETA_TAIL_SHA = "dca699008b7b83f62b81a2b7e5e4fb82d90d52fdac583318eb361261822a1066"


def test_prime_zeta_tail_bits_pinned():
    text = repr(analytic._prime_zeta_tail())
    assert hashlib.sha256(text.encode()).hexdigest() == PRIME_ZETA_TAIL_SHA


def test_constants_report_visits_only_the_head(monkeypatch):
    # _centre_h sees the odd primes up to 100 once each and a prime of the set
    # above 100 twice, nothing else
    calls = []
    centre_h = analytic._centre_h
    monkeypatch.setattr(analytic, "_centre_h", lambda p, c: (calls.append(p), centre_h(p, c))[1])
    for k in (1, 2, 108):
        for s_set in (PrimeSet.empty(), PrimeSet.of(2, 3, 101, 1000003)):
            calls.clear()
            constants_report(k, s_set)
            above = sorted(p for p in s_set.primes if p > 100)
            assert calls == primes_up_to(100)[1:] + [p for p in above for _ in (0, 1)]

