import math
import random
from fractions import Fraction

import pytest

from semicubic import arith
from semicubic.arith import (
    PRIME_SIEVE_LIMIT,
    CapacityError,
    DomainError,
    Factorization,
    PrimeSet,
    bernoulli,
    divisors_of_cube,
    factorize,
    is_prime,
    mobius,
    mobius_sieve,
    primes_up_to,
    smallest_prime_factors,
    vp,
    zeta_real,
)


def test_vp_examples():
    assert vp(2, 8) == 3
    assert vp(3, 10) == 0
    assert vp(5, -250) == 3


def test_vp_domain_errors():
    with pytest.raises(DomainError):
        vp(2, 0)
    with pytest.raises(DomainError):
        vp(4, 8)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(999966000289).factors == ((999983, 2),)
    assert is_prime(999983)
    for n in range(2, (1 << 17) + 3):  # one more value than is_prime's cache holds
        is_prime(n)
    assert is_prime.cache_info().currsize <= 1 << 17
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_reconstructs_random_values():
    rng = random.Random(12345)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorization_invariants_enforced():
    with pytest.raises(DomainError):
        Factorization(12, ((3, 1), (2, 2)))  # not increasing
    with pytest.raises(DomainError):
        Factorization(12, ((2, 1), (3, 1)))  # product mismatch


def test_vp_additivity():
    rng = random.Random(99)
    for _ in range(200):
        a = rng.randrange(1, 10**5) * rng.choice([1, -1])
        b = rng.randrange(1, 10**5) * rng.choice([1, -1])
        for p in (2, 3, 5, 7):
            assert vp(p, a * b) == vp(p, a) + vp(p, b)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_matches_sieve_and_is_multiplicative():
    n = 10**4
    mu = mobius_sieve(n)
    for m in range(1, 401):
        assert mobius(m) == mu[m]
    for a in range(1, 101):
        for b in range(1, 101):
            if a * b <= n and math.gcd(a, b) == 1:
                assert mu[a * b] == mu[a] * mu[b]


def test_smallest_prime_factors_against_trial_division():
    assert smallest_prime_factors(0) == [0]
    assert smallest_prime_factors(1) == [0, 1]
    spf = smallest_prime_factors(2 * 10**4)
    assert spf[:2] == [0, 1]
    assert all(spf[i] == arith._least_factor(i) for i in range(2, 2 * 10**4 + 1))


def test_mobius_divisor_sum_identity():
    n = 10**4
    mu = mobius_sieve(n)
    acc = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            acc[m] += mu[d]
    assert acc[1] == 1
    assert all(acc[m] == 0 for m in range(2, n + 1))


def test_divisors_of_cube_examples():
    assert [f.value for f in divisors_of_cube(2, 0, 8)] == [1, 2, 4, 8]
    assert [f.value for f in divisors_of_cube(2, 1, 8)] == [2, 4, 8]
    assert len(divisors_of_cube(6, 0, 216)) == 16
    assert divisors_of_cube(5, 10, 3) == []


def _brute_divisors(m):
    out = []
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.append(i)
            if i != m // i:
                out.append(m // i)
        i += 1
    return sorted(out)


def test_divisors_of_cube_against_brute_force():
    for n in range(1, 201):
        cube = n**3
        all_divs = _brute_divisors(cube)
        # float bounds and a window with hi < lo are floored like the others
        for lo, hi in ((0, cube), (Fraction(cube, 7), cube), (1, Fraction(cube, 2)),
                       (Fraction(3, 2), n * n), (cube / 7, cube - 0.5),
                       (2.5, n * n + 0.5), (n * n, n)):
            got = divisors_of_cube(n, lo, hi)
            want = [d for d in all_divs if lo < d <= hi]
            assert [f.value for f in got] == want
            for f in got:
                prod = 1
                for p, e in f.factors:
                    assert e <= 3 * dict(factorize(n).factors)[p]
                    prod *= p**e
                assert prod == f.value


def test_bernoulli_examples():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(8) == Fraction(-1, 30)
    with pytest.raises(DomainError):
        bernoulli(3)
    with pytest.raises(DomainError):
        bernoulli(0)


def test_bernoulli_zeta_relation():
    # |B_m| = 2 m! zeta(m) / (2 pi)^m for even m
    for m in (2, 4, 6):
        lhs = float(abs(bernoulli(m)))
        rhs = 2 * math.factorial(m) * zeta_real(m) / (2 * math.pi) ** m
        assert abs(lhs - rhs) < 1e-9


def test_zeta_values():
    assert abs(zeta_real(2) - math.pi**2 / 6) <= 1e-12
    assert abs(zeta_real(3) - 1.2020569031595942) <= 1e-12
    assert abs(zeta_real(7) - 1.0083492773819228) <= 1e-12
    with pytest.raises(DomainError):
        zeta_real(1.0)


def test_zeta_direct_summation_cross_check():
    # independent oracle: plain summation with an integral tail bound
    for s in (2, 3, 7):
        n_cut = 2000
        direct = sum(n ** (-s) for n in range(1, n_cut + 1))
        tail_lo = (n_cut + 1) ** (1 - s) / (s - 1)
        tail_hi = n_cut ** (1 - s) / (s - 1)
        val = zeta_real(s)
        assert direct + tail_lo - 1e-12 <= val <= direct + tail_hi + 1e-12


def test_zeta_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for m in range(2, 521):
            assert zeta_real(m) == float(mpmath.zeta(m)), m


def test_zeta_past_53_is_one_without_the_sum(monkeypatch):
    # zeta(m) rounds to 1.0 from m = 54 on, which zeta_real returns without
    # the fixed-point sum (2.3 s at m = 10^6); at m = 53 it still sums
    real = arith._zeta_fixed

    def below_54(m):
        assert m < 54, m
        return real(m)

    monkeypatch.setattr(arith, "_zeta_fixed", below_54)
    assert zeta_real(10**6) == zeta_real(54) == zeta_real(54.0) == 1.0
    assert zeta_real(53) == 1 + 2**-52


def test_zeta_fixed_within_its_remainder():
    # z lies below the Euler-Maclaurin sum by less than one unit per floor,
    # and the sum within remainder of zeta(m)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for m in range(2, 21):
            z, remainder = arith._zeta_fixed(m)
            err = abs(mpmath.mpf(z) / 2**arith._FIXED_BITS - mpmath.zeta(m))
            assert err <= remainder + arith._ZETA_FLOORS / 2**arith._FIXED_BITS, m


def test_zeta_refuses_non_integers_and_the_pole():
    for s in (2.5, 1, 0):
        with pytest.raises(DomainError):
            zeta_real(s)


def test_prime_set():
    s = PrimeSet.parse("2,3")
    assert 2 in s and 3 in s and 5 not in s
    assert str(PrimeSet.empty()) == ""
    assert list(PrimeSet.of(5, 2)) == [2, 5]
    with pytest.raises(DomainError):
        PrimeSet.of(4)
    with pytest.raises(DomainError):  # past is_prime's range, refused before testing
        PrimeSet.of(10**18 + 3)
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_sieve_guard(monkeypatch):
    # one step past the edge is refused before the byte sieve is allocated
    def no_sieve(*args):
        raise AssertionError("the sieve was allocated")

    monkeypatch.setattr(arith, "bytearray", no_sieve, raising=False)
    for n in (PRIME_SIEVE_LIMIT + 1, 10**18):
        with pytest.raises(CapacityError, match="guarded"):
            primes_up_to(n)
    # the edge itself reaches the sieve
    with pytest.raises(AssertionError, match="allocated"):
        primes_up_to(PRIME_SIEVE_LIMIT)
