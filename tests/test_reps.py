import hashlib
import math
from fractions import Fraction
from itertools import product

import pytest

from semicubic.arith import CapacityError, DomainError, primes_up_to
from semicubic.reps import (
    _p2_coefficients,
    _slot_digits,
    r4_jacobi,
    r4k_bruteforce,
    r4k_main_coeff,
    r4k_star,
    r4k_star_prime_power,
)


R12_20000_SHA = "e9026eae09199bb48ec7938a92fb3682014d6d19553bd3214b086dfa59f4d386"


def _count_vectors(d, dim):
    """Independent oracle: nested enumeration of integer vectors."""
    r = math.isqrt(d)
    count = 0
    for ys in product(range(-r, r + 1), repeat=dim):
        if sum(y * y for y in ys) == d:
            count += 1
    return count


def test_bruteforce_examples():
    assert r4k_bruteforce(4, 1) == (1, 8, 24, 32, 24)
    assert r4k_bruteforce(1, 2) == (1, 16)
    assert r4k_bruteforce(2, 2)[2] == 112
    # inside the budget; (2 isqrt(1) + 1)^(4k) alone would ask for
    # 477,122-digit slots, the l1 bound 2,000,001 for 7 digits
    assert r4k_bruteforce(1, 250000) == (1, 2000000)


def test_bruteforce_against_nested_enumeration():
    t1 = r4k_bruteforce(12, 1)
    for d in range(1, 13):
        assert t1[d] == _count_vectors(d, 4)
    t2 = r4k_bruteforce(3, 2)
    for d in range(1, 4):
        assert t2[d] == _count_vectors(d, 8)


def test_bruteforce_against_signed_count(coordinate_counts):
    # the coordinate-by-coordinate count; 4k = 12 and 20 take the multiply
    # step of binary powering, 4, 8 and 16 square only
    cases = [(k, top) for k in range(1, 7) for top in (1, 2, 3)]
    cases += [(1, 200), (2, 200), (3, 200), (4, 40), (5, 40)]
    for k, top in cases:
        assert list(r4k_bruteforce(top, k)) == coordinate_counts(4 * k, top), (k, top)


def test_power_of_r4_against_signed_count(coordinate_counts):
    # k >= 2 raises the r_4 table to the power k; k = 3, 5 and 6 take the
    # multiply step, and the r_4 table handed in may be longer than the limit
    from semicubic.reps import _r4k_from_r4

    for k in range(2, 7):
        for top in (4, 50, 300):
            want = coordinate_counts(4 * k, top)
            assert list(r4k_bruteforce(top, k)) == want, (k, top)
            longer = r4k_bruteforce(top + 37, 1)
            assert list(_r4k_from_r4(top, k, lambda limit: longer)) == want, (k, top)


def test_signed_count_against_literal_enumeration(coordinate_counts, literal_vector_counts):
    # each length built cold at every top, so no build reads a longer one
    for (m, j), want in literal_vector_counts.items():
        assert coordinate_counts(j, m)[m] == want, (m, j)


def test_bruteforce_digest():
    # sha256 of repr(counts), recorded with 12 rounds of direct convolution
    counts = r4k_bruteforce(20000, 3)
    assert counts[:4] == (1, 24, 264, 1760)
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == R12_20000_SHA


def test_bruteforce_capacity_guard():
    # B = 518 is the last count bound whose r_4 table fits the digit budget
    with pytest.raises(CapacityError):
        r4k_bruteforce(519 * 519, 1)
    with pytest.raises(CapacityError):  # refused at once: no power of 9 is raised
        r4k_bruteforce(10**9, 1)
    with pytest.raises(DomainError):
        r4k_bruteforce(0, 1)


def test_bruteforce_refuses_before_raising_a_bound(monkeypatch):
    # the bit lengths alone put r_(4 10^6)(0..10^6) past the budget
    from semicubic import reps

    def refuse(limit, k):
        raise AssertionError(f"a bound raised for ({limit}, {k})")

    monkeypatch.setattr(reps, "_slot_digits", refuse)
    with pytest.raises(CapacityError):
        r4k_bruteforce(10**6, 10**6)


def test_slot_digits_raises_only_the_smaller_bound():
    # the width of the smaller bound with both raised, on a grid across the
    # limits where the smaller one changes sides
    for limit in (*range(1, 120), 1000, 4096, 10**4, 268324):
        for k in (*range(1, 25), 100, 1000):
            cube = (2 * math.isqrt(limit) + 1) ** (4 * k)
            bound = min(cube, (8 * k + 1) ** min(limit, cube.bit_length()))
            assert _slot_digits(limit, k) == bound.bit_length() * 30103 // 100000 + 1, (limit, k)


def test_jacobi_examples():
    assert r4_jacobi(1) == 8
    assert r4_jacobi(2) == 24
    assert r4_jacobi(12) == 8 * (1 + 2 + 3 + 6)


def test_jacobi_divisor_sum_definition():
    # independent oracle: literal divisor sum
    for d in range(1, 400):
        s = sum(m for m in range(1, d + 1) if d % m == 0 and m % 4 != 0)
        assert r4_jacobi(d) == 8 * s


def test_rstar_examples():
    assert r4k_star(1, 1) == 1
    assert r4k_star(2, 1) == 3
    assert r4k_star(3, 1) == 4


def test_rstar_prime_power_values():
    # odd prime: geometric sum; p = 2: the two-term form, integral
    assert r4k_star_prime_power(3, 2, 1) == 1 + 3 + 9
    for p in primes_up_to(97)[1:]:
        for k in range(1, 5):
            z = p ** (2 * k - 1)
            for l in range(7):
                assert r4k_star_prime_power(p, l, k) == sum(z**i for i in range(l + 1))
    assert r4k_star_prime_power(2, 1, 1) == 3
    assert r4k_star_prime_power(2, 5, 1) == 3
    assert r4k_star_prime_power(2, 1, 2) == 7
    assert r4k_star_prime_power(2, 2, 2) == 71
    for k in range(1, 41):  # the two-term form in exact rationals
        a, b = _p2_coefficients(k)
        for l in range(1, 9):
            assert r4k_star_prime_power(2, l, k) == a * 2 ** (l * (2 * k - 1)) + b, (k, l)


def test_rstar_integrality_at_two():
    for k in range(1, 5):
        for l in range(0, 41):
            v = r4k_star_prime_power(2, l, k)
            assert isinstance(v, int)


def test_rstar_multiplicative():
    for k in (1, 2):
        for a in range(1, 101):
            for b in range(1, 101):
                if math.gcd(a, b) == 1:
                    assert r4k_star(a * b, k) == r4k_star(a, k) * r4k_star(b, k)
    import random

    rng = random.Random(7)
    for k in (1, 2):
        for _ in range(500):
            a = rng.randrange(1, 501)
            b = rng.randrange(1, 501)
            if math.gcd(a, b) == 1:
                assert r4k_star(a * b, k) == r4k_star(a, k) * r4k_star(b, k)


def test_rstar_nonnegative():
    for k in (1, 2, 3):
        for d in range(1, 2001):
            assert r4k_star(d, k) >= 0


def test_r8_is_exactly_sixteen_rstar():
    # the weight-4 cusp space is trivial, so the k = 2 error term also vanishes
    t = r4k_bruteforce(300, 2)
    for d in range(1, 301):
        assert t[d] == 16 * r4k_star(d, 2)


def test_main_coeff():
    assert r4k_main_coeff(1) == 8
    assert r4k_main_coeff(2) == 16
    # 12 / (63 |B_6|) with B_6 = 1/42
    assert r4k_main_coeff(3) == Fraction(12 * 42, 63) == 8
