import importlib.util
import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semicubic import analytic  # noqa: E402
from semicubic.arith import primes_up_to  # noqa: E402
from semicubic.counting import point_classes  # noqa: E402
from semicubic.reps import _p2_coefficients  # noqa: E402


@pytest.fixture(scope="session")
def perfbench():
    """A function name -> the module perfbench/<name>.py, loaded read-only by path."""
    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    return load


@pytest.fixture(scope="session")
def height40():
    """Exhaustive primitive points with x >= 1 and height <= 40 (k = 1).

    Returns (total point count, one representative per (x, h, z) class).
    Every geometric predicate under test depends on the point only
    through (x, h, z), so the representatives carry full coverage.
    """
    classes = point_classes(40)
    return sum(n for _, n in classes), [pt for pt, _ in classes]


@pytest.fixture(scope="session")
def literal_vector_counts():
    """{(m, j): number of y in Z^j with |y|^2 = m} for m <= 60, j <= 8, by listing.

    A vector of length j is a half of length ceil(j/2) followed by a half
    of length floor(j/2); each half runs over every tuple of [-7, 7]^h, so
    no recurrence over the coordinates enters.
    """
    top = 60
    r = math.isqrt(top)
    halves = []
    for h in range(5):
        counts = [0] * (top + 1)
        for ys in product(range(-r, r + 1), repeat=h):
            if (n := sum(y * y for y in ys)) <= top:
                counts[n] += 1
        halves.append(counts)
    return {(m, j): sum(halves[(j + 1) // 2][i] * halves[j // 2][m - i] for i in range(m + 1))
            for j in range(9) for m in range(top + 1)}


def _coordinate_counts(j, top):
    """[r_j(0), ..., r_j(top)], r_j(m) the vectors in Z^j of squared norm m.

    Built cold, one coordinate at a time, by
    r_i(m) = r_{i-1}(m) + 2 sum_{t >= 1} r_{i-1}(m - t^2): no theta power
    and no packed digits, so it is a reference for reps.r4k_bruteforce.
    """
    row = [1] + [0] * top
    for _ in range(j):
        prev, row = row, row[:]
        for t in range(1, math.isqrt(top) + 1):
            for m in range(t * t, top + 1):
                row[m] += 2 * prev[m - t * t]
    return row


@pytest.fixture(scope="session")
def coordinate_counts():
    """The coordinate-by-coordinate vector counts, as a function (j, top)."""
    return _coordinate_counts


def _centre_factor_exact(p, k, in_s):
    """1 + h(1/p), gp at (1, 2k-1) for an odd prime p, from the centre
    coefficients in exact rationals: both polynomials times p^degree."""
    n = d = 0
    for a, b in reversed(analytic._centre_coefficients(k, in_s)):  # lowest degree last
        n, d = n * p + int(a), d * p + int(b)
    return Fraction(d + n, d)


@pytest.fixture(scope="session")
def centre_factor_exact():
    """gp at odd primes in exact rationals, as a function (p, k, in_s)."""
    return _centre_factor_exact


@pytest.fixture(scope="session")
def mp_euler_product():
    """A function (k, s_set, cutoff): the product of the local factors at
    (1, 2k-1) over the primes up to the cutoff, taken in 30-digit mpmath
    arithmetic, p = 2 from _local_factor and the odd primes exact, each
    prime of the set above the cutoff as its exact factor in the set over
    its factor outside it.  Skips without mpmath."""
    mpmath = pytest.importorskip("mpmath")

    def product_of_factors(k, s_set, cutoff):
        pre, fp = analytic._local_factor(2, k, 2 in s_set, 1.0, 2.0 * k - 1)
        factors = [_centre_factor_exact(p, k, p in s_set) for p in primes_up_to(cutoff)[1:]]
        factors += [_centre_factor_exact(p, k, True) / _centre_factor_exact(p, k, False)
                    for p in s_set.primes if p > cutoff]
        with mpmath.workdps(30):
            g = mpmath.mpf(pre * fp)
            for f in factors:
                g = g * f.numerator / f.denominator
            return g

    return product_of_factors


def _log_coefficients_exact(k, terms):
    """c_0..c_terms of log gp = log(1 + N/D) at (1, 2k-1) for an odd prime
    outside the set, in exact rationals: log(D + N) - log(D), each by
    P' = (log P)' P, coefficient by coefficient."""
    coefficients = list(reversed(analytic._centre_coefficients(k, False)))  # lowest first
    den = [int(b) for _, b in coefficients] + [0] * terms
    num = [int(a) + int(b) for a, b in coefficients] + [0] * terms

    def log_of(poly):
        logs = [Fraction(0)] * (terms + 1)
        for m in range(1, terms + 1):
            logs[m] = (m * poly[m] - sum(j * logs[j] * poly[m - j] for j in range(1, m))) / Fraction(m)
        return logs

    return [a - b for a, b in zip(log_of(num), log_of(den))]


@pytest.fixture(scope="session")
def mp_euler_constant():
    """A function (k, s_set): G_S(1, 2k-1) over every prime, taken in
    40-digit mpmath arithmetic and returned as the exact Fraction of it.  The primes up to 100 and the primes of the set
    above 100 enter one by one: p = 2 as analytic.gp on mpf arguments, as
    perfbench/make_refs.py takes it, the odd primes exact, a prime of the
    set above 100 as its exact factor in the set over its factor outside
    it.  The other primes enter as exp(sum_{m=2}^{60} c_m T(m)), c_m the
    exact coefficients of log gp outside the set and
    T(m) = primezeta(m) - sum_{p <= 100} p^-m.  Skips without mpmath."""
    mpmath = pytest.importorskip("mpmath")
    terms = 60
    small = primes_up_to(100)
    with mpmath.workdps(40):
        tails = [mpmath.primezeta(m) - mpmath.fsum(mpmath.mpf(p) ** -m for p in small)
                 if m >= 2 else 0 for m in range(terms + 1)]

    def constant(k, s_set):
        factors = [_centre_factor_exact(p, k, p in s_set) for p in small[1:]]
        factors += [_centre_factor_exact(p, k, True) / _centre_factor_exact(p, k, False)
                    for p in s_set.primes if p > 100]
        c = _log_coefficients_exact(k, terms)
        with mpmath.workdps(40):
            g = analytic.gp(analytic.EulerFactorInput(
                p=2, k=k, in_S=2 in s_set, s=mpmath.mpf(1), w=mpmath.mpf(2 * k - 1)))
            for f in factors:
                g = g * f.numerator / f.denominator
            tail = mpmath.fsum(mpmath.mpf(c[m].numerator) / c[m].denominator * tails[m]
                               for m in range(2, terms + 1) if c[m])
            man, exp = (g * mpmath.exp(tail)).man_exp
        return Fraction(man) * Fraction(2) ** exp

    return constant


def _fp_series_double_loop(inp, a_max=60):
    """fp_series as a plain double loop over (a, b), every weight evaluated
    anew for each a: the reference that fp_series must equal bit for bit."""
    p, k, s, w = inp.p, inp.k, inp.s, inp.w
    x = p ** (-s)
    y = p ** (-w)
    yz = p ** (2 * k - 1 - w)
    if p == 2:
        fa, fb = _p2_coefficients(k)
        A, B = float(fa), float(fb)

        def weighted(b):
            if b == 0:
                return 1.0
            return A * yz**b + B * y**b
    else:
        z = float(p) ** (2 * k - 1)
        zc = 1.0 / (1.0 - z)

        def weighted(b):
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
        if a >= 2 and abs(term) < analytic.SERIES_TERM_FLOOR:
            break
    return total


@pytest.fixture(scope="session")
def fp_series_reference():
    """The double-loop fp_series, as a function (inp, a_max)."""
    return _fp_series_double_loop
