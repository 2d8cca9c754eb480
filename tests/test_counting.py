import hashlib
import json
import math
from fractions import Fraction
from itertools import product

import pytest

from semicubic import counting
from semicubic.arith import CapacityError, DomainError, PrimeSet
from semicubic.counting import (
    WALK_BOUND_LIMIT,
    CountRequest,
    RSource,
    count_report,
    indicator_1S,
    iter_points,
    n_mobius,
    n_oracle,
    n_star,
    n_star_by_divisor,
    point_classes,
    s_sum,
    t_sum,
)
from semicubic.geometry import SurfacePoint, height_le
from semicubic.reps import r4k_bruteforce, r4k_main_coeff, r4k_star

S0 = PrimeSet.empty()
S2 = PrimeSet.of(2)
S23 = PrimeSet.of(2, 3)


def req(bound, k=1, s_set=S0, source=RSource.JACOBI):
    return CountRequest(k=k, bound=Fraction(bound), s_set=s_set, r_source=source)


# --- independent definitional oracles -------------------------------------

def _brute_indicator(num, den, s_set):
    q = Fraction(num, den)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        if p in s_set:
            continue
        v = 0
        n, d = q.numerator, q.denominator
        while n % p == 0:
            n //= p
            v += 1
        while d % p == 0:
            d //= p
            v -= 1
        if v == 1:
            return 0
    return 1


def _brute_divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def _brute_sum(x_bound, s_set, weight, keep):
    """The sum of weight(d) over n <= X and d | n^3 with keep(n, d) and 1_S(n^2/d)."""
    total = 0
    for n in range(1, int(Fraction(x_bound)) + 1):
        for d in _brute_divisors(n**3):
            if keep(n, d) and _brute_indicator(n * n, d, s_set):
                total += weight(d)
    return total


def _brute_n_star(bound, k, s_set, table):
    b = Fraction(bound)
    return 2 * _brute_sum(b, s_set, table.__getitem__, lambda n, d: n**3 / b < d <= b * b)


def _brute_s(x_bound, y_bound, k, s_set):
    return _brute_sum(x_bound, s_set, lambda d: r4k_star(d, k), lambda n, d: d <= Fraction(y_bound))


def _brute_t(bound, k, s_set):
    b = Fraction(bound)
    return _brute_sum(b, s_set, lambda d: r4k_star(d, k), lambda n, d: d <= n**3 / b)


# --- indicator --------------------------------------------------------------

def test_indicator_examples():
    assert indicator_1S(1, 1, S0) == 1
    assert indicator_1S(4, 2, S0) == 0
    assert indicator_1S(4, 2, S2) == 1
    with pytest.raises(DomainError):
        indicator_1S(0, 1, S0)


def test_indicator_against_brute_force():
    for num in range(1, 61):
        for den in range(1, 61):
            for s_set in (S0, S2, S23):
                assert indicator_1S(num, den, s_set) == _brute_indicator(
                    num, den, s_set
                ), (num, den, str(s_set))


# --- n_star / n_mobius ------------------------------------------------------

def test_n_star_examples():
    assert n_star(1, req(1)) == 0
    assert n_star(2, req(2)) == 16
    assert n_star(2, req(2, source=RSource.EXACT)) == 16


def test_n_star_matches_definition():
    table = r4k_bruteforce(400, 1)
    for bound in (1, 2, 3, 5, 8, 13, 20):
        for s_set in (S0, S2, S23):
            got = n_star(bound, req(bound, s_set=s_set))
            want = _brute_n_star(bound, 1, s_set, table)
            assert got == want, (bound, str(s_set))


def test_n_star_r_source_consistency():
    # 8 and 27: d = B^2 divides n^3 for some n < B, the closed edge of the window
    for bound in (5, 8, 10, 20, 27, 30, 50):
        a = n_star(bound, req(bound, source=RSource.JACOBI))
        b = n_star(bound, req(bound, source=RSource.EXACT))
        assert a == b, bound


def test_n_mobius_examples():
    assert n_mobius(2, req(2)) == 16
    assert n_mobius(1, req(1)) == 0
    assert n_mobius(30, req(30)) == n_oracle(30, 1, S0)


def test_n_star_by_divisor_matches_individual_calls():
    from semicubic.arith import mobius

    for bound in (12, 20):
        for s_set in (S0, S23):
            by_d = n_star_by_divisor(bound, req(bound, s_set=s_set))
            # only squarefree divisors can contribute to the Mobius sum
            assert all(mobius(e) != 0 for e in by_d)
            for e in range(1, bound + 1):
                if mobius(e) == 0:
                    assert e not in by_d
                    continue
                scaled = Fraction(bound, e)
                assert by_d.get(e, 0) == n_star(scaled, req(
                    scaled, s_set=s_set)), (bound, e)


def test_monotonicity():
    vals = [n_star(b, req(b)) for b in (2, 4, 8, 12, 16)]
    assert vals == sorted(vals)
    morals = [n_mobius(b, req(b)) for b in (2, 4, 8, 12, 16)]
    assert morals == sorted(morals)
    for b in (10, 20):
        assert n_star(b, req(b, s_set=S2)) >= n_star(b, req(b))
        assert n_oracle(b, 1, S2) >= n_oracle(b, 1, S0)


def test_jacobi_requires_k1():
    # the scaled model is exact for k <= 2 only
    with pytest.raises(DomainError):
        CountRequest(k=3, bound=Fraction(5), s_set=S0, r_source=RSource.JACOBI)
    assert CountRequest(k=2, bound=Fraction(5), s_set=S0,
                        r_source=RSource.JACOBI).k == 2


def test_exact_capacity_guard():
    # one step past the table's edge at k = 1, B = 518
    with pytest.raises(CapacityError):
        n_star(519, req(519, source=RSource.EXACT))


def test_walk_capacity_guard(monkeypatch):
    # one step past the edge is refused before the prime or spf sieve, or
    # anything else the loop over n holds, is allocated; the edge itself
    # reaches the sieve of its route
    class Sieved(Exception):
        pass

    def no_sieve(n):
        raise Sieved(n)

    monkeypatch.setattr(counting, "smallest_prime_factors", no_sieve)
    monkeypatch.setattr(counting, "primes_up_to", no_sieve)
    edge = WALK_BOUND_LIMIT
    for source in RSource:
        with pytest.raises(CapacityError, match="guarded"):
            n_mobius(edge + 1, req(edge + 1, source=source))
    with pytest.raises(CapacityError, match="guarded"):
        s_sum(edge + 1, 10, req(10))
    with pytest.raises(CapacityError, match="guarded"):
        t_sum(edge + 1, req(edge + 1))
    # floor(B) is what the loop runs to, so a fractional bound below edge + 1 passes
    for bound in (edge, Fraction(2 * edge + 1, 2)):
        for source in (RSource.JACOBI, RSource.RSTAR):
            with pytest.raises(Sieved):
                n_mobius(bound, req(bound, source=source))
    with pytest.raises(Sieved):
        s_sum(edge, 10, req(10))


# --- the walk by runs of the largest prime ----------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def test_walk_runs_match_the_per_n_walk():
    # every slot of the difference array and the model total, bit for bit
    bounds = (1, 2, 3, 4, 8, 9, 25, 27, 5, 31, 97, 211, Fraction(599, 2),
              Fraction(10**6 + 1, 1000), Fraction(7, 2), Fraction(241, 4))
    for k, source, s, bound in product((1, 2), (RSource.JACOBI, RSource.RSTAR),
                                       ("", "2", "2,3", "5,7", "3,7"), bounds):
        r = req(bound, k=k, s_set=PrimeSet.parse(s), source=source)
        assert counting._walk_runs(r, r.bound) == counting._walk_block(r, r.bound)[:2], \
            (k, source, s, bound)
    # the benchmark's count at its most runs: 46,782 for g = 0 alone
    r = req(2 * 10**4, s_set=S23)
    assert counting._walk_runs(r, r.bound) == counting._walk_block(r, r.bound)[:2]


def test_walk_runs_large_cases():
    # k = 2 with two primes in the set; rstar with a set that misses 2; then 2
    # in the runs: k = 1 with no set, and the k = 2 weights of 2 with a set of 3
    for r in (req(10**5, k=2, s_set=S23),
              req(3 * 10**4, s_set=PrimeSet.of(5, 7), source=RSource.RSTAR),
              req(10**5, s_set=S0),
              req(3 * 10**4, k=2, s_set=PrimeSet.of(3), source=RSource.RSTAR)):
        assert counting._walk_runs(r, r.bound) == counting._walk_block(r, r.bound)[:2], \
            (r.k, r.bound)


# --- oracle -----------------------------------------------------------------

def test_oracle_examples():
    assert n_oracle(1, 1, S0) == 0
    assert n_oracle(2, 1, S0) == 16
    assert n_oracle(10, 1, S2) >= n_oracle(10, 1, S0)


# the last bound whose r_4k table, B^2 + 1 entries, fits R4K_TABLE_BUDGET, per k
TABLE_EDGES = {1: 518, 2: 381, 3: 320, 4: 278, 5: 252, 6: 232}


def test_oracle_guard():
    # one step past each edge of the table the oracle reads
    for k, edge in TABLE_EDGES.items():
        with pytest.raises(CapacityError, match="exceeds the budget"):
            n_oracle(edge + 1, k, S0)
    # a fractional bound reaches the oracle unchanged instead of being truncated
    with pytest.raises(DomainError):
        count_report(req(Fraction(7, 2)), with_oracle=True)
    with pytest.raises(DomainError):
        n_oracle(5, 0, S0)
    # the point enumeration refuses what the oracle refuses, before its first point
    for bound, k in ((5, 0), (Fraction(11, 2), 1), (5.5, 1), (0, 1)):
        with pytest.raises(DomainError):
            next(iter_points(bound, k))


def test_oracle_against_point_enumeration():
    from semicubic.geometry import semi_integral_ok

    for bound in (2, 5, 9):
        for s_set in (S0, S2):
            direct = sum(
                2
                for pt in iter_points(bound, k=1, strict_z=True)
                if semi_integral_ok(pt, s_set)
            )
            assert n_oracle(bound, 1, s_set) == direct


def test_iter_points_height_window():
    # the definition H <= B, listed: x <= B, every y_i in [-B, B], z = x^3/h,
    # coprime, kept by height_le (and |z| < B for the strict form)
    for bound, k in ((1, 1), (2, 1), (3, 1), (5, 1), (6, 1), (2, 2)):
        closed, strict = set(), set()
        for ys in product(range(-bound, bound + 1), repeat=4 * k):
            if not (h := sum(y * y for y in ys)):
                continue
            for x in range(1, bound + 1):
                if x**3 % h == 0 and math.gcd(x, x**3 // h, *ys) == 1:
                    pt = SurfacePoint(k=k, x=x, ys=ys, z=x**3 // h)
                    if height_le(pt, bound):
                        closed.add(pt)
                        if abs(pt.z) < bound:
                            strict.add(pt)
        got = list(iter_points(bound, k))
        assert len(got) == len(closed) and set(got) == closed, (bound, k)
        if k == 1:
            got = list(iter_points(bound, k, strict_z=True))
            assert len(got) == len(strict) and set(got) == strict, bound


def test_point_classes_against_iter_points():
    for bound, k in ((5, 1), (9, 1), (13, 1), (20, 1), (3, 2)):
        want = {}
        for pt in iter_points(bound, k=k):
            first, n = want.get((pt.x, pt.h, pt.z), (pt, 0))
            want[(pt.x, pt.h, pt.z)] = (first, n + 1)
        # same classes in the same order, same first points and member counts
        assert point_classes(bound, k=k) == list(want.values()), (bound, k)


# sha256 of the repr of each list below, recorded while _iter_vectors still
# looped over every value of the last coordinate
POINT_PINS = {
    "iter_points(25, 1)":
        "f2586adec1d985708b9c4c1cc824da71a20026576292c4f5506538114b720f5b",
    "point_classes(40)":
        "e5b999a47ab5cc18b5d56960b601f70064875ecb60c9ce15f40fe21d1ed9e3f6",
    "point_classes(12, 2)":
        "61da18717e4c1fc5a646587ff1166276783a55525ac852a9e60e6b2f9ab6a05f",
}


def test_point_order_pins():
    # same points in the same order, same class representatives and counts
    lists = {
        "iter_points(25, 1)": [(p.x, p.ys, p.z) for p in iter_points(25, 1)],
        "point_classes(40)": [((p.x, p.ys, p.z), n) for p, n in point_classes(40)],
        "point_classes(12, 2)": [((p.x, p.ys, p.z), n) for p, n in point_classes(12, 2)],
    }
    for name, got in lists.items():
        assert hashlib.sha256(repr(got).encode()).hexdigest() == POINT_PINS[name], name


def test_oracle_at_guard_edges(monkeypatch):
    # cold caches; oracle = Mobius at the k = 1..4 table edges, the model for
    # k <= 2 and the table above; then one table per k, B^2 + 1 entries long.
    # The k = 5 and 6 edges (about 2 s each) are rows of tools/cli_matrix.py.
    monkeypatch.setattr(counting, "_signed_cache", {})
    monkeypatch.setattr(counting, "_coprime_cache", {})
    edges = {k: TABLE_EDGES[k] for k in range(1, 5)}
    for k, edge in edges.items():
        source = RSource.JACOBI if k <= 2 else RSource.EXACT
        for s_set in (S0, S23):
            assert n_oracle(edge, k, s_set) == n_mobius(edge, req(edge, k, s_set, source)), \
                (k, str(s_set))
    assert {k: len(table) for k, table in counting._signed_cache.items()} == \
        {k: edge * edge + 1 for k, edge in edges.items()}


def test_oracle_past_k4():
    # k = 5 and 6, once refused, against the table route
    for k in (5, 6):
        for s_set in (S0, S23):
            assert n_oracle(20, k, s_set) == n_mobius(20, req(20, k, s_set, RSource.EXACT)), \
                (k, str(s_set))


def test_exact_table_guard_runs_before_the_model_walk(monkeypatch):
    # an over-budget exact request is refused without walking the model
    def refuse(*args):
        raise AssertionError("the model walk ran before the table guard")

    monkeypatch.setattr(counting, "_walk_runs", refuse)
    for k, bound in ((1, 519), (10**4, 100)):
        with pytest.raises(CapacityError, match="exceeds the budget"):
            n_mobius(bound, req(bound, k, source=RSource.EXACT))
    # and the oracle's guard refuses before the walk of a model route
    with pytest.raises(CapacityError, match="exceeds the budget"):
        count_report(req(519), with_oracle=True)


def test_exact_count_without_st_skips_the_model_walk(monkeypatch):
    # the exact route never runs the walk by runs, with or without S and T:
    # its count is the scaled model's (equal to the table at k <= 2), and its
    # S and T, from the model weights its own walk files, are the separate passes
    cases = [req(b, k, s_set, RSource.EXACT)
             for k, b in ((1, 60), (2, 30), (3, 20)) for s_set in (S0, S23)]
    st = [(s_sum(r.bound, r.bound ** 2, r), t_sum(r.bound, r)) for r in cases]
    model = {}
    for r in cases[:4]:  # k <= 2
        scaled = req(r.bound, r.k, r.s_set)
        model[r] = (n_star_by_divisor(r.bound, scaled), n_mobius(r.bound, scaled))

    def walked(*args):
        raise AssertionError("the model walk ran")

    monkeypatch.setattr(counting, "_walk_runs", walked)
    for r, (sv, tv) in zip(cases, st):
        rep = count_report(r)
        assert (rep["s_value"], rep["t_value"]) == (sv, tv), (r.k, str(r.s_set))
        if r in model:
            assert (rep["n_star_values"], rep["n_mobius"]) == model[r], (r.k, str(r.s_set))
        assert n_mobius(r.bound, r) == rep["n_mobius"]
    # and the table guard still refuses first
    with pytest.raises(CapacityError, match="exceeds the budget"):
        count_report(req(519, source=RSource.EXACT))


def test_r4k_table_keeps_the_longest(monkeypatch):
    # a shorter limit reads the longest table; a longer one rebuilds it
    monkeypatch.setattr(counting, "_signed_cache", {})
    lengths = []
    for limit in (144, 25, 400, 169):
        table = counting._r4k_table(limit, 1)
        assert table[:limit + 1] == r4k_bruteforce(limit, 1)
        lengths.append(len(table))
    assert lengths == [145, 145, 401, 401]
    assert list(counting._signed_cache) == [1]


def _no_table(*args):
    raise AssertionError(f"a theta table built for {args}")


def test_k2_table_extends_the_r4_table(monkeypatch):
    # the crosscheck's order: a k = 2 count at B = 150 leaves r_4(0..150^2)
    # behind, which the k = 1 oracle at B <= 150 reads without a build
    from semicubic import reps

    monkeypatch.setattr(counting, "_signed_cache", {})
    limit = 150 * 150
    r8 = counting._r4k_table(limit, 2)
    assert r8 == r4k_bruteforce(limit, 2)
    assert len(counting._signed_cache[1]) == limit + 1
    assert counting._signed_cache[1] == r4k_bruteforce(limit, 1)
    monkeypatch.setattr(counting, "r4k_bruteforce", _no_table)
    monkeypatch.setattr(reps, "_theta4", _no_table)
    for bound, s_set in ((100, S23), (150, S0)):
        assert n_oracle(bound, 1, s_set) == n_mobius(bound, req(bound, 1, s_set)), bound
    assert {k: len(table) for k, table in counting._signed_cache.items()} == \
        {1: limit + 1, 2: limit + 1}


def test_k3_table_extends_a_shorter_r4_table(monkeypatch):
    # a k = 1 table shorter than the k = 3 limit is extended and kept
    monkeypatch.setattr(counting, "_signed_cache", {})
    counting._r4k_table(400, 1)
    r12 = counting._r4k_table(900, 3)
    assert r12 == r4k_bruteforce(900, 3)
    assert counting._signed_cache[1] == r4k_bruteforce(900, 1)
    # a longer k = 1 table is read, not rebuilt: the k = 3 table at 400 is its
    # first 401 cubed entries
    monkeypatch.setattr(counting, "_signed_cache", {1: counting._signed_cache[1]})
    monkeypatch.setattr(counting, "r4k_bruteforce", _no_table)
    assert counting._r4k_table(400, 3) == r12[:401]


def test_refused_table_powers_nothing(capsys, monkeypatch):
    # the budget is checked for (limit, k) before theta^4 or any power is built
    from semicubic import cli, reps

    cache = {1: r4k_bruteforce(100, 1)}
    monkeypatch.setattr(counting, "_signed_cache", cache)
    monkeypatch.setattr(reps, "_theta4", _no_table)
    monkeypatch.setattr(reps, "_power", _no_table)
    for argv, table in ((["count", "--k", "2", "--bound", "400", "--r-source", "exact"],
                         "r_8(0..160000)"),
                        (["count", "--k", "7", "--bound", "300", "--method", "both"],
                         "r_28(0..90000)")):
        assert cli.main(argv) == 3, argv
        assert capsys.readouterr().err == (
            f"capacity guard: representation table {table} exceeds the budget "
            f"of 3500000 packed digits\n"), argv
        assert counting._signed_cache is cache and list(cache) == [1]
        assert len(cache[1]) == 101


def test_oracle_k2_small():
    # 8-dimensional enumeration cross-checked against the table and the model
    for bound in (2, 4):
        got = n_oracle(bound, 2, S0)
        assert got == n_mobius(bound, req(bound, k=2, source=RSource.EXACT))
        assert got == n_mobius(bound, req(bound, k=2))


# --- s_sum / t_sum ----------------------------------------------------------

def test_s_sum_examples():
    assert s_sum(1, 1, req(1)) == 1
    assert s_sum(0.5, 10, req(1)) == 0
    # direct expansion: n=1 contributes 1; n=2 contributes terms at
    # d in {1,4,8} (d=2 is excluded by the indicator), weights 1, 3, 3
    assert s_sum(2, 8, req(2)) == 8
    assert s_sum(2, 4, req(2)) == 5


def test_t_sum_examples():
    # direct expansion: n=2, d <= 4, d | 8: weights 1 (d=1) + 0 (d=2) + 3 (d=4)
    assert t_sum(2, req(2)) == 4
    assert t_sum(1, req(1)) == 1


def test_t_sum_vanishes_when_ranges_empty():
    # for B > n^3 at every n <= X the inner range is empty; B=2 sees only n=1
    assert t_sum(Fraction(3, 2), req(Fraction(3, 2))) == 0


def test_s_t_against_definitions():
    for s_set in (S0, S2, S23):
        for x_b, y_b in ((1, 1), (2, 8), (3, 27), (5, 25), (7, 343), (10, 100)):
            assert s_sum(x_b, y_b, req(max(x_b, 1), s_set=s_set)) == _brute_s(
                x_b, y_b, 1, s_set
            )
        for b in (1, 2, 3, 5, 8, 12):
            assert t_sum(b, req(b, s_set=s_set)) == _brute_t(b, 1, s_set)


def test_s_t_k2_against_definitions():
    r2 = CountRequest(k=2, bound=Fraction(6), s_set=S0, r_source=RSource.RSTAR)
    assert s_sum(6, 36, r2) == _brute_s(6, 36, 2, S0)
    assert t_sum(6, r2) == _brute_t(6, 2, S0)


def _assert_walk_st(r, s_value, t_value):
    """The count's own S and T equal the separate s_sum and t_sum passes."""
    rep = count_report(r)
    assert (rep["s_value"], rep["t_value"]) == (s_value, t_value), (r.k, r.bound, r.r_source)


def test_st_nstar_relation():
    # 2 (S - T) = n_star with the model weights; times r4k_main_coeff(k)
    # (8 at k = 1, 16 at k = 2) with the exact r_4k
    for k in (1, 2):
        for bound in (10, 25, 60, Fraction(301, 3), Fraction(121, 2)):
            for s_set in (S0, S23):
                r_model = req(bound, k=k, s_set=s_set, source=RSource.RSTAR)
                r_jac = req(bound, k=k, s_set=s_set)
                sv, tv = s_sum(bound, bound * bound, r_model), t_sum(bound, r_model)
                st = sv - tv
                assert 2 * st == n_star(bound, r_model)
                assert 2 * r4k_main_coeff(k) * st == n_star(bound, r_jac), (k, bound)
                for source in RSource:
                    _assert_walk_st(req(bound, k=k, s_set=s_set, source=source), sv, tv)
    # k = 3: no scaled model, and the table is not the model's multiple
    for bound in (1, 7, 18, Fraction(59, 2), 30):
        for s_set in (S0, S23):
            r_model = req(bound, k=3, s_set=s_set, source=RSource.RSTAR)
            sv, tv = s_sum(bound, bound * bound, r_model), t_sum(bound, r_model)
            assert 2 * (sv - tv) == n_star(bound, r_model)
            for source in (RSource.RSTAR, RSource.EXACT):
                _assert_walk_st(req(bound, k=3, s_set=s_set, source=source), sv, tv)


# --- reports ----------------------------------------------------------------

def test_count_report_round_trip():
    for r in (req(20, s_set=S23), req(10, k=2, s_set=S23)):
        rep = count_report(r, with_oracle=True)
        assert rep["n_oracle"] == rep["n_mobius"]
        assert rep["points"] == rep["tuples"] // 2
        assert rep["request"]["r_source"] == f"jacobi_k{r.k}"
        back = json.loads(json.dumps(rep))  # int keys come back as strings
        assert {int(e): v for e, v in back["n_star_values"].items()} == rep["n_star_values"]


def test_count_report_walks_once(monkeypatch):
    # the count, its Mobius sum, S and T come from one walk and one mu sieve:
    # a model route walks by runs and makes no pass over every n, and the
    # exact route makes one pass over every n and no walk by runs
    cases = [(req(40, s_set=S23), 0), (req(40, k=3, s_set=S23, source=RSource.EXACT), 1)]
    st = [(s_sum(40, 1600, r), t_sum(40, r)) for r, _ in cases]
    calls = dict.fromkeys(("_walk_runs", "_walk_block", "mobius_sieve", "_profiles"), 0)
    for name in calls:
        def counted(*args, _f=getattr(counting, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(counting, name, counted)
    for (r, per_n), (sv, tv) in zip(cases, st):
        calls.update(dict.fromkeys(calls, 0))
        rep = count_report(r)
        assert calls == {"_walk_runs": 1 - per_n, "_walk_block": per_n, "mobius_sieve": 1,
                         "_profiles": per_n}, r.r_source
        assert (rep["s_value"], rep["t_value"]) == (sv, tv), r.r_source


def test_count_report_mobius_recomputation():
    from semicubic.arith import mobius

    rep = count_report(req(30))
    recomputed = sum(mobius(e) * v for e, v in rep["n_star_values"].items())
    assert recomputed == rep["n_mobius"]
