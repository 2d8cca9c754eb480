"""Property tests over random (B, S): the routes agree exactly.

The acceptance gates check route equality on fixed grids; these draw the
bound and the exceptional set at random (derandomized, so every run draws
the same examples).
"""
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from semicubic.arith import PrimeSet, primes_up_to  # noqa: E402
from semicubic.counting import (  # noqa: E402
    CountRequest,
    RSource,
    _walk_block,
    _walk_runs,
    count_report,
    n_mobius,
    n_oracle,
    n_star,
    s_sum,
    t_sum,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)
PRIME_SETS = st.sets(st.sampled_from((2, 3, 5, 7))).map(
    lambda ps: PrimeSet(frozenset(ps)))


def _req(bound, k, s_set, source):
    return CountRequest(k=k, bound=Fraction(bound), s_set=s_set, r_source=source)


def _assert_routes_agree(bound, k, s_set):
    """Oracle = scaled model = brute-force table."""
    oracle = n_oracle(bound, k, s_set)
    model, table = (n_mobius(bound, _req(bound, k, s_set, source))
                    for source in (RSource.JACOBI, RSource.EXACT))
    assert oracle == model == table, (bound, k, str(s_set))


@PROPERTY
@given(bound=st.integers(1, 50), s_set=PRIME_SETS)
def test_routes_agree_k1(bound, s_set):
    _assert_routes_agree(bound, 1, s_set)
    model = _req(bound, 1, s_set, RSource.RSTAR)
    sv, tv = s_sum(bound, bound * bound, model), t_sum(bound, model)
    assert 16 * (sv - tv) == n_star(bound, _req(bound, 1, s_set, RSource.JACOBI))
    for source in RSource:  # the count's own S and T equal the separate passes
        rep = count_report(_req(bound, 1, s_set, source), with_st=True)
        assert (rep["s_value"], rep["t_value"]) == (sv, tv), (bound, str(s_set), source)


@PROPERTY
@given(bound=st.integers(1, 12), s_set=PRIME_SETS)
def test_routes_agree_k2(bound, s_set):
    _assert_routes_agree(bound, 2, s_set)


BOUNDS_3000 = st.one_of(st.integers(1, 3000).map(Fraction),
                        st.fractions(1, 3000, max_denominator=1000))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bound=BOUNDS_3000, s_set=st.sets(st.sampled_from(primes_up_to(50))),
       k=st.integers(1, 2), source=st.sampled_from((RSource.JACOBI, RSource.RSTAR)))
def test_walk_runs_match_the_per_n_walk(bound, s_set, k, source):
    # the sums by runs of the largest prime equal the walk over every n, slot by slot
    r = _req(bound, k, PrimeSet(frozenset(s_set)), source)
    assert _walk_runs(r, bound) == _walk_block(r, bound)
