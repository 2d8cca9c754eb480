"""Property tests over random (B, S): the routes agree exactly.

The acceptance gates check route equality on fixed grids; these draw the
bound and the exceptional set at random (derandomized, so every run draws
the same examples).  Then (k, S) is drawn for the Euler-product constant,
the inputs of the raw Euler-factor series for its double-loop reference,
and nested objects for the JSON writer.
"""
import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from semicubic import cli  # noqa: E402
from semicubic.analytic import EulerFactorInput, euler_constant, fp_series  # noqa: E402
from semicubic.arith import PrimeSet, primes_up_to  # noqa: E402
from semicubic.counting import (  # noqa: E402
    CountRequest,
    RSource,
    _walk_block,
    _walk_runs,
    count_report,
    n_star,
    s_sum,
    t_sum,
)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)
PRIME_SETS = st.sets(st.sampled_from((2, 3, 5, 7))).map(
    lambda ps: PrimeSet(frozenset(ps)))


def _req(bound, k, s_set, source):
    return CountRequest(k=k, bound=Fraction(bound), s_set=s_set, r_source=source)


@PROPERTY
@given(bound=st.integers(1, 50), s_set=PRIME_SETS)
def test_routes_agree_k1(bound, s_set):
    oracle, model, table = cli._route_counts(bound, 1, s_set)
    assert oracle == model == table, (bound, str(s_set))
    model = _req(bound, 1, s_set, RSource.RSTAR)
    sv, tv = s_sum(bound, bound * bound, model), t_sum(bound, model)
    assert 16 * (sv - tv) == n_star(bound, _req(bound, 1, s_set, RSource.JACOBI))
    for source in RSource:  # the count's own S and T equal the separate passes
        rep = count_report(_req(bound, 1, s_set, source))
        assert (rep["s_value"], rep["t_value"]) == (sv, tv), (bound, str(s_set), source)


@PROPERTY
@given(bound=st.integers(1, 12), s_set=PRIME_SETS)
def test_routes_agree_k2(bound, s_set):
    oracle, model, table = cli._route_counts(bound, 2, s_set)
    assert oracle == model == table, (bound, str(s_set))


BOUNDS_3000 = st.one_of(st.integers(1, 3000).map(Fraction),
                        st.fractions(1, 3000, max_denominator=1000))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bound=BOUNDS_3000, s_set=st.sets(st.sampled_from(primes_up_to(50))),
       k=st.integers(1, 2), source=st.sampled_from((RSource.JACOBI, RSource.RSTAR)))
def test_walk_runs_match_the_per_n_walk(bound, s_set, k, source):
    # the sums by runs of the largest prime equal the walk over every n, slot by slot
    r = _req(bound, k, PrimeSet(frozenset(s_set)), source)
    assert _walk_runs(r, bound) == _walk_block(r, bound)[:2]


@PROPERTY
@given(k=st.integers(1, 6), s_set=st.sets(st.sampled_from(primes_up_to(300)), max_size=6))
def test_euler_constant_within_its_bound(mp_euler_constant, k, s_set):
    s_set = PrimeSet(frozenset(s_set))
    ep = euler_constant(k, s_set)
    g = mp_euler_constant(k, s_set)
    assert 0 < ep.tail_estimate <= 1e-14
    for value in (ep.value, f"{ep.value:.15g}"):  # as computed and as printed
        assert abs(Fraction(value) / g - 1) <= ep.tail_estimate, (k, str(s_set), value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.sampled_from(primes_up_to(2000)), k=st.integers(1, 6), in_s=st.booleans(),
       s=st.floats(1, 8, exclude_min=True), dw=st.floats(0, 5, exclude_min=True),
       a_max=st.integers(0, 80))
@example(p=2, k=1, in_s=False, s=1.5, dw=0.5, a_max=80)
@example(p=2, k=2, in_s=True, s=1.0001, dw=1e-4, a_max=80)
def test_fp_series_is_the_double_loop(fp_series_reference, p, k, in_s, s, dw, a_max):
    # equal as floats, with no tolerance
    w = 2 * k - 1 + dw
    assume(w > 2 * k - 1)
    inp = EulerFactorInput(p=p, k=k, in_S=in_s, s=s, w=w)
    assert fp_series(inp, a_max) == fp_series_reference(inp, a_max)


# the scalars json writes: every float rounds on the way out, so the edge
# cases are named besides the drawn ones; text covers non-ASCII and control
# characters, and ints run past 2^64
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((-0.0, 1e16, 1 / 3, math.nan, math.inf, -math.inf)))
JSON_KEYS = st.one_of(st.text(max_size=8), st.integers(-2**70, 2**70), st.booleans(), st.none())
JSON_OBJECTS = st.recursive(
    # a dict of plain ints is the count's n_star_values, written line by line
    JSON_SCALARS | st.dictionaries(st.integers(-2**70, 2**70), st.integers(-2**70, 2**70)),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(JSON_KEYS, inner, max_size=5),
    max_leaves=20)
# what `count --bound 300 --timings` writes
COUNT_300 = count_report(_req(300, 1, PrimeSet.empty(), RSource.JACOBI))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(obj=JSON_OBJECTS)
@example(obj=COUNT_300)
@example(obj={"a": [], "b": {}, "c": [{}, []], 1: {2: True, 3: 4}, "\x00\u00e9": [-0.0]})
def test_emit_json_matches_json_dumps(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(obj, None)
    assert out.getvalue() == json.dumps(cli._round_floats(obj), indent=2) + "\n"
