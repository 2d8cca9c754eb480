"""The three counting routes.

* n_oracle: direct enumeration of primitive solutions, the ground truth
  at small bounds.  It weighs its (x, d, z) classes by the r_4k table the
  exact walk reads, under that table's guard, and shares nothing else with
  the walk: no windows, no top(c), no runs, no Mobius step over e.
* n_star / n_mobius: the divisor-window double sum and its Mobius
  inclusion-exclusion, sharing no code with the oracle's point loop.
* s_sum / t_sum: the auxiliary double sums over the multiplicative model,
  feeding the main-term identities: separate passes, the references for the
  S(B, B^2) and T(B) that count_report takes from the count's own walk.

All three sums run over cofactors c = n^3/d.  With B = bn/bd, d lies in
the window n^3 e/B < d <= B^2/e^2 of e exactly when e c bd < bn and
e^2 n^3 bd^2 <= bn^2 c, so a cofactor c < B lies in the windows of
e = 1..top(c), top(c) = min(isqrt(bn^2 c // (n^3 bd^2)), (bn-1) // (c bd)),
and one difference array over e gives every n_star(B/e).  Every weight is
positive (r*(p^f) >= 1, and r_4k(d) >= 1 for d >= 1), so the nonzero e are
those whose window holds a cofactor.  S and T are the multiplicative total
less the cofactors below a cap: for T every c < B, all of them in the walk,
and for S those with d > B^2, the walk's cofactors with top(c) = 0.  So
every route takes S and T from the model weights its own walk files.

All window comparisons are exact (integer cross-multiplication against
rational bounds, bisection on integer prime cubes, and in the oracle
integer floors of x^3/B), so no float enters a count.  The z-boundary is
the half-open convention |z| < B in every route, so cross-route equality
is exact.  On the model routes the n whose largest prime p is outside
the set and simple are not visited one at a time: top(c) does not
increase with p, so their cofactors are summed over runs of primes
against prefix sums of the weights of p (_walk_runs), and the n with no
run and no child below them, the leaves of its tree, are filed inside
their parent's loop.  The exact table walks every n and files both
weights.  All sums are of integers, so any order of summation gives a
bit-identical total.

That is what lets the walk by runs split.  Its tree of m has the root
m = 1, and the root's children head disjoint subtrees; each part walks
the subtrees dealt to it, part 0 the root too, and the parts' slots and
totals add up to the whole walk's.  From floor(B) = WALK_SPLIT_MIN on,
where arith._can_fork allows a fork, a count walks part 0 itself and part
1 in a forked child that sends its slots back (_walk_forked, through
arith._fork_pair).  If the fork fails or the child ends without a result,
the parent walks part 1 too.  The deal uses a float estimate of each
subtree's cost, which decides only where a subtree is walked, never what
it adds.

The walk files into few slots, and n_star(B/e) is constant for e between
two of them, so no array of suffix sums is formed: the count's values are
steps, one per nonzero slot t >= 1, each holding the sum of the slots
from t on and the squarefree e down to the slot before (NStarValues).
The Mobius sum over e is read off the same steps, as each step's value
times the sum of mu over its e.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import isqrt

from .arith import (
    CapacityError,
    DomainError,
    PrimeSet,
    _as_fraction,
    _can_fork,
    _fork_pair,
    divisors_of_cube,
    factorize,
    mobius_sieve,
    primes_up_to,
    smallest_prime_factors,
    vp,
)
from .geometry import SurfacePoint
from .reps import _r4k_from_r4, r4k_bruteforce, r4k_main_coeff, r4k_star_prime_power

# Largest floor(B) a loop over n <= B accepts.  Its prime or spf list,
# difference array and Mobius bytes grow linearly in B.  On a 2-core x86
# machine one cold `count --k 1 --bound 1000000`, its walk by runs in two
# forked parts, took 2.0-2.2 s and peaked at 89.6 MiB VmHWM in the parent
# and 39.3 MiB in the child (its ru_maxrss, about 1.1 s of CPU); at
# B = 3 * 10^5 0.5-0.7 s, 48.4 and 22.1 MiB, and at k = 2, B = 10^6,
# 1.9-2.3 s, 101.0 and 40.5 MiB.  t_sum and s_sum still visit every n:
# t_sum took 29 s and 95 MiB at 10^6, so twice the limit would take them
# past a budget of a minute.
WALK_BOUND_LIMIT = 10**6

# Least floor(B) at which a model-route count walks by runs in two parts,
# the second in a forked child (_walk_forked).  The fork, the child's start
# and the transfer cost a few ms a count; the walk's time halves.  On the
# same machine, k = 1, the median of 21-31 interleaved _walk calls changed
# by +42% and -13% at B = 3000 (S empty and {5, 7}), +7% and +0% at 7000,
# -24% and -32% at 10^4, -29% and -31% at 1.5 * 10^4 and -36% and -25% at
# 2 * 10^4.
WALK_SPLIT_MIN = 10**4

# Largest k a count accepts.  The model weights r*(p^l) are integers of
# about (2k - 1) l log2(p) bits, and the walk forms each by an exact
# division, so its cost grows about as k^2.  On the same machine one cold
# `count --k K --bound 3` took 0.11 s at K = 10^4, 0.19 s at 2 * 10^4,
# 0.69 s at 5 * 10^4, 2.3 s at 10^5 and over 60 s at 10^6 (at --bound 2,
# 0.11-0.15 s for each of them); `count --k 10000 --bound 20` took 2.5 s.
COUNT_K_LIMIT = 10**4


class RSource(str, Enum):
    EXACT = "exact_bruteforce"
    JACOBI = "jacobi_k1"
    RSTAR = "rstar_model"


@dataclass(frozen=True)
class CountRequest:
    k: int
    bound: Fraction
    s_set: PrimeSet
    r_source: RSource

    def __post_init__(self):
        object.__setattr__(self, "bound", _as_fraction(self.bound))
        if self.k < 1:
            raise DomainError("k must be >= 1")
        if self.k > COUNT_K_LIMIT:
            raise CapacityError(f"counts are guarded at k <= {COUNT_K_LIMIT}")
        if self.bound < 1:
            raise DomainError("bound must be >= 1")
        if self.r_source == RSource.JACOBI and self.k > 2:
            raise DomainError("the scaled model r4k_main_coeff(k) * r* is exact "
                              "only for k <= 2")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "bound": str(self.bound),
            "exclude_primes": str(self.s_set),
            # the scaled model names its k: jacobi_k1, jacobi_k2
            "r_source": (f"jacobi_k{self.k}" if self.r_source == RSource.JACOBI
                         else self.r_source.value),
            "z_boundary": "half_open",  # |z| < B in every route, by convention
        }


# k -> (r_4k(0), ..., r_4k(L)), the longest table built for k.  Every k >= 2
# table is a power of the k = 1 table, which it reads from here, extends and
# keeps.  The name is older than the table: perfbench/tracer.py reads it, and
# its contract test asserts it, so it stays.
_signed_cache: dict = {}


def _r4k_table(limit: int, k: int) -> tuple:
    """r_4k(0..L), L >= limit, for the exact walk and the oracle: one table per
    k, the longest built, rebuilt for a larger limit.  For k >= 2 the guard
    runs first, then r_4(0..limit) comes from this cache and is raised to
    the power k."""
    table = _signed_cache.get(k)
    if table is None or len(table) <= limit:
        table = _signed_cache[k] = (
            r4k_bruteforce(limit, 1) if k == 1
            else _r4k_from_r4(limit, k, lambda n: _r4k_table(n, 1)))
    return table


def _factor_from_spf(n: int, spf: list) -> list:
    fs = []
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        fs.append((p, e))
    return fs


@lru_cache(maxsize=1 << 16)
def _prime_weights(p: int, e: int, k: int, in_s: bool) -> tuple:
    """((p^g, r*(p^(3e-g))) for the cofactor exponents g that n = p^e allows, total).

    A cofactor c = n^3/d takes p^g where d takes p^(3e-g).  The indicator
    v_p(n^2/d) != 1 for p outside the set is equivalent to skipping
    g = e+1, so disallowed cofactors are never generated.
    """
    skip = -1 if in_s else e + 1
    pairs = tuple((p**g, r4k_star_prime_power(p, 3 * e - g, k))
                  for g in range(3 * e + 1) if g != skip)
    return pairs, sum(w for _, w in pairs)


def _profile(factors, k, s_primes, hi_cap):
    """Allowed cofactors c = n^3/d up to hi_cap, weighted, and the uncapped total.

    factors is the factorization of n.  Items are (c, r*(n^3/c)) pairs in
    generation order; cofactors above hi_cap are pruned (partial products
    only grow).  The total is the weight of every allowed cofactor, a
    product of per-prime sums.
    """
    items = [(1, 1)] if hi_cap >= 1 else []
    total = 1
    for p, e in factors:
        pws, psum = _prime_weights(p, e, k, p in s_primes)
        total *= psum
        items = [(nc, wt * wf) for c, wt in items for pg, wf in pws
                 if (nc := c * pg) <= hi_cap]
    return items, total


def _profiles(nmax: int, req: CountRequest, cap):
    """Yield (n, items, total) with the model weights r*, for 1 <= n <= nmax.

    cap is the cofactor cap, an int or a function of n.
    """
    spf = smallest_prime_factors(nmax)
    for n in range(1, nmax + 1):
        hi = cap if isinstance(cap, int) else cap(n)
        yield (n, *_profile(_factor_from_spf(n, spf), req.k, req.s_set, hi))


# no caller in src; perfbench/tracer.py's TRACED and its contract test name it
def _window(items, lo: int) -> int:
    """Weight sum over cofactors c >= lo."""
    return sum(w for c, w in items if c >= lo)


def indicator_1S(num: int, den: int, s_set: PrimeSet) -> int:
    """1 if no prime outside the set has valuation exactly 1 in num/den."""
    if num < 1 or den < 1:
        raise DomainError("indicator arguments must be positive")
    g = math.gcd(num, den)
    num //= g
    for p, e in factorize(num).factors:
        if e == 1 and p not in s_set:
            return 0
    return 1


def n_star(bound, req: CountRequest) -> int:
    """2 * sum over n <= B of weights of divisors d | n^3 with n^3/B < d <= B^2."""
    return _walk(bound, req)[0].get(1, 0)


def _check_walk_bound(nmax: int) -> None:
    """Refuse a loop over n <= nmax past WALK_BOUND_LIMIT, before it allocates."""
    if nmax > WALK_BOUND_LIMIT:
        raise CapacityError(f"the loop over n <= {nmax} is guarded at B <= {WALK_BOUND_LIMIT}")


def _walk_block(req: CountRequest, b: Fraction, table=None) -> tuple:
    """The loop over n <= B, one n at a time: (diff, total, exact).

    Each cofactor adds its model weight to top(c), which is 0 exactly when
    d > B^2; total is the model weight of every allowed cofactor.  With a
    table, each cofactor with top(c) >= 1, that is in a window, also adds
    its table weight r_4k(d) to exact at top(c), so exact[0] stays 0;
    exact is None without a table.
    """
    bn, bd = b.numerator, b.denominator
    bn2, bd2 = bn * bn, bd * bd
    cmax = (bn - 1) // bd
    diff = [0] * (bn // bd + 1)
    exact = None if table is None else diff[:]
    total = 0
    root = isqrt
    for n, items, weight in _profiles(bn // bd, req, cmax):
        total += weight
        n3 = n * n * n
        n3bd2 = n3 * bd2
        for c, w in items:
            t, cc = root(bn2 * c // n3bd2), cmax // c
            t = t if t < cc else cc
            diff[t] += w
            if t and table:
                exact[t] += table[n3 // c]
    return diff, total, exact


def _run_setup(req: CountRequest, nmax: int) -> tuple:
    """What every part of _walk_runs reads: the primes up to nmax, those summed
    in runs (outside the set), their cubes and the prefix sums of W_0, W_1."""
    k, lone = req.k, req.s_set.primes
    primes = primes_up_to(nmax)
    runp = [p for p in primes if p not in lone]
    cubes = [p * p * p for p in runp]
    pre0, pre1 = [0], [0]  # W_3 = 1 sums to the index
    for p in runp:
        pre0.append(pre0[-1] + r4k_star_prime_power(p, 3, k))
        pre1.append(pre1[-1] + r4k_star_prime_power(p, 2, k))
    return primes, runp, cubes, pre0, pre1


def _deal(kids: list, nmax: int, parts: int) -> list:
    """The part of each child (q, e, alone) of the root, in the order given.

    Children go, dearest first, to the part with the least estimated cost so
    far.  The estimate of the subtree under q^e, e (nmax / q^e)^1.2 times the
    product of (1 - 1/p)^3 over the primes p < q, fits the runs counted per
    subtree at B = 3000, 2 * 10^4 and 10^5 for the four benchmark sets: its
    deal left at most 51.4% of the runs in one of two parts, against 58% for
    a deal in turn.  The children come in increasing q, every prime up to
    isqrt(nmax) among them, so a running product gives the one over p < q.
    """
    cost, dens, last = [], 1.0, None
    for q, e, *_ in kids:
        if last is not None and q != last:
            dens *= (1 - 1 / last) ** 3
        last = q
        cost.append(e * (nmax / q**e) ** 1.2 * dens)
    load, deal = [0.0] * parts, [0] * len(kids)
    for i in sorted(range(len(kids)), key=cost.__getitem__, reverse=True):
        part = deal[i] = load.index(min(load))
        load[part] += cost[i]
    return deal


def _walk_runs(req: CountRequest, b: Fraction, part: int = 0, parts: int = 1,
               setup=None) -> tuple:
    """_walk_block's (diff, total) for the model weights, summed by runs of primes.

    Write n = m p with p = P(n), the largest prime of n.  When p is
    outside the set and divides n once, the allowed cofactors of n are
    c p^g, g in {0, 1, 3}, one for each allowed cofactor c of m, weighted
    w_c W_g(p), with W_0 = r*(p^3), W_1 = r*(p^2) and W_3 = 1.  With
    A = floor(bn^2 c / (m^3 bd^2)) and cc = cmax // c, the cofactor c p^g
    lies below the cap exactly when p^g <= cc, and its top is

        g = 0: min(isqrt(A // p^3), cc)
        g = 1: min(isqrt(A), cc) // p
        g = 3: min(isqrt(A), cc // p^3)

    none of which increases with p.  So the primes in (P(m), nmax / m] fall
    into runs of one top each.  One bisect ends a run: top >= t exactly
    when p^3 <= A // t^2 (g = 0), p <= min(isqrt(A), cc) // t (g = 1) or
    p^3 <= cc // t (g = 3), since x // q >= t exactly when q <= x // t for
    positive integers.  A run adds w_c times a difference of prefix sums of
    W_g to diff[top].  The last run of each g has top 0 and ends at the
    range end, as no later prime can raise the top.  The g = 1 and g = 3
    runs end at the cap, so they take no bisect when the first prime, or
    its cube, is already past it.
    The m come from a depth-first walk over factorizations in increasing
    primes, each node extending its parent's cofactor profile by one prime
    power, and visiting only the m that have a run or a descendant.  The
    other n (n = 1, and those whose largest prime is in the set or
    squared) are nodes of the same walk, filed one at a time as _walk_block
    files them.  A child n = m q^e with n r > nmax, r the prime after q,
    has no run and no child: it is a leaf, and always filed directly (m q
    outside the set is visited only when m q r <= nmax).  Its parent files
    it inside its own loop, with no cofactor list built and nothing pushed.
    The leaf's cofactors below lo = ceil(n^3 bd^2 / bn^2) have A = 0, so
    top 0, and lie below the cap (c < n^3 / B^2 <= B): their weight goes
    to diff[0] in one sum, and the others to their tops one at a time.

    part and parts pick one part of the walk: the root m = 1 files its own
    cofactor and has its runs in part 0, and its children, the heads of the
    subtrees, go to the parts by _deal; every deeper node is walked with
    the child it descends from.  With parts = 1 this is the whole walk, and
    the parts of any parts add up to it slot by slot, as every entry is a
    sum of integers.  setup is _run_setup's tuple, built once when several
    parts share it (_walk_forked); without it the walk builds its own.
    """
    bn, bd = b.numerator, b.denominator
    bn2, bd2 = bn * bn, bd * bd
    nmax, cmax = bn // bd, (bn - 1) // bd
    k = req.k
    lone = req.s_set.primes  # the primes q of a directly filed n = m q
    primes, runp, cubes, pre0, pre1 = setup or _run_setup(req, nmax)
    bisect, root = bisect_right, isqrt
    diff = [0] * (nmax + 1)
    total = 0
    # (m, P(m), allowed cofactors of m up to cmax with weights, total weight,
    # filed directly); the root is filed and has its runs in part 0 only
    stack = [(1, 1, [(1, 1)] if cmax >= 1 else [], 1, not part)]
    while stack:
        m, pm, items, weight, direct = stack.pop()
        hi = nmax // m
        m3bd2 = m * m * m * bd2
        if direct:
            total += weight
            for c, w in items:
                t, cc = root(bn2 * c // m3bd2), cmax // c
                diff[t if t < cc else cc] += w
        i0 = bisect(runp, pm)
        i1 = bisect(runp, hi, i0) if m > 1 or not part else i0
        if i0 < i1:
            total += weight * (pre0[i1] - pre0[i0] + pre1[i1] - pre1[i0] + i1 - i0)
            # each loop takes a run's top t at its first prime i and ends the
            # run at j: a run of one prime, whose next prime already has a
            # lower top, needs no bisect
            for c, w in items:
                a = bn2 * c // m3bd2
                cc = cmax // c
                ra = root(a)
                i = i0  # g = 0
                while i < i1:
                    t = root(a // cubes[i])
                    if t > cc:
                        t = cc
                    j = i + 1
                    if not t:
                        j = i1
                    elif j < i1 and cubes[j] <= (x := a // (t * t)):
                        j = bisect(cubes, x, j + 1, i1)
                    diff[t] += w * (pre0[j] - pre0[i])
                    i = j
                # g = 1 and g = 3 end at the cap: no bisect when the first
                # prime, or its cube, is already past it
                lim = ra if ra < cc else cc  # g = 1
                end = bisect(runp, cc, i0, i1) if runp[i0] <= cc else i0
                i = i0
                while i < end:
                    t = lim // runp[i]
                    j = i + 1
                    if not t:
                        j = end
                    elif j < end and runp[j] <= (x := lim // t):
                        j = bisect(runp, x, j + 1, end)
                    diff[t] += w * (pre1[j] - pre1[i])
                    i = j
                end = bisect(cubes, cc, i0, i1) if cubes[i0] <= cc else i0  # g = 3
                i = i0
                while i < end:
                    t = cc // cubes[i]
                    if t > ra:
                        t = ra
                    j = i + 1
                    if not t:
                        j = end
                    elif j < end and cubes[j] <= (x := cc // t):
                        j = bisect(cubes, x, j + 1, end)
                    diff[t] += w * (j - i)
                    i = j
        # children (q, e, filed directly, leaf) for m q^e, q > P(m): every
        # power with e >= 2 or q in lone is filed directly; m q itself is
        # visited only if m q r <= nmax for the prime r after q, the least it
        # needs for a run or a child.  A child with m q^e r > nmax has neither,
        # a leaf, filed below without being pushed
        kids = []
        j = bisect(primes, pm)
        while j < len(primes) and (q := primes[j]) * q <= hi:
            alone = q in lone
            # primes[j + 1] < 2q <= q^2 <= nmax (Bertrand), so it is in the list
            r = primes[j + 1]
            if q * r <= hi:
                kids.append((q, 1, alone, False))
            elif alone:
                kids.append((q, 1, True, True))
            e, x = 2, q * q
            while x <= hi:
                kids.append((q, e, True, x * r > hi))
                e, x = e + 1, x * q
            j += 1
        kids += [(q, 1, True, True) for q in lone if pm < q <= hi < q * q]
        if m == 1 and parts > 1:
            kids = [kid for kid, p in zip(kids, _deal(kids, nmax, parts)) if p == part]
        for q, e, alone, leaf in kids:
            pws, psum = _prime_weights(q, e, k, q in lone)
            if not leaf:
                stack.append((m * q**e, q,
                              [(cq, w * wq) for c, w in items for pq, wq in pws
                               if (cq := c * pq) <= cmax],
                              weight * psum, alone))
                continue
            # the leaf n = m q^e files its cofactors c q^g <= cmax here, in
            # increasing q^g for each c; those below lo have A = 0, so top 0,
            # and go to slot 0 in one sum
            total += weight * psum
            n = m * q**e
            n3bd2 = n * n * n * bd2
            lo = -(-n3bd2 // bn2)
            dead = 0
            for c, w in items:
                for pq, wq in pws:
                    cq = c * pq
                    if cq < lo:
                        dead += w * wq
                    elif cq > cmax:
                        break
                    else:
                        t, cc = root(bn2 * cq // n3bd2), cmax // cq
                        diff[t if t < cc else cc] += w * wq
            diff[0] += dead
    return diff, total


def _walk_forked(req: CountRequest, b: Fraction) -> tuple:
    """_walk_runs's (diff, total) from its two parts, part 1 walked by a forked
    child through _fork_pair.

    The set-up is built before the fork, so the child inherits it.  The
    child sends its nonzero slots (a few hundred of the 2 * 10^4 at that
    bound: its subtrees have small tops), their entries and its total, and
    the parent adds them slot by slot to part 0's.
    """
    setup = _run_setup(req, b.numerator // b.denominator)

    def part1() -> tuple:  # the nonzero slots of part 1, their entries and its total
        diff1, total1 = _walk_runs(req, b, 1, 2, setup)
        slots = list(compress(range(len(diff1)), diff1))
        return slots, [diff1[t] for t in slots], total1

    (diff, total), (slots, entries, total1) = _fork_pair(
        lambda: _walk_runs(req, b, 0, 2, setup), part1)
    for t, v in zip(slots, entries):
        diff[t] += v
    return diff, total + total1


class NStarValues(Mapping, dict):
    """{e: n_star(B/e)} for the squarefree e with a nonzero value, read-only,
    in increasing e: the count's n_star_values, kept as the walk's steps.

    tops holds the nonzero slots t >= 1 of the walk in increasing order and
    values the value of each: n_star(B/e) is values[i] for every e in
    (tops[i - 1], tops[i]], tops[-1] read as 0, and 0 past the last top.
    mu, the bytes of mu(0..n) mod 256 for some n >= the last top, picks the
    squarefree e, those with a nonzero byte; a step may hold none of them.
    Keys are ints.

    It is a dict only because json's encoders write no other mapping as an
    object.  Its own entries are the steps {top: value}: the C encoder
    writes {} for a dict with no entries, and the first step holds e = 1,
    so there are steps exactly when the mapping is not empty.  Every read
    goes through the methods here and those of Mapping; dict's methods that
    would write its entries, or read them as the mapping, raise TypeError.
    """

    __slots__ = ("_tops", "_values", "_mu")

    def __init__(self, tops: list, values: list, mu: bytes):
        dict.__init__(self, zip(tops, values))
        self._tops, self._values, self._mu = tops, values, mu

    def __getitem__(self, e):
        if isinstance(e, int) and 0 < e <= self._last() and self._mu[e]:
            return self._values[bisect_left(self._tops, e)]
        raise KeyError(e)

    def __iter__(self):
        last = self._last()
        return compress(range(1, last + 1), self._mu[1:last + 1])

    def __len__(self) -> int:
        last = self._last()
        return last - self._mu.count(0, 1, last + 1)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"

    def _last(self) -> int:
        return self._tops[-1] if self._tops else 0

    def steps(self):
        """Per step, in increasing e: an iterator over its squarefree e, and their value."""
        lo, mu = 0, self._mu
        for top, value in zip(self._tops, self._values):
            yield compress(range(lo + 1, top + 1), mu[lo + 1:top + 1]), value
            lo = top

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = __or__ = __ror__ = _read_only
    clear = copy = pop = popitem = setdefault = update = _read_only


def _walk(bound, req: CountRequest) -> tuple:
    """The one loop over n: (NStarValues, their Mobius sum, S(B, B^2), T(B)).

    Each cofactor adds its weight at top(c), so n_star(B/e) is scale times
    the sum of the slots t >= e.  The walk files into few slots (364 of
    20,001 at k = 1, B = 2 * 10^4, S empty), and that sum changes only at
    them: one accumulate over the reversed nonzero entries gives each
    nonzero slot t >= 1 its value, that of every e down to the slot before.
    S and T come from the model weights the same walk files: slot 0 takes
    top(c) = 0, that is d > B^2, so S is the model total less slot 0, and
    T is the total less every cofactor below B, the whole difference array.

    The Mobius sum is read off the same steps: each adds its value times
    the sum of mu(e) over its e, the count of e with mu(e) = 1 less the
    count with mu(e) = -1, two bytes.count over the bytes of mu.

    The model sources sum the n with a simple largest prime outside the
    set by runs of that prime (_walk_runs); the exact table, whose weights
    are not multiplicative, walks every n (_walk_block), filing each
    cofactor's model weight and table weight side by side.  Where
    arith._can_fork allows it, from floor(B) = WALK_SPLIT_MIN on, the
    walk by runs goes in two parts, the second in a forked child
    (_walk_forked); its integers are those of the walk in one process.
    """
    b = _as_fraction(bound)
    if b < 1:
        raise DomainError("bound must be >= 1")
    nmax = b.numerator // b.denominator
    _check_walk_bound(nmax)
    if req.r_source == RSource.EXACT:  # its table guard refuses before the walk
        table = _r4k_table(b.numerator ** 2 // b.denominator ** 2, req.k)
        model, total, diff = _walk_block(req, b, table)
    else:
        splits = nmax >= WALK_SPLIT_MIN and _can_fork()
        model, total = (_walk_forked if splits else _walk_runs)(req, b)
        diff = model
    s, t = total - model[0], total - sum(model)
    diff[0] = 0  # d > B^2: in no window
    # jacobi: r4k_main_coeff(k) r*, 8 r* at k = 1 and 16 r* at k = 2, is r_4k
    scale = 2 * int(r4k_main_coeff(req.k)) if req.r_source == RSource.JACOBI else 2
    tops = list(compress(range(nmax + 1), diff))
    values = [scale * v for v in accumulate(diff[top] for top in reversed(tops))]
    values.reverse()
    mu = mobius_sieve(nmax).tobytes()  # -1 is 255
    mobius_total = sum(v * (mu.count(1, lo + 1, top + 1) - mu.count(255, lo + 1, top + 1))
                       for lo, top, v in zip([0, *tops], tops, values))
    return NStarValues(tops, values, mu), mobius_total, s, t


def n_star_by_divisor(bound, req: CountRequest) -> dict:
    """{e: n_star(B/e)} for squarefree e, nonzero entries only."""
    return dict(_walk(bound, req)[0])


def n_mobius(bound, req: CountRequest) -> int:
    """Mobius inclusion-exclusion over scaled bounds: the primitive tuple count."""
    return _walk(bound, req)[1]


def _cofactor_remainder(nmax: int, req: CountRequest, cap) -> int:
    """Model weight of the cofactors above cap, summed over n <= nmax."""
    _check_walk_bound(nmax)
    return sum(total - sum(w for _, w in items)
               for _, items, total in _profiles(nmax, req, cap))


def s_sum(x_bound, y_bound, req: CountRequest) -> int:
    """Double sum of the multiplicative model over n <= X, d | n^3, d <= Y."""
    x = _as_fraction(x_bound)
    y = _as_fraction(y_bound)
    if x < 0 or y < 0:
        raise DomainError("bounds must be nonnegative")
    hi = y.numerator // y.denominator
    if hi < 1:
        return 0
    # d > Y exactly when c * floor(Y) < n^3: the cap is 0 once n^3 <= Y
    return _cofactor_remainder(x.numerator // x.denominator, req,
                               lambda n: (n * n * n - 1) // hi)


def t_sum(bound, req: CountRequest) -> int:
    """Same sum restricted to d <= n^3/B (closed upper bound)."""
    b = _as_fraction(bound)
    if b < 1:
        raise DomainError("bound must be >= 1")
    # d <= n^3/B exactly when c >= B: drop the cofactors c < B, as n_star keeps them
    return _cofactor_remainder(b.numerator // b.denominator, req,
                               (b.numerator - 1) // b.denominator)


# ---------------------------------------------------------------------------
# Direct enumeration (the oracle)

_coprime_cache: dict = {}  # g -> [(q, mu(q)) for the squarefree q | g]


def _coprime_count(table: list, rem: int, g: int) -> int:
    """Vectors of squared norm rem, counted by table, with entries jointly coprime to g.

    Inclusion-exclusion over squarefree q | g: the vectors whose entries
    are all divisible by q are q times the vectors of squared norm rem/q^2.
    """
    if g == 1:
        return table[rem]
    terms = _coprime_cache.get(g)
    if terms is None:
        terms = [(1, 1)]
        for p, _ in factorize(g).factors:
            terms += [(q * p, -m) for q, m in terms]
        _coprime_cache[g] = terms
    return sum(m * table[rem // (q * q)] for q, m in terms if rem % (q * q) == 0)


def _semi_ok(x: int, dfac, s_set: PrimeSet) -> bool:
    # v_p(z) - v_p(x) = 2 v_p(x) - v_p(d), even for the primes of x outside d
    return all(p in s_set or 2 * vp(p, x) - f != 1 for p, f in dfac.factors)


def _oracle_bound(bound, k: int) -> int:
    if bound < 1 or int(bound) != bound:
        raise DomainError("oracle bound must be a positive integer")
    if k < 1:
        raise DomainError("k must be >= 1")
    return int(bound)


def _classes(bound: int, strict_z: bool):
    """Yield (x, factored d, z = x^3/d, gcd(x, z)) for x <= B, d | x^3, d <= B^2.

    |z| < B when strict_z, else |z| <= B.
    """
    for x in range(1, bound + 1):
        x3 = x * x * x
        # d > x^3/B (|z| < B) or d >= x^3/B (|z| <= B), in integers
        lo = (x3 if strict_z else x3 - 1) // bound
        for dfac in divisors_of_cube(x, lo, bound * bound):
            z = x3 // dfac.value
            yield x, dfac, z, math.gcd(x, z)


def n_oracle(bound: int, k: int, s_set: PrimeSet) -> int:
    """Count primitive solutions with |x| <= B, h <= B^2, |z| < B directly.

    For each (x, d, z) class the y-vectors with squared norm d are read off
    the r_4k table, those coprime to gcd(x, z) by inclusion-exclusion; the
    semi-integral condition depends only on (x, z) and is checked once
    per class.  The result is doubled for the sign of x.
    """
    b = _oracle_bound(bound, k)
    table = _r4k_table(b * b, k)
    return 2 * sum(_coprime_count(table, dfac.value, g)
                   for x, dfac, _, g in _classes(b, True) if _semi_ok(x, dfac, s_set))


def _iter_vectors(rem: int, left: int):
    """Vectors of length left >= 1 and squared norm rem: first entry t = 0, 1, ...
    ascending, t before -t; the last entry is +-isqrt of what is left."""
    if left == 1:
        t = isqrt(rem)
        if t * t == rem:
            yield (t,)
            if t:
                yield (-t,)
        return
    t = 0
    while t * t <= rem:
        for rest in _iter_vectors(rem - t * t, left - 1):
            yield (t,) + rest
            if t:
                yield (-t,) + rest
        t += 1


def _class_points(k: int, x: int, dfac, z: int, g: int):
    """The points of a class: y-vectors of squared norm d coprime to gcd(x, z)."""
    return (SurfacePoint(k=k, x=x, ys=ys, z=z)
            for ys in _iter_vectors(dfac.value, 4 * k) if math.gcd(g, *ys) == 1)


def iter_points(bound: int, k: int = 1, strict_z: bool = False):
    """Yield every primitive point with x >= 1 up to the height bound.

    strict_z selects the half-open convention |z| < bound used by the
    counting routes; otherwise the closed height condition |z| <= bound.
    """
    for cls in _classes(_oracle_bound(bound, k), strict_z):
        yield from _class_points(k, *cls)


def point_classes(bound: int, k: int = 1) -> list:
    """(first point, member count) per (x, h, z) class of iter_points(bound, k).

    Members are counted, not built; every geometric predicate depends on a
    point only through (x, h, z), so the first point stands for its class.
    The cost is the search for each first point (_iter_vectors), which the
    table's guard does not price: on a 2-core x86 machine one cold call took
    2.0 s at (k, B) = (1, 250), 18 s at (1, 518), the table's edge, 31 s at
    (3, 150) and 95 s at (2, 200), and over 120 s at the k >= 2 edges.  Its
    one caller, `verify --suite mpoints`, asks for B = 40.
    """
    b = _oracle_bound(bound, k)
    table = _r4k_table(b * b, k)
    return [(next(_class_points(k, x, dfac, z, g)), n)
            for x, dfac, z, g in _classes(b, False)
            if (n := _coprime_count(table, dfac.value, g))]


# ---------------------------------------------------------------------------
# Reports

def count_report(req: CountRequest, with_oracle: bool = False) -> dict:
    """The count artifact, keys in output order: {e: n_star(B/e)} as
    NStarValues, the Mobius total as tuples and points, the oracle (None
    unless asked for), S and T, then the timings of the routes that ran.
    The oracle runs first, so its table guard refuses before the walk."""
    t0 = time.perf_counter()
    oracle = n_oracle(req.bound, req.k, req.s_set) if with_oracle else None
    t1 = time.perf_counter()
    values, total, sv, tv = _walk(req.bound, req)
    timings = {"mobius_s": time.perf_counter() - t1}
    if with_oracle:
        timings["oracle_s"] = t1 - t0
    return {
        "schema": "v1",
        "request": req.to_json_dict(),
        "n_star_values": values,  # int keys; json writes them as strings
        "n_mobius": total,
        "tuples": total,
        "points": total // 2,
        "n_oracle": oracle,
        "s_value": sv,
        "t_value": tv,
        "timings": timings,
    }
