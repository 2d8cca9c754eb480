"""The three counting routes.

* n_oracle: direct enumeration of primitive solutions, the ground truth
  at small bounds.
* n_star / n_mobius: the divisor-window double sum and its Mobius
  inclusion-exclusion, sharing no code with the oracle's point loop.
* s_sum / t_sum: the auxiliary double sums over the multiplicative model,
  feeding the main-term identities.

All window comparisons are exact (integer cross-multiplication against
rational bounds); no float enters any counting predicate.  The z-boundary
is the half-open convention |z| < B in every route, so cross-route
equality is exact.  Outer loops accumulate integer partial sums per n,
so any partition of the n-range reduces to a bit-identical total.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .arith import (
    CapacityError,
    DomainError,
    PrimeSet,
    _as_fraction,
    divisors_of_cube,
    factorize,
    mobius_sieve,
    smallest_prime_factors,
)
from .geometry import SurfacePoint
from .reps import r4k_bruteforce, r4k_star_prime_power

# Exhaustive-enumeration guards for the oracle, keyed by k.
ORACLE_BOUND_LIMITS = {1: 100, 2: 12, 3: 5}


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
        if self.bound < 1:
            raise DomainError("bound must be >= 1")
        if self.r_source == RSource.JACOBI and self.k != 1:
            raise DomainError("the divisor-sum closed form only applies at k = 1")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "bound": str(self.bound),
            "exclude_primes": str(self.s_set),
            "r_source": self.r_source.value,
            "z_boundary": "half_open",  # |z| < B in every route, by convention
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CountRequest":
        return cls(
            k=d["k"],
            bound=Fraction(d["bound"]),
            s_set=PrimeSet.parse(d["exclude_primes"]),
            r_source=RSource(d["r_source"]),
        )


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
    """(p^f, r*(p^f)) for f = 0..3e, the divisors of p^(3e) that n = p^e allows.

    The indicator v_p(n^2/d) != 1 for p outside the set is equivalent to
    skipping f = 2e-1, so disallowed divisors are never generated.
    """
    skip = -1 if in_s else 2 * e - 1
    out = []
    pf = 1
    for f in range(3 * e + 1):
        if f != skip:
            out.append((pf, r4k_star_prime_power(p, f, k)))
        pf *= p
    return tuple(out)


def _profile(factors, k, s_primes, hi_cap, scale=1, table=None):
    """Divisors of n^3 passing the indicator, sorted, with weight prefix sums.

    factors is the factorization of n.  Each divisor d weighs scale * r*(d)
    (scale 8 at k = 1 is exactly r_4), or table[d] when a table is given.
    Divisors above hi_cap are pruned (partial products only grow).
    """
    items = [(1, scale)]
    for p, e in factors:
        pws = _prime_weights(p, e, k, p in s_primes)
        items = [(nd, wt * wf) for d, wt in items for pf, wf in pws
                 if (nd := d * pf) <= hi_cap]
    items.sort()
    ds = [d for d, _ in items]
    weights = [table[d] for d in ds] if table is not None else [wt for _, wt in items]
    return ds, [0, *accumulate(weights)]


def _profiles(nmax: int, req: CountRequest, cap, source: RSource = None):
    """Yield (n, ds, prefix) for n = 1..nmax: the one loop over n.

    cap is the divisor cap, an int or a function of n; n with a cap
    below 1 are skipped.  The exact table, when the source asks for it,
    is built once up to the int cap.
    """
    source = req.r_source if source is None else source
    spf = smallest_prime_factors(nmax)
    table = r4k_bruteforce(cap, req.k) if source == RSource.EXACT else None
    scale = 8 if source == RSource.JACOBI else 1
    for n in range(1, nmax + 1):
        hi = cap if isinstance(cap, int) else cap(n)
        if hi < 1:
            continue
        factors = _factor_from_spf(n, spf)
        yield (n, *_profile(factors, req.k, req.s_set, hi, scale, table))


def _window(ds, prefix, lo_floor, hi_floor) -> int:
    """Weight sum over divisors d with lo_floor < d <= hi_floor."""
    return prefix[bisect_right(ds, hi_floor)] - prefix[bisect_right(ds, lo_floor)]


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
    return n_star_by_divisor(bound, req).get(1, 0)


def n_star_by_divisor(bound, req: CountRequest) -> dict:
    """{e: n_star(B/e)} for squarefree e, nonzero entries only.

    Shares one divisor profile per n across all scaled bounds, so the
    whole Mobius family costs little more than n_star(B) alone.
    """
    b = _as_fraction(bound)
    if b < 1:
        raise DomainError("bound must be >= 1")
    bn, bd = b.numerator, b.denominator
    nmax = bn // bd
    bn2 = bn * bn
    bd2 = bd * bd
    mu = mobius_sieve(nmax)
    buckets: dict = {}
    for n, ds, prefix in _profiles(nmax, req, bn2 // bd2):
        if not ds:
            continue
        n3bd = n * n * n * bd
        for e in range(1, bn // (bd * n) + 1):
            if mu[e] == 0:
                continue
            s = _window(ds, prefix, (n3bd * e) // bn, bn2 // (bd2 * e * e))
            if s:
                buckets[e] = buckets.get(e, 0) + s
    return {e: 2 * v for e, v in sorted(buckets.items())}


def _mobius_combine(by_d: dict) -> int:
    """Sum of mu(e) * n_star(B/e) over {e: n_star(B/e)}: the primitive tuple count."""
    mu = mobius_sieve(max(by_d)) if by_d else []
    return sum(mu[e] * v for e, v in by_d.items())


def n_mobius(bound, req: CountRequest) -> int:
    """Mobius inclusion-exclusion over scaled bounds: the primitive tuple count."""
    return _mobius_combine(n_star_by_divisor(bound, req))


def s_sum(x_bound, y_bound, req: CountRequest) -> int:
    """Double sum of the multiplicative model over n <= X, d | n^3, d <= Y."""
    x = _as_fraction(x_bound)
    y = _as_fraction(y_bound)
    if x < 0 or y < 0:
        raise DomainError("bounds must be nonnegative")
    nmax = x.numerator // x.denominator
    hi = y.numerator // y.denominator
    # profiles are pruned at the cap, so each one's total is its last prefix
    return sum(prefix[-1] for _, _, prefix in _profiles(nmax, req, hi, RSource.RSTAR))


def t_sum(bound, req: CountRequest) -> int:
    """Same sum restricted to d <= n^3/B (closed upper bound)."""
    b = _as_fraction(bound)
    if b < 1:
        raise DomainError("bound must be >= 1")
    bn, bd = b.numerator, b.denominator
    profiles = _profiles(bn // bd, req, lambda n: (n * n * n * bd) // bn, RSource.RSTAR)
    return sum(prefix[-1] for _, _, prefix in profiles)


# ---------------------------------------------------------------------------
# Direct enumeration (the oracle)

_signed_cache: dict = {}
_coprime_cache: dict = {}


def _signed_count(rem: int, left: int) -> int:
    """Number of integer vectors of length `left` with squared norm rem."""
    if left == 0:
        return 1 if rem == 0 else 0
    key = (rem, left)
    c = _signed_cache.get(key)
    if c is None:
        c = _signed_count(rem, left - 1)
        t = 1
        while t * t <= rem:
            c += 2 * _signed_count(rem - t * t, left - 1)
            t += 1
        _signed_cache[key] = c
    return c


def _coprime_count(rem: int, left: int, g: int) -> int:
    """Vectors as above whose entries are jointly coprime to g."""
    if g == 1:
        return _signed_count(rem, left)
    if left == 0:
        return 0
    key = (rem, left, g)
    c = _coprime_cache.get(key)
    if c is None:
        c = _coprime_count(rem, left - 1, g)  # entry 0 keeps g
        t = 1
        while t * t <= rem:
            c += 2 * _coprime_count(rem - t * t, left - 1, math.gcd(g, t))
            t += 1
        _coprime_cache[key] = c
    return c


def _semi_ok_from_exponents(x_factors, dfac, s_set: PrimeSet) -> bool:
    # v_p(z) - v_p(x) = 2 e_p(x) - e_p(d); only primes of x can violate
    for p, e in x_factors:
        if p in s_set:
            continue
        if 2 * e - dfac.exponent(p) == 1:
            return False
    return True


def n_oracle(bound: int, k: int, s_set: PrimeSet) -> int:
    """Count primitive solutions with |x| <= B, h <= B^2, |z| < B directly.

    For x in 1..B and each divisor d of x^3 in the window (x^3/B, B^2],
    the y-vectors with squared norm d are enumerated exhaustively and
    filtered by coprimality with gcd(x, z); the semi-integral condition
    depends only on (x, z) and is checked once per divisor.  The result
    is doubled for the sign of x.
    """
    if bound < 1 or int(bound) != bound:
        raise DomainError("oracle bound must be a positive integer")
    bound = int(bound)
    cap = ORACLE_BOUND_LIMITS.get(k, 0)
    if bound > cap:
        raise CapacityError(
            f"oracle enumeration for k={k} is guarded at bound <= {cap}"
        )
    total = 0
    for x in range(1, bound + 1):
        x3 = x * x * x
        xf = factorize(x).factors
        for dfac in divisors_of_cube(x, Fraction(x3, bound), bound * bound):
            if not _semi_ok_from_exponents(xf, dfac, s_set):
                continue
            d = dfac.value
            z = x3 // d
            total += _coprime_count(d, 4 * k, math.gcd(x, z))
    return 2 * total


def _iter_vectors(rem: int, left: int):
    if left == 0:
        if rem == 0:
            yield ()
        return
    t = 0
    while t * t <= rem:
        for rest in _iter_vectors(rem - t * t, left - 1):
            yield (t,) + rest
            if t:
                yield (-t,) + rest
        t += 1


def iter_points(bound: int, k: int = 1, strict_z: bool = False):
    """Yield every primitive point with x >= 1 up to the height bound.

    strict_z selects the half-open convention |z| < bound used by the
    counting routes; otherwise the closed height condition |z| <= bound.
    """
    if bound < 1:
        raise DomainError("bound must be >= 1")
    for x in range(1, bound + 1):
        x3 = x * x * x
        for dfac in divisors_of_cube(x, 0, bound * bound):
            d = dfac.value
            if strict_z:
                if d * bound <= x3:
                    continue
            else:
                if d * bound < x3:
                    continue
            z = x3 // d
            g0 = math.gcd(x, z)
            for ys in _iter_vectors(d, 4 * k):
                if math.gcd(g0, *ys) != 1:
                    continue
                yield SurfacePoint(k=k, x=x, ys=ys, z=z)


# ---------------------------------------------------------------------------
# Reports

@dataclass
class CountReport:
    request: CountRequest
    n_star_values: dict
    n_mobius: int
    n_oracle: int = None
    s_value: int = None
    t_value: int = None
    timings: dict = field(default_factory=dict)

    @property
    def tuples(self) -> int:
        return self.n_mobius

    @property
    def points(self) -> int:
        return self.n_mobius // 2

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "schema": "v1",
            "request": self.request.to_json_dict(),
            "n_star_values": {str(e): v for e, v in self.n_star_values.items()},
            "n_mobius": self.n_mobius,
            "tuples": self.tuples,
            "points": self.points,
            "n_oracle": self.n_oracle,
            "s_value": self.s_value,
            "t_value": self.t_value,
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "CountReport":
        return cls(
            request=CountRequest.from_json_dict(d["request"]),
            n_star_values={int(e): v for e, v in d["n_star_values"].items()},
            n_mobius=d["n_mobius"],
            n_oracle=d.get("n_oracle"),
            s_value=d.get("s_value"),
            t_value=d.get("t_value"),
            timings=dict(d.get("timings", {})),
        )

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timings), indent=2)


def count_report(req: CountRequest, with_oracle: bool = False,
                 with_st: bool = False) -> CountReport:
    timings = {}
    t0 = time.perf_counter()
    by_d = n_star_by_divisor(req.bound, req)
    total = _mobius_combine(by_d)
    timings["mobius_s"] = time.perf_counter() - t0
    oracle = None
    if with_oracle:
        t0 = time.perf_counter()
        oracle = n_oracle(int(req.bound), req.k, req.s_set)
        timings["oracle_s"] = time.perf_counter() - t0
    sv = tv = None
    if with_st:
        t0 = time.perf_counter()
        sv = s_sum(req.bound, req.bound * req.bound, req)
        tv = t_sum(req.bound, req)
        timings["st_s"] = time.perf_counter() - t0
    return CountReport(
        request=req,
        n_star_values=by_d,
        n_mobius=total,
        n_oracle=oracle,
        s_value=sv,
        t_value=tv,
        timings=timings,
    )
