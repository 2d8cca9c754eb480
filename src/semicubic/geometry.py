"""Points on the hypersurface x^3 = (y_1^2 + ... + y_{4k}^2) z.

Heights in exact comparison form, the semi-integral condition at primes
outside the exceptional set, and the two intersection multiplicities of
a lifted point against the boundary divisors of the resolved model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .arith import DomainError, PrimeSet, _as_fraction, factorize, vp


@dataclass(frozen=True)
class SurfacePoint:
    """Primitive integer solution (x, y_1..y_{4k}, z) with x != 0.

    h caches the squared norm of the y-vector.  The equation forces
    z != 0 and h > 0 whenever x != 0, and sign(z) = sign(x).
    """

    k: int
    x: int
    ys: tuple
    z: int
    h: int = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be >= 1")
        if len(self.ys) != 4 * self.k:
            raise DomainError(f"expected {4*self.k} y-coordinates")
        if self.x == 0:
            raise DomainError("points with x = 0 are outside the counting domain")
        h = sum(y * y for y in self.ys)
        object.__setattr__(self, "h", h)
        if self.x ** 3 != h * self.z:
            raise DomainError("coordinates do not satisfy x^3 = h z")
        if math.gcd(self.x, self.z, *self.ys) != 1:
            raise DomainError("coordinates are not coprime")


class MultPair(NamedTuple):
    n1: int
    n2: int


def height_le(pt: SurfacePoint, bound) -> bool:
    """H(pt) <= bound, evaluated in exact arithmetic."""
    b = _as_fraction(bound)
    return abs(pt.x) <= b and pt.h <= b * b and abs(pt.z) <= b


def _prime_support(*values: int):
    primes = set()
    for v in values:
        for p, _ in factorize(abs(v)).factors:
            primes.add(p)
    return sorted(primes)


def semi_integral_ok(pt: SurfacePoint, s_set: PrimeSet) -> bool:
    """v_p(z) - v_p(x) != 1 at every prime p outside the exceptional set.

    Only primes dividing x z can give a nonzero difference, so the check
    is finite.
    """
    for p in _prime_support(pt.x, pt.z):
        if p in s_set:
            continue
        if vp(p, pt.z) - vp(p, pt.x) == 1:
            return False
    return True


def intersection_mults(pt: SurfacePoint, p: int) -> MultPair:
    """Multiplicities (n1, n2) of the lifted point against the two divisors.

    With a = v_p(x), b = v_p(h), c = v_p(z) and A = min(a, b, c):
      n1 = a - b          if c > 0 and A = b, else 0
      n2 = c - a          if c > 0 and A = a,
           b              if c > 0 and A = b, else 0
    The two n2 branches can both apply (a = b = A); on the surface they
    then agree, which is asserted.
    """
    a = vp(p, pt.x)
    b = vp(p, pt.h) if pt.h > 1 else 0
    c = vp(p, pt.z)
    low = min(a, b, c)
    n1 = a - b if c > 0 and low == b else 0
    if c > 0 and low == a:
        n2 = c - a
        if low == b:
            assert n2 == b, f"overlapping branches disagree at p={p}: {pt}"
    elif c > 0 and low == b:
        n2 = b
    else:
        n2 = 0
    return MultPair(n1, n2)


def m_point_ok(pt: SurfacePoint, s_set: PrimeSet) -> bool:
    """No prime outside the set has multiplicity pair exactly (0, 1)."""
    for p in _prime_support(pt.x, pt.z, pt.h):
        if p in s_set:
            continue
        if intersection_mults(pt, p) == (0, 1):
            return False
    return True
