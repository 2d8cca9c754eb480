import pytest

from semicubic.arith import DomainError, PrimeSet, primes_up_to, vp
from semicubic.geometry import (
    SurfacePoint,
    height_le,
    intersection_mults,
    m_point_ok,
    semi_integral_ok,
)

E1 = (1, 0, 0, 0)
S_EMPTY = PrimeSet.empty()


def test_constructor_validation():
    with pytest.raises(DomainError):
        SurfacePoint(k=1, x=0, ys=(0, 0, 0, 0), z=1)
    with pytest.raises(DomainError):
        SurfacePoint(k=1, x=2, ys=(2, 0, 0, 0), z=2)  # gcd 2
    with pytest.raises(DomainError):
        SurfacePoint(k=1, x=1, ys=(1, 1, 0, 0), z=1)  # equation fails
    with pytest.raises(DomainError):
        SurfacePoint(k=1, x=1, ys=(1, 0, 0), z=1)  # wrong length
    with pytest.raises(DomainError):
        SurfacePoint(k=0, x=1, ys=(), z=1)


def test_height_examples():
    p1 = SurfacePoint(k=1, x=1, ys=E1, z=1)
    assert height_le(p1, 1)
    p2 = SurfacePoint(k=1, x=2, ys=(1, 1, 0, 0), z=4)
    assert not height_le(p2, 3)
    assert height_le(p2, 4)


def test_negative_x_accepted():
    p = SurfacePoint(k=1, x=-2, ys=(1, 1, 0, 0), z=-4)
    assert p.h == 2
    assert height_le(p, 4)


def test_semi_integral_examples():
    p1 = SurfacePoint(k=1, x=1, ys=E1, z=1)
    p2 = SurfacePoint(k=1, x=2, ys=(1, 1, 0, 0), z=4)
    assert semi_integral_ok(p1, S_EMPTY)
    assert not semi_integral_ok(p2, S_EMPTY)
    assert semi_integral_ok(p2, PrimeSet.of(2))


def test_intersection_mults_examples():
    p2 = SurfacePoint(k=1, x=2, ys=(1, 1, 0, 0), z=4)
    assert intersection_mults(p2, 2) == (0, 1)
    p1 = SurfacePoint(k=1, x=1, ys=E1, z=1)
    assert intersection_mults(p1, 3) == (0, 0)


def test_m_point_examples():
    p1 = SurfacePoint(k=1, x=1, ys=E1, z=1)
    p2 = SurfacePoint(k=1, x=2, ys=(1, 1, 0, 0), z=4)
    assert m_point_ok(p1, S_EMPTY)
    assert not m_point_ok(p2, S_EMPTY)
    assert m_point_ok(p2, PrimeSet.of(2))


def test_branch_consistency(height40):
    # whenever v_p(x) = v_p(h) = min and v_p(z) > 0, both n2 formulas agree
    _, classes = height40
    hit = 0
    for pt in classes:
        for p in (2, 3, 5, 7):
            a, b, c = vp(p, pt.x), vp(p, pt.h), vp(p, pt.z)
            if c > 0 and a == b == min(a, b, c):
                assert c - a == b, (pt, p)
                hit += 1
    assert hit > 0


def test_valuation_difference_identity(height40):
    # v_p(z) - v_p(x) equals the valuation of x^2/h
    _, classes = height40
    for pt in classes:
        for p in primes_up_to(100):
            assert vp(p, pt.z) - vp(p, pt.x) == vp(p, pt.x**2) - vp(p, pt.h)

