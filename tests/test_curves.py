import random

import pytest

from skeinalg.curves import (
    CurveClass,
    CurveSyntaxError,
    IDENTITY,
    MappingClass,
    curve,
    gcd_decompose,
    intersection_number,
    parse_slope,
    sigma,
)


def test_gcd_decompose():
    assert gcd_decompose(curve(4, 2)) == (2, curve(2, 1))
    assert gcd_decompose(curve(0, 3)) == (3, curve(0, 1))
    assert gcd_decompose(curve(1, -1)) == (1, curve(-1, 1))


def test_canonicalization():
    assert curve(1, -1) == curve(-1, 1)
    assert curve(-3, 0) == curve(3, 0)
    assert curve(2, 3).r == 2 and curve(2, 3).s == 3
    with pytest.raises(ValueError):
        curve(0, 0)


def test_canonicalization_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        r, s = rng.randrange(-9, 10), rng.randrange(-9, 10)
        if (r, s) == (0, 0):
            continue
        c = curve(r, s)
        assert curve(c.r, c.s) == c
        assert curve(-r, -s) == c


def test_sigma_orbit():
    b = curve(0, 1)
    m = sigma()
    got = b
    for n in range(1, 8):
        got = m.apply(got)
        assert got == curve(n, 1)


def test_identity_and_rotation():
    assert IDENTITY.apply(curve(5, -3)) == curve(5, -3)
    rot = MappingClass(0, -1, 1, 0)
    assert rot.apply(curve(1, 0)) == curve(0, 1)


def test_mapping_class_determinant_checked():
    with pytest.raises(ValueError):
        MappingClass(1, 0, 0, -1)


def test_intersection_number():
    assert intersection_number(curve(1, 0), curve(0, 1)) == 1
    assert intersection_number(curve(1, 0), curve(1, 0)) == 0
    assert intersection_number(curve(1, 2), curve(1, 0)) == 2
    with pytest.raises(ValueError):
        intersection_number(curve(2, 0), curve(0, 1))


def _random_mcg(rng):
    m = IDENTITY
    shear = sigma()
    rot = MappingClass(0, -1, 1, 0)
    for _ in range(rng.randrange(1, 6)):
        m = m.compose(shear if rng.random() < 0.5 else rot)
    return m


def test_mcg_preserves_multiplicity_and_intersections():
    rng = random.Random(11)
    for _ in range(100):
        m = _random_mcg(rng)
        r, s = rng.randrange(-8, 9), rng.randrange(-8, 9)
        if (r, s) == (0, 0):
            continue
        c = curve(r, s)
        assert m.apply(c).d == c.d
        a = curve(rng.choice([1, 2, 3]), rng.choice([0, 1, 5]))
        b = curve(rng.choice([0, 1, -2]), 1)
        a, b = a.primitive(), b.primitive()
        assert intersection_number(m.apply(a), m.apply(b)) == (
            intersection_number(a, b)
        )


def test_power_and_inverse():
    m = sigma()
    assert m.power(3).apply(curve(0, 1)) == curve(3, 1)
    assert m.power(-2).apply(curve(0, 1)) == curve(-2, 1)
    assert m.compose(m.inverse()) == IDENTITY


def test_parse_slope():
    assert parse_slope("(2,1)") == curve(2, 1)
    assert parse_slope(" ( -3 , 2 ) ") == curve(-3, 2)
    with pytest.raises(CurveSyntaxError):
        parse_slope("2,1")
    with pytest.raises(CurveSyntaxError):
        parse_slope("(2;1)")
    with pytest.raises(CurveSyntaxError):
        parse_slope("(0,0)")
