import random

import pytest

from skeinalg.curves import MappingClass, curve, sigma
from skeinalg.elements import SkeinElement, apply_mcg, label_from_text, single
from skeinalg.laurent import ONE, Laurent, const, parse_laurent, q_power
from skeinalg.polyseq import CHEB_S, MONOMIAL, THAT
from skeinalg.skein_torus import (
    EMPTY,
    SURFACE,
    TorusLabel,
    canonical_slopes,
    convert,
    element_from_json,
    fg_mul,
    mul,
    positivity_scan,
    structure_constants,
    tlabel,
)


def _elem(*pairs, flavor="that"):
    return SkeinElement(SURFACE, flavor, list(pairs))


def test_fg_mul_examples():
    assert fg_mul(tlabel(1, 0), tlabel(0, 1)) == _elem(
        (tlabel(1, 1), q_power(1)), (tlabel(-1, 1), q_power(-1))
    )
    assert fg_mul(tlabel(2, 1), tlabel(0, 1)) == _elem(
        (tlabel(2, 2), q_power(2)), (tlabel(2, 0), q_power(-2))
    )
    assert fg_mul(tlabel(1, 0), tlabel(1, 0)) == _elem(
        (tlabel(2, 0), ONE), (EMPTY, const(2))
    )


def test_fg_mul_empty_is_unit():
    assert fg_mul(EMPTY, tlabel(1, 1)) == _elem((tlabel(1, 1), ONE))
    assert fg_mul(EMPTY, EMPTY) == _elem((EMPTY, ONE))


def test_mul_bilinear():
    x = _elem((tlabel(1, 0), ONE), (tlabel(0, 1), ONE))
    sq = mul(x, x)
    expected = (
        fg_mul(tlabel(1, 0), tlabel(1, 0))
        + fg_mul(tlabel(1, 0), tlabel(0, 1))
        + fg_mul(tlabel(0, 1), tlabel(1, 0))
        + fg_mul(tlabel(0, 1), tlabel(0, 1))
    )
    assert sq == expected


def test_mul_unit_and_zero():
    e = _elem((tlabel(1, 1), q_power(1)))
    assert mul(e, _elem((EMPTY, ONE))) == e
    assert mul(e, SkeinElement(SURFACE, "that")) == SkeinElement(SURFACE, "that")


def test_mul_requires_that_flavor():
    e = _elem((tlabel(1, 1), ONE), flavor="s")
    with pytest.raises(ValueError):
        mul(e, e)


def test_convert_examples():
    mono = single(SURFACE, "monomial", tlabel(2, 0))
    assert convert(mono, THAT, MONOMIAL) == _elem(
        (tlabel(2, 0), ONE), (EMPTY, const(2))
    )
    that = single(SURFACE, "that", tlabel(2, 0))
    assert convert(that, CHEB_S, THAT) == _elem(
        (tlabel(2, 0), ONE), (EMPTY, const(-1)), flavor="s"
    )
    prim = single(SURFACE, "s", tlabel(3, 1))
    assert convert(prim, THAT, CHEB_S) == _elem((tlabel(3, 1), ONE))


def test_convert_round_trip():
    rng = random.Random(3)
    for P in (CHEB_S, MONOMIAL):
        for _ in range(25):
            terms = []
            for _ in range(3):
                r, s = rng.randrange(-6, 7), rng.randrange(0, 5)
                if (r, s) == (0, 0):
                    continue
                coeff = Laurent({rng.randrange(-3, 4): rng.randrange(-5, 6)})
                terms.append((tlabel(r, s), coeff))
            e = SkeinElement(SURFACE, "that", terms)
            assert convert(convert(e, P, THAT), THAT, P) == e


def test_structure_constants_that_two_terms():
    for (a, b) in [((2, 1), (0, 1)), ((1, 0), (3, 2)), ((5, 3), (-2, 1))]:
        prod = structure_constants(THAT, tlabel(*a), tlabel(*b))
        assert len(prod) <= 2
        assert all(c.is_positive() for _, c in prod.items())


def test_structure_constants_s_flavor_example():
    prod = structure_constants(CHEB_S, tlabel(2, 1), tlabel(0, 1))
    assert prod == _elem(
        (tlabel(2, 2), q_power(2)),
        (tlabel(2, 0), q_power(-2)),
        (EMPTY, parse_laurent("-q^2-q^-2")),
        flavor="s",
    )


def test_structure_constants_empty_unit():
    prod = structure_constants(CHEB_S, EMPTY, tlabel(4, 2))
    assert prod == _elem((tlabel(4, 2), ONE), flavor="s")


def test_associativity_sample():
    rng = random.Random(99)
    for _ in range(60):
        labs = []
        while len(labs) < 3:
            r, s = rng.randrange(-8, 9), rng.randrange(-8, 9)
            if (r, s) != (0, 0):
                labs.append(tlabel(r, s))
        ea, eb, ec = (_elem((lab, ONE)) for lab in labs)
        assert mul(mul(ea, eb), ec) == mul(ea, mul(eb, ec))


def test_commutator_identity():
    rng = random.Random(17)
    for _ in range(60):
        r, s = rng.randrange(-6, 7), rng.randrange(-6, 7)
        u, v = rng.randrange(-6, 7), rng.randrange(-6, 7)
        if (r, s) == (0, 0) or (u, v) == (0, 0):
            continue
        a, b = tlabel(r, s), tlabel(u, v)
        d = a.slope.r * b.slope.s - b.slope.r * a.slope.s
        lhs = fg_mul(a, b) - fg_mul(b, a)
        factor = q_power(d) - q_power(-d)
        plus = (a.slope.r + b.slope.r, a.slope.s + b.slope.s)
        minus = (a.slope.r - b.slope.r, a.slope.s - b.slope.s)
        terms = []
        for sign, (x, y) in ((1, plus), (-1, minus)):
            coeff = factor if sign == 1 else -factor
            if (x, y) == (0, 0):
                terms.append((EMPTY, coeff + coeff))
            else:
                terms.append((tlabel(x, y), coeff))
        assert lhs == _elem(*terms)
        if d == 0:
            assert lhs.is_zero


def test_mapping_class_equivariance():
    rng = random.Random(23)
    rot = MappingClass(0, -1, 1, 0)
    for _ in range(40):
        m = sigma().power(rng.randrange(-3, 4)).compose(
            rot.power(rng.randrange(0, 4))
        )
        r, s = rng.randrange(-5, 6), rng.randrange(-5, 6)
        u, v = rng.randrange(-5, 6), rng.randrange(-5, 6)
        if (r, s) == (0, 0) or (u, v) == (0, 0):
            continue
        a, b = tlabel(r, s), tlabel(u, v)
        ma = apply_mcg(_elem((a, ONE)), m)
        mb = apply_mcg(_elem((b, ONE)), m)
        assert mul(ma, mb) == apply_mcg(fg_mul(a, b), m)


def test_canonical_slopes_order():
    slopes = canonical_slopes(2)
    assert slopes[0] == curve(1, 0)
    assert [c.text() for c in slopes[:4]] == ["(1,0)", "(2,0)", "(-2,1)", "(-1,1)"]
    assert len(slopes) == 2 + 2 * 5


def test_scan_that_passes_small():
    report = positivity_scan(THAT, 4)
    assert report.passed
    assert report.witnesses == []


def test_scan_s_finds_expected_violation():
    report = positivity_scan(CHEB_S, 3)
    assert not report.passed
    first = report.first_witness()
    assert first.inputs == ("(1,0)", "(-3,2)")
    assert first.label == "1"
    assert first.coeff == parse_laurent("-q^2-q^-2")
    # The canonical spec witness appears in the list as well.
    assert any(
        w.inputs == ("(2,1)", "(0,1)")
        and w.label == "1"
        and w.coeff == parse_laurent("-q^2-q^-2")
        for w in report.witnesses
    )


def test_scan_monomial_first_violation_frozen():
    report = positivity_scan(MONOMIAL, 3)
    assert not report.passed
    first = report.first_witness()
    assert first.inputs == ("(1,0)", "(-3,2)")
    assert first.label == "1"
    assert first.coeff == parse_laurent("-2q^2-2q^-2")


def test_scan_q1_specializes():
    assert positivity_scan(THAT, 3, q1=True).passed
    assert not positivity_scan(CHEB_S, 3, q1=True).passed


def test_that_structure_constants_nonnegative_at_q1():
    report = positivity_scan(THAT, 5)
    assert report.passed
    rng = random.Random(1)
    for _ in range(50):
        r, s = rng.randrange(-5, 6), rng.randrange(-5, 6)
        u, v = rng.randrange(-5, 6), rng.randrange(-5, 6)
        if (r, s) == (0, 0) or (u, v) == (0, 0):
            continue
        prod = structure_constants(THAT, tlabel(r, s), tlabel(u, v))
        for _, c in prod.items():
            assert c.specialize_q1() >= 0


def test_element_json_round_trip():
    e = structure_constants(CHEB_S, tlabel(2, 1), tlabel(0, 1))
    assert element_from_json(e.to_json_obj()) == e


def test_label_from_text():
    assert label_from_text(TorusLabel, "1") == (None, EMPTY)
    assert label_from_text(TorusLabel, "(2,-1)") == (None, tlabel(-2, 1))
