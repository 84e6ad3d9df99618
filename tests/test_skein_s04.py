import dataclasses
import sys
from itertools import combinations

import pytest

from skeinalg.curves import curve, sigma
from skeinalg.elements import (
    NoProductRuleError,
    SkeinElement,
    apply_mcg,
    combine,
    convert,
    single,
)
from skeinalg.laurent import ONE, const, parse_laurent, q_power
from skeinalg.polyseq import CHEB_S, MONOMIAL, THAT
from skeinalg.skein_s04 import (
    ForcingReport,
    S04_EMPTY,
    S04Label,
    SURFACE,
    c_element,
    element_from_json,
    extract_lowest_s04,
    gamma_pair_ab,
    gamma_quad,
    g_s04_closed,
    h_part,
    lowest_q_term_s04,
    mul_a_bn,
    mul_by_a,
    mul_by_s10,
    mul_s10_sm2,
    mul_sn1_s01,
    mul_tna_b,
    p1_forcing_witness,
    product,
    slabel,
    tna_b_by_recurrence,
)


def _elem(*pairs, flavor="s"):
    return SkeinElement(SURFACE, flavor, list(pairs))


def _g(*exps):
    return S04Label(None, tuple(exps))


def test_constants():
    assert c_element(0) == _elem((_g(1, 0, 1, 0), ONE), (_g(0, 1, 0, 1), ONE))
    assert c_element(1) == _elem((_g(1, 0, 0, 1), ONE), (_g(0, 1, 1, 0), ONE))
    assert c_element(4) == c_element(0)
    assert c_element(-3) == c_element(1)
    gq = gamma_quad()
    assert gq.coeff(S04Label(None)) == const(-2)
    assert gq.coeff(_g(1, 1, 1, 1)) == ONE
    assert gq.coeff(_g(2, 0, 0, 0)) == ONE


def test_sigma_fixes_constants():
    assert apply_mcg(gamma_pair_ab(), sigma()) == gamma_pair_ab()
    assert apply_mcg(gamma_quad(), sigma()) == gamma_quad()
    assert apply_mcg(c_element(0), sigma()) == c_element(1)


def test_mul_a_bn_examples():
    assert mul_a_bn(0) == _elem(
        (slabel(1, 1), q_power(2)),
        (slabel(-1, 1), q_power(-2)),
        (_g(1, 0, 1, 0), ONE),
        (_g(0, 1, 0, 1), ONE),
        flavor="that",
    )
    got1 = mul_a_bn(1)
    assert got1.coeff(slabel(2, 1)) == q_power(2)
    assert got1.coeff(slabel(0, 1)) == q_power(-2)
    assert got1.coeff(_g(1, 0, 0, 1)) == ONE
    gotm1 = mul_a_bn(-1)
    assert gotm1.coeff(slabel(0, 1)) == q_power(2)
    assert gotm1.coeff(slabel(-2, 1)) == q_power(-2)
    assert gotm1.coeff(_g(0, 1, 1, 0)) == ONE


def test_mul_a_bn_sigma_equivariance():
    for n in range(-10, 10):
        assert apply_mcg(mul_a_bn(n), sigma()) == mul_a_bn(n + 1)


def test_mul_tna_b_examples():
    assert mul_tna_b(0) == _elem((slabel(0, 1), const(2)), flavor="that")
    assert mul_tna_b(1) == mul_a_bn(0)
    got = mul_tna_b(2)
    assert got.coeff(slabel(2, 1)) == q_power(4)
    assert got.coeff(slabel(-2, 1)) == q_power(-4)
    # c_0 * a and c_1 * [2]
    assert got.coeff(S04Label(curve(1, 0), (1, 0, 1, 0))) == ONE
    assert got.coeff(_g(1, 0, 0, 1)) == parse_laurent("q^2+q^-2")


def test_mul_tna_b_matches_recurrence():
    powers = tna_b_by_recurrence(15)
    for n in range(16):
        assert mul_tna_b(n) == powers[n]


def test_mul_by_a_rejects_unknown_labels():
    bad = single(SURFACE, "that", slabel(1, 2))
    with pytest.raises(NoProductRuleError):
        mul_by_a(bad)


def test_mul_s10_sm2_base_cases():
    got = mul_s10_sm2(0)
    assert got.coeff(slabel(1, 2)) == q_power(4)
    assert got.coeff(slabel(-1, 2)) == q_power(-4)
    assert got.coeff(S04Label(curve(0, 1), (1, 0, 1, 0))) == ONE
    assert got.coeff(slabel(1, 0)) == ONE
    assert got.coeff(_g(1, 1, 0, 0)) == parse_laurent("q^2+q^-2")
    got = mul_s10_sm2(1)
    assert got.coeff(slabel(2, 2)) == q_power(4)
    assert got.coeff(slabel(0, 2)) == q_power(-4)
    assert got.coeff(S04Label(curve(1, 1), (1, 0, 1, 0))) == q_power(2)
    assert got.coeff(S04Label(curve(0, 1), (1, 0, 0, 1))) == q_power(-2)
    assert got.coeff(S04Label(None)) == const(-2)


def test_mul_s10_sm2_transported_case():
    # One half twist moves the even base case up by two; the peripheral
    # block steps its parity while the bracket stays fixed.
    got = mul_s10_sm2(2)
    assert got.coeff(slabel(3, 2)) == q_power(4)
    assert got.coeff(slabel(1, 2)) == q_power(-4)
    assert got.coeff(S04Label(curve(1, 1), (1, 0, 0, 1))) == ONE
    assert got.coeff(S04Label(curve(1, 1), (0, 1, 1, 0))) == ONE
    assert got.coeff(slabel(1, 0)) == ONE
    assert got.coeff(_g(1, 1, 0, 0)) == parse_laurent("q^2+q^-2")


def test_mul_s10_sm2_sigma_transport():
    for m in range(-8, 8):
        assert apply_mcg(mul_s10_sm2(m), sigma()) == mul_s10_sm2(m + 2)


def test_g_s04_closed_examples():
    assert g_s04_closed(0).is_zero
    assert g_s04_closed(1).is_zero
    got2 = g_s04_closed(2)
    assert got2.coeff(S04Label(curve(1, 1), (1, 0, 1, 0))) == q_power(2)
    assert len(got2) == 2
    got3 = g_s04_closed(3)
    assert got3.coeff(S04Label(curve(1, 1), (1, 0, 0, 1))) == q_power(2)
    assert got3.coeff(S04Label(curve(2, 1), (1, 0, 1, 0))) == q_power(2)
    assert len(got3) == 4


def test_mul_sn1_s01_base_cases():
    full0, h0 = mul_sn1_s01(0)[0], h_part(0)[0]
    assert full0 == _elem((slabel(0, 2), ONE), (S04Label(None), ONE))
    assert h0.is_zero
    full1, h1 = mul_sn1_s01(1)[1], h_part(1)[1]
    assert full1 == _elem(
        (slabel(1, 2), q_power(2)),
        (slabel(1, 0), q_power(-2)),
        (_g(1, 1, 0, 0), ONE),
        (_g(0, 0, 1, 1), ONE),
    )
    assert h1 == gamma_pair_ab()


def test_mul_sn1_s01_needs_no_call_depth():
    # n = 30 must fit in a stack only a little deeper than one product
    # needs: the tower is built upward, not by recursion.
    want = mul_sn1_s01(30)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 32)
    try:
        got = mul_sn1_s01(30)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_mul_sn1_s01_n2_remainder():
    h2 = h_part(2)[2]
    expected = gamma_quad() + _elem(
        (S04Label(curve(1, 0), (1, 1, 0, 0)), q_power(-2)),
        (S04Label(curve(1, 0), (0, 0, 1, 1)), q_power(-2)),
    )
    assert h2 == expected


def _slope_part(elem, s):
    return _elem(*((lab, c) for lab, c in elem.items() if lab.slope is not None and lab.slope.s == s))


def test_slope_parts_are_lead_and_closed_form():
    # The (k,1) part of the product is g_n and the (k,2) part is q^2n (n,2);
    # the remainder h_n is what is left, so it cannot be tested this way.
    for n, full in enumerate(mul_sn1_s01(14)):
        assert _slope_part(full, 1) == g_s04_closed(n), n
        assert _slope_part(full, 2) == _elem((slabel(n, 2), q_power(2 * n))), n


def test_h_structure():
    remainders = h_part(20)
    for n in range(1, 21):
        h = remainders[n]
        for label, c in h.items():
            assert label.slope is None or label.slope.s == 0, (n, label.text())
            rng = c.q_degree_range()
            assert rng is not None
            assert rng[0] >= -2 * n + 2 and rng[1] <= 2 * n - 2, (n, label.text())


def test_lowest_q_term():
    assert len(lowest_q_term_s04(1)) == 1
    layers = lowest_q_term_s04(12)
    assert len(layers) == 12
    for n, (low, elem) in enumerate(layers, start=1):
        assert low == -2 * n
        assert elem == single(SURFACE, "s", slabel(n, 0))
    with pytest.raises(ValueError):
        lowest_q_term_s04(0)


def test_extract_reads_the_last_layer():
    # The extraction splits only the n-th product; the reference splits all.
    for n in range(1, 9):
        low, elem, matches = extract_lowest_s04(n)
        assert (low, elem) == lowest_q_term_s04(n)[-1]
        assert matches
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            extract_lowest_s04(n)


def test_gamma_centrality():
    # Dressing the input with a peripheral monomial dresses the output.
    dress = (0, 2, 1, 0)
    base = mul_by_s10(single(SURFACE, "s", slabel(3, 1)))
    dressed = mul_by_s10(single(SURFACE, "s", S04Label(curve(3, 1), dress)))
    redressed = base.map_labels(
        lambda lab: S04Label(lab.slope, tuple(a + b for a, b in zip(lab.periph, dress)))
    )
    assert dressed == redressed


def test_mul_by_s10_rejects_unknown_labels():
    with pytest.raises(NoProductRuleError):
        mul_by_s10(single(SURFACE, "s", slabel(1, 3)))


def test_p1_forcing_witness():
    for delta in (-3, -2, -1, 1, 2, 3):
        rep = p1_forcing_witness(delta)
        assert rep.gamma_coeff == const(-delta)
        assert rep.slope_coeff == const(delta)
        assert rep.violations
        bad = dict((lab, c) for lab, c in rep.violations)
        if delta > 0:
            assert rep.gamma_label in bad
        else:
            assert rep.slope_label in bad
    with pytest.raises(ValueError):
        p1_forcing_witness(0)


def test_forcing_report_reads_its_element():
    # A hand-made element, not a forcing product: the report keeps only it
    # and reads both witnesses and every non-positive term from it.
    a, b = slabel(1, 0), slabel(0, 1)
    elem = _elem(
        (S04_EMPTY, q_power(1) - q_power(-1)),
        (_g(1, 0, 0, 0), const(-2)),
        (_g(0, 1, 0, 0), const(4)),
        (a, const(5)),
        (b, q_power(2) * -3),
    )
    rep = ForcingReport(7, elem)
    assert [f.name for f in dataclasses.fields(rep)] == ["delta", "element"]
    assert (rep.gamma_label, rep.gamma_coeff) == (_g(1, 0, 0, 0), const(-2))
    assert (rep.slope_label, rep.slope_coeff) == (a, const(5))
    assert rep.violations == [
        (S04_EMPTY, q_power(1) - q_power(-1)),
        (_g(1, 0, 0, 0), const(-2)),
        (b, q_power(2) * -3),
    ]
    obj = rep.to_json_obj()
    keys = ["delta", "gamma_witness", "slope_witness", "violations", "element"]
    assert list(obj) == keys
    assert obj["gamma_witness"] == {"label": "g1", "coeff": const(-2).to_json_obj()}
    assert obj["slope_witness"] == {"label": "(1,0)", "coeff": const(5).to_json_obj()}
    assert [v["label"] for v in obj["violations"]] == ["1", "g1", "(0,1)"]
    assert obj["element"] == elem.to_json_obj()
    # A witness label the element lacks reads as 0.
    assert ForcingReport(1, _elem((b, const(-1)))).slope_coeff == 0


def test_p1_forcing_element_structure():
    rep = p1_forcing_witness(1)
    e = rep.element
    assert e.coeff(slabel(1, 1)) == q_power(2)
    assert e.coeff(slabel(-1, 1)) == q_power(-2)
    assert e.coeff(_g(1, 0, 1, 0)) == ONE
    assert e.coeff(_g(0, 1, 0, 1)) == ONE
    for i in range(4):
        g = [0, 0, 0, 0]
        g[i] = 1
        assert e.coeff(S04Label(None, tuple(g))) == const(-1)
    assert e.coeff(slabel(0, 1)) == ONE
    assert e.coeff(S04Label(None)) == parse_laurent("1-q^2-q^-2")


def _components(label):
    """Single-component labels making up a multiplicity-one multicurve."""
    comps = []
    if label.slope is not None:
        assert label.slope.d == 1
        comps.append(S04Label(label.slope))
    for i, e in enumerate(label.periph):
        assert e <= 1
        if e == 1:
            g = [0, 0, 0, 0]
            g[i] = 1
            comps.append(S04Label(None, tuple(g)))
    return comps


def _merge(labels):
    slope = None
    g = [0, 0, 0, 0]
    for lab in labels:
        if lab.slope is not None:
            slope = lab.slope
        g = [a + b for a, b in zip(g, lab.periph)]
    return S04Label(slope, tuple(g))


def _forcing_by_inclusion_exclusion(delta):
    """The forcing element read in the basis 1, x + delta by hand: a
    component c is the basis factor minus delta, so a product over
    components expands by inclusion-exclusion over the components dropped."""
    flavor = f"p1[{delta}]"
    raw = mul_a_bn(0, flavor) + SkeinElement(
        SURFACE,
        flavor,
        [(slabel(1, 0), delta), (slabel(0, 1), delta), (S04_EMPTY, delta * delta)],
    )
    terms = []
    for label, c in raw.items():
        comps = _components(label)
        for size in range(len(comps) + 1):
            for kept in combinations(comps, len(comps) - size):
                terms.append((_merge(list(kept)), c * const((-delta) ** size)))
    return SkeinElement(SURFACE, flavor, terms)


@pytest.mark.parametrize("delta", [d for d in range(-5, 6) if d != 0])
def test_p1_forcing_matches_inclusion_exclusion(delta):
    assert p1_forcing_witness(delta).element == _forcing_by_inclusion_exclusion(delta)


_DRESSINGS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 0), (1, 1, 1, 1)]
_RIGHT_SLOPES = (
    [None]
    + [curve(k, 0) for k in range(1, 6)]
    + [curve(m, 1) for m in range(-3, 4)]
)


def _product_pairs():
    """The label pairs of the three rows that hold in both product flavors:
    gi^k * label, (1,0) * (n,1) and (1,0) * (k,0), each dressed."""
    for ga in _DRESSINGS:
        for gb in _DRESSINGS:
            for slope in _RIGHT_SLOPES + [curve(m, 2) for m in range(-3, 4)]:
                yield S04Label(None, ga), S04Label(slope, gb)
            for slope in _RIGHT_SLOPES:
                yield S04Label(curve(1, 0), ga), S04Label(slope, gb)


def _bilinear(x, y, flavor):
    """x * y term by term through ``product`` in ``flavor``."""
    return combine(
        SURFACE,
        flavor,
        [
            (product(la, lb, flavor), ca * cb)
            for la, ca in x.items()
            for lb, cb in y.items()
        ],
    )


@pytest.mark.parametrize("source,target", [(CHEB_S, THAT), (THAT, CHEB_S)])
def test_convert_between_product_flavors_is_exact(source, target):
    # The product flavors read peripheral exponents as monomials, so only
    # slopes are re-read, and each product converts to the product of the
    # converted factors.
    def read(label):
        return convert(single(SURFACE, source.name, label), target, source)

    for a, b in _product_pairs():
        got = convert(product(a, b, source.name), target, source)
        assert got == _bilinear(read(a), read(b), target.name), (a.text(), b.text())


def test_convert_keeps_peripheral_monomials_in_product_flavors():
    g = S04Label(None, (2, 0, 3, 0))
    for source, target in [(CHEB_S, THAT), (THAT, MONOMIAL), (MONOMIAL, CHEB_S)]:
        got = convert(single(SURFACE, source.name, g), target, source)
        assert got == single(SURFACE, target.name, g)


@pytest.mark.parametrize("middle", [THAT, MONOMIAL])
def test_convert_round_trips_the_tower(middle):
    for k, full in enumerate(mul_sn1_s01(11)):
        there = convert(full, middle, CHEB_S)
        assert there.flavor == middle.name
        assert convert(there, CHEB_S, middle) == full, k


def test_element_json_round_trip():
    e = mul_sn1_s01(3)[3]
    assert element_from_json(e.to_json_obj()) == e
