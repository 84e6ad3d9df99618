"""The per-surface product tables: routing order, refusals, and the
left-multiplication loops that run through them."""

import pytest

from skeinalg import skein_ptorus, skein_s04
from skeinalg.curves import curve
from skeinalg.elements import NoProductRuleError, SkeinElement, shifted, single
from skeinalg.laurent import q_power
from skeinalg.polyseq import THAT, expand_in
from skeinalg.skein_ptorus import PT_EMPTY, PTorusLabel, plabel
from skeinalg.skein_s04 import S04_EMPTY, S04Label, slabel
from skeinalg.skein_torus import tlabel


def test_tables_name_their_families():
    for table in (skein_ptorus.PRODUCTS, skein_s04.PRODUCTS):
        families = [row.family for row in table]
        assert len(set(families)) == len(families)
    with pytest.raises(NoProductRuleError) as err:
        skein_ptorus.product(plabel(2, 0), plabel(4, 2))
    assert all(row.family in str(err.value) for row in skein_ptorus.PRODUCTS)


def test_ptor_type_one_power_of_10():
    # T̂_1 T̂_k = T̂_(k+1) + T̂_(k-1) on one curve, dressed by an unread U.
    for k in range(1, 6):
        for u in (0, 2):
            got = skein_ptorus.product(plabel(1, 0), plabel(k, 0, u=u))
            lower = PTorusLabel(None, (u,)) if k == 1 else plabel(k - 1, 0, u=u)
            # The k = 1 case lands on the unnormalized T_0 = 2.
            assert got.coeff(plabel(k + 1, 0, u=u)) == q_power(0)
            assert got.coeff(lower) == q_power(0) * (2 if k == 1 else 1)
            assert len(got) == 2


def test_ptor_refuses_u_dressed_n2():
    # U-powers are read in the flavor and (1,0)*(n,2) puts U into its
    # output, so neither factor may carry U.
    for n in (1, 2, 3):
        with pytest.raises(NoProductRuleError):
            skein_ptorus.product(plabel(1, 0), plabel(n, 2, u=1))
        with pytest.raises(NoProductRuleError):
            skein_ptorus.mul_by_t10(single(skein_ptorus.SURFACE, "that", plabel(n, 2, u=2)))
    with pytest.raises(NoProductRuleError):
        skein_ptorus.product(plabel(1, 0, u=1), plabel(3, 1, u=1))


def test_ptor_u_power_product_is_one_variable():
    # The three-term rule against the one-variable product, expanded.
    for j in range(31):
        for k in range(31):
            got = skein_ptorus.product(PTorusLabel(None, (j,)), PTorusLabel(None, (k,)))
            want = expand_in(THAT.poly(j) * THAT.poly(k), THAT)
            assert got == SkeinElement(
                skein_ptorus.SURFACE,
                "that",
                [(PTorusLabel(None, (i,)), c) for i, c in enumerate(want)],
            )


def test_ptor_mul_by_t10_matches_product():
    elem = skein_ptorus.mul_tn1_t01(5)
    want = SkeinElement(skein_ptorus.SURFACE, "that")
    for label, c in elem.items():
        want = want + skein_ptorus.product(plabel(1, 0), label).scaled(c)
    assert skein_ptorus.mul_by_t10(elem) == want


def test_oracle_route_never_reaches_closed_form(monkeypatch):
    # (1,0)*(0,1) matches both the (1,0)*(n,1) row and the (n,0)*(0,1)
    # row; the recurrence must take the first, never the closed form.
    want = skein_s04.tna_b_by_recurrence(12)

    def closed_form(n):
        raise AssertionError("the recurrence reached mul_tna_b")

    monkeypatch.setattr(skein_s04, "mul_tna_b", closed_form)
    assert skein_s04.tna_b_by_recurrence(12) == want
    assert skein_s04.product(slabel(1, 0), slabel(0, 1), "that") == skein_s04.mul_a_bn(
        0, "that"
    )


_DRESSINGS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 0), (1, 1, 1, 1)]


@pytest.mark.parametrize("g", _DRESSINGS)
def test_s04_n1_row_matches_resolution(g):
    # The (1,0)*(k,1) resolution written out: two shifted curves plus the
    # parity constant, all dressed by the label's peripheral monomial.
    for flavor in ("s", "that"):
        for r in range(-12, 13):
            c = skein_s04.c_element(r, flavor)
            want = SkeinElement(
                skein_s04.SURFACE,
                flavor,
                [
                    (S04Label(curve(r + 1, 1), g), q_power(2)),
                    (S04Label(curve(r - 1, 1), g), q_power(-2)),
                ]
                + [
                    (S04Label(None, tuple(a + b for a, b in zip(lab.periph, g))), cc)
                    for lab, cc in c.items()
                ],
            )
            label = S04Label(curve(r, 1), g)
            assert skein_s04.product(slabel(1, 0), label, flavor) == want
            elem = single(skein_s04.SURFACE, flavor, label)
            mul = skein_s04.mul_by_s10 if flavor == "s" else skein_s04.mul_by_a
            assert mul(elem) == want


def test_s04_type_one_power_of_10():
    got = skein_s04.product(slabel(1, 0), slabel(2, 0), "that")
    assert got == SkeinElement(
        skein_s04.SURFACE, "that", [(slabel(3, 0), 1), (slabel(1, 0), 1)]
    )
    # In the type-two flavor S_1 S_2 = S_3 + S_1 as well.
    assert skein_s04.product(slabel(1, 0), slabel(2, 0), "s") == got.with_flavor("s")


def test_s04_flavor_limits_rows():
    with pytest.raises(NoProductRuleError):
        skein_s04.product(slabel(1, 0), slabel(3, 2), "that")
    with pytest.raises(NoProductRuleError):
        skein_s04.product(slabel(2, 0), slabel(0, 1), "s")
    assert skein_s04.product(slabel(3, 0), slabel(0, 1), "that") == skein_s04.mul_tna_b(3)


def test_s04_peripheral_row_adds_exponents():
    got = skein_s04.product(
        S04Label(None, (1, 0, 0, 2)), S04Label(curve(2, 1), (0, 1, 0, 1)), "that"
    )
    assert got == single(skein_s04.SURFACE, "that", S04Label(curve(2, 1), (1, 1, 0, 3)))


def _family(table, a, b, flavor):
    """The family of the row that ``route`` takes for a * b."""
    return next(r for r in table if flavor in r.flavors and r.shape(a, b)).family


_PT_ROWS = {
    "U^k * (r,s) and (r,s) * U^k": [
        (PT_EMPTY, plabel(2, 1)),
        (plabel(3, 2), PT_EMPTY),
        (PT_EMPTY, plabel(4, 0)),
    ],
    "(r,s) * (u,v) meeting once": [
        (plabel(2, 1), plabel(1, 0)),
        (plabel(2, 0), plabel(0, 1)),
        (plabel(1, 0), plabel(3, 1)),
        (plabel(-1, 2), plabel(0, 1)),
    ],
    "(1,0) * (k,0)": [(plabel(1, 0), plabel(k, 0)) for k in (1, 2, 3, 6)],
}


@pytest.mark.parametrize("family", sorted(_PT_ROWS))
@pytest.mark.parametrize("ua,ub", [(1, 0), (3, 0), (0, 1), (0, 2)])
def test_ptor_dressed_rows_add_u_powers(family, ua, ub):
    # U is central, and with at most one factor carrying U its powers add as
    # monomials: dressing a factor dresses the product.
    table = skein_ptorus.PRODUCTS
    for a, b in _PT_ROWS[family]:
        da = shifted(a, PTorusLabel(None, (ua,)))
        db = shifted(b, PTorusLabel(None, (ub,)))
        assert (da.periph, db.periph) == ((a.periph[0] + ua,), (b.periph[0] + ub,))
        assert _family(table, a, b, "that") == family
        assert _family(table, da, db, "that") == family
        want = skein_ptorus.product(a, b).map_labels(
            lambda lab: PTorusLabel(lab.slope, (lab.periph[0] + ua + ub,))
        )
        assert skein_ptorus.product(da, db) == want


_S04_ROWS = {
    "gi^k * label and label * gi^k": (
        ("s", "that"),
        [(S04_EMPTY, slabel(2, 1)), (slabel(-1, 2), S04_EMPTY)],
    ),
    "(1,0) * (m,2)": (("s",), [(slabel(1, 0), slabel(m, 2)) for m in range(-3, 4)]),
    "(1,0) * (k,0)": (("s", "that"), [(slabel(1, 0), slabel(k, 0)) for k in (1, 2, 5)]),
    "(n,1) * (0,1) for n >= 0": (
        ("s",),
        [(slabel(n, 1), slabel(0, 1)) for n in range(5)],
    ),
    "(n,0) * (0,1)": (("that",), [(slabel(n, 0), slabel(0, 1)) for n in (2, 3, 4)]),
}


@pytest.mark.parametrize("family", sorted(_S04_ROWS))
@pytest.mark.parametrize("ga", _DRESSINGS)
def test_s04_dressed_rows_add_exponents(family, ga):
    # The s and that flavors read peripheral exponents as monomials, so
    # dressing either factor dresses the product.
    table = skein_s04.PRODUCTS
    flavors, pairs = _S04_ROWS[family]
    for gb in _DRESSINGS:
        for flavor in flavors:
            for a, b in pairs:
                da = shifted(a, S04Label(None, ga))
                db = shifted(b, S04Label(None, gb))
                assert (da.slope, db.slope) == (a.slope, b.slope)
                assert _family(table, a, b, flavor) == family
                assert _family(table, da, db, flavor) == family
                want = skein_s04.product(a, b, flavor).map_labels(
                    lambda lab: S04Label(
                        lab.slope, tuple(e + x + y for e, x, y in zip(lab.periph, ga, gb))
                    )
                )
                assert skein_s04.product(da, db, flavor) == want


def test_shifted_adds_every_label():
    lab = S04Label(curve(2, 1), (1, 0, 2, 0))
    got = shifted(lab, S04Label(None, (0, 1, 0, 0)), S04Label(curve(5, 3), (1, 1, 1, 1)))
    assert got == S04Label(curve(2, 1), (2, 2, 3, 1))
    assert shifted(lab) == lab
    assert shifted(tlabel(1, 2), tlabel(3, 1)) == tlabel(1, 2)
