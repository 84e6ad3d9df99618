import pytest

from skeinalg.curves import curve
from skeinalg.elements import (
    NoProductRuleError,
    SkeinElement,
    dress,
    single,
    split_by_q_exponent,
)
from skeinalg.laurent import ONE, const, parse_laurent, q_power
from skeinalg.polyseq import CHEB_S, MONOMIAL, THAT, Poly1, PolySeq, expand_in
from skeinalg.skein_ptorus import (
    PT_EMPTY,
    PTorusLabel,
    SURFACE,
    convert,
    element_from_json,
    g_closed,
    g_recursive,
    mul_once,
    mul_t10_tn2,
    mul_tn1_t01,
    plabel,
    two_way_expansion,
    upper_bound_extract,
)


def _elem(*pairs, flavor="that"):
    return SkeinElement(SURFACE, flavor, list(pairs))


def test_mul_once_multiplicity_families():
    for d in (1, 2, 5):
        got = mul_once(plabel(d, 0), curve(0, 1))
        assert got == _elem(
            (plabel(d, 1), q_power(d)), (plabel(-d, 1), q_power(-d))
        )
    for n in (0, 3, -4):
        got = mul_once(plabel(1, 0), curve(n, 1))
        assert got == _elem(
            (plabel(n + 1, 1), q_power(1)), (plabel(n - 1, 1), q_power(-1))
        )


def test_mul_once_preconditions():
    with pytest.raises(NoProductRuleError):
        mul_once(plabel(1, 0), curve(1, 0))  # parallel curves
    with pytest.raises(NoProductRuleError):
        mul_once(plabel(4, 2), curve(0, 1))  # meets the primitive twice per copy
    with pytest.raises(ValueError):
        mul_once(plabel(1, 0), curve(0, 2))  # non-primitive right factor
    with pytest.raises(NoProductRuleError):
        mul_once(PTorusLabel(None, (2,)), curve(0, 1))  # no slope on the left


def test_mul_t10_tn2_examples():
    assert mul_t10_tn2(1) == _elem(
        (plabel(2, 2), q_power(2)),
        (plabel(0, 2), q_power(-2)),
        (PTorusLabel(None, (1,)), ONE),
        (PT_EMPTY, parse_laurent("q^2+q^-2")),
    )
    assert mul_t10_tn2(2) == _elem(
        (plabel(3, 2), q_power(2)), (plabel(1, 2), q_power(-2))
    )
    assert mul_t10_tn2(3) == _elem(
        (plabel(4, 2), q_power(2)),
        (plabel(2, 2), q_power(-2)),
        (PTorusLabel(None, (1,)), ONE),
        (PT_EMPTY, parse_laurent("q^2+q^-2")),
    )


def test_g_closed_examples():
    assert g_closed(0) == Poly1()
    assert g_closed(1) == Poly1()
    assert g_closed(2) == Poly1([1])
    assert g_closed(3) == Poly1([0, q_power(-1)])


def test_g_recursive_examples():
    assert g_recursive(0)[0] == Poly1()
    assert g_recursive(2)[2] == Poly1([1])
    assert g_recursive(4)[4] == g_closed(4)


def test_g_recursive_matches_closed_form():
    table = g_recursive(40)
    for n in range(41):
        assert table[n] == g_closed(n)


def test_g_closed_s_coefficients():
    # The closed form is a positive spread of type-two entries: expanding it
    # back over the type-two sequence recovers single q-powers.
    for n in range(2, 12):
        coeffs = expand_in(g_closed(n), CHEB_S)
        for k, c in enumerate(coeffs):
            if (n - k) % 2 or k > n - 2:
                assert c.is_zero
            else:
                i = (n - k) // 2
                assert c == q_power(4 * i - n - 2)


def test_mul_tn1_t01_examples():
    assert mul_tn1_t01(0) == _elem((plabel(0, 2), ONE), (PT_EMPTY, const(2)))
    assert mul_tn1_t01(1) == _elem(
        (plabel(1, 2), q_power(1)), (plabel(1, 0), q_power(-1))
    )
    assert mul_tn1_t01(2) == _elem(
        (plabel(2, 2), q_power(2)),
        (plabel(2, 0), q_power(-2)),
        (PTorusLabel(None, (1,)), ONE),
        (PT_EMPTY, parse_laurent("q^2+q^-2")),
    )


def test_two_way_expansion_consistency():
    for n, (w1, w2) in zip(range(1, 21), two_way_expansion(20), strict=True):
        assert w1 == w2, f"mismatch at n={n}"


def test_u_centrality():
    # A peripheral factor on the input rides through the supported products.
    for n in (0, 2, 5):
        base = mul_once(plabel(n + 1, 1, u=0), curve(1, 0))
        dressed = mul_once(plabel(n + 1, 1, u=3), curve(1, 0))
        assert dressed == dress(base, PTorusLabel(None, (3,)))


def test_q_split_recombines():
    for n in (2, 5, 9):
        elem = convert(mul_tn1_t01(n), CHEB_S, THAT)
        buckets = split_by_q_exponent(elem)
        for part in buckets.values():
            for _, c in part.items():
                assert c.q_degree_range() in (None, (0, 0))
        rebuilt = SkeinElement(
            SURFACE,
            "s",
            [(lab, c * q_power(e)) for e, part in buckets.items() for lab, c in part.items()],
        )
        assert rebuilt == elem


def test_convert_round_trip():
    e = mul_tn1_t01(4)
    there = convert(e, CHEB_S, THAT)
    assert convert(there, THAT, CHEB_S) == e


def test_convert_reads_u_powers_in_the_flavor():
    # T̂_2 = S_2 - S_0 and T̂_3 = S_3 - S_1, on U as on a slope.
    for u, lower in ((2, 0), (3, 1)):
        e = _elem((plabel(1, 0, u=u), ONE))
        there = convert(e, CHEB_S, THAT)
        assert there == _elem(
            (plabel(1, 0, u=u), ONE), (plabel(1, 0, u=lower), const(-1)), flavor="s"
        )
        assert convert(there, THAT, CHEB_S) == e
    # Both exponents at once: T̂_2(a) T̂_2(U) = (S_2(a) - 1)(S_2(U) - 1).
    both = convert(_elem((plabel(2, 0, u=2), ONE)), CHEB_S, THAT)
    assert both == _elem(
        (plabel(2, 0, u=2), ONE),
        (plabel(2, 0), const(-1)),
        (PTorusLabel(None, (2,)), const(-1)),
        (PT_EMPTY, ONE),
        flavor="s",
    )

def test_upper_bound_extract_type_two():
    for n in range(1, 13):
        low, elem = upper_bound_extract(CHEB_S, n)
        assert low == -n
        assert elem == single(SURFACE, "s", plabel(n, 0))


def test_upper_bound_extract_monomial_witness():
    low, elem = upper_bound_extract(MONOMIAL, 2)
    assert low == -2
    assert elem == SkeinElement(
        SURFACE, "monomial", [(plabel(2, 0), ONE), (PT_EMPTY, const(-1))]
    )
    assert any(not c.is_positive() for _, c in elem.items())


def test_upper_bound_extract_n0():
    low, elem = upper_bound_extract(CHEB_S, 0)
    assert low == 0
    assert elem == SkeinElement(
        SURFACE, "s", [(plabel(0, 2), ONE), (PT_EMPTY, ONE)]
    )


def test_upper_bound_extract_requires_linear_x():
    shifted = PolySeq.from_polys(
        "shifted", [Poly1([1]), Poly1([1, 1])]
    )
    with pytest.raises(ValueError):
        upper_bound_extract(shifted, 1)


def test_upper_bound_extract_requires_integer_coeffs():
    qseq = PolySeq.from_polys(
        "qseq", [Poly1([1]), Poly1([0, 1]), Poly1([q_power(1), 0, 1])]
    )
    with pytest.raises(ValueError):
        upper_bound_extract(qseq, 2)


def test_element_json_round_trip():
    e = mul_tn1_t01(3)
    assert element_from_json(e.to_json_obj()) == e
