"""Capping punctures: an oracle for the punctured product rules that does
not share their derivation.

Filling a puncture is an algebra map, so capping a product must give the
product of the capped factors.

* Punctured torus.  Filling the puncture lands in the closed torus, where
  ``skein_torus.mul`` multiplies by the product-to-sum formula.  U becomes
  the trivial curve -q^2-q^-2, so U^u read in T̂ becomes T̂_u(-q^2-q^-2);
  slopes stay as they are.
* Four-punctured sphere.  Capping puncture i lands in the commutative ring
  Z[q^±][g_j : j != i], where sympy multiplies.  g_i becomes -q^2-q^-2,
  and a slope d·c read in flavor P becomes P_d(g_k), where c separates
  {i, k} from the other two punctures.  The parity class of the primitive
  slope fixes the split: (1,0) separates {1,2}|{3,4}, (0,1) separates
  {1,4}|{2,3} and (1,1) separates {1,3}|{2,4}.

Neither map sees everything.  U + q^2 + q^-2 caps to 0, so a change inside
the G_n block of (n,1)*(0,1) on the punctured torus is invisible here; on
the sphere two slopes of one parity class cap alike.
"""

import pytest
import sympy

from skeinalg import skein_ptorus, skein_s04, skein_torus
from skeinalg.elements import SkeinElement, single
from skeinalg.laurent import ZERO, Laurent, q_power
from skeinalg.polyseq import THAT, Poly1, builtin_sequence
from skeinalg.skein_ptorus import PTorusLabel, plabel
from skeinalg.skein_s04 import slabel
from skeinalg.skein_torus import TorusLabel

LOOP = -(q_power(2) + q_power(-2))  # the value of a trivial curve


def _family(table, a, b, flavor):
    """The family of the row that routes a * b."""
    return next(r.family for r in table if flavor in r.flavors and r.shape(a, b))


# -- the punctured torus -------------------------------------------------------


def _at_loop(p: Poly1) -> Laurent:
    return sum((c * LOOP**k for k, c in enumerate(p.coeffs)), ZERO)


def _cap_ptorus(elem: SkeinElement) -> SkeinElement:
    terms = [(TorusLabel(l.slope), c * _at_loop(THAT.poly(l.periph[0]))) for l, c in elem.items()]
    return SkeinElement(skein_torus.SURFACE, "that", terms)


def _ptor(label: PTorusLabel) -> SkeinElement:
    return single(skein_ptorus.SURFACE, "that", label)


def _u(k: int) -> PTorusLabel:
    return PTorusLabel(None, (k,))


# Meets-once pairs of slopes; the left one may be a multiple.
_ONCE = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1)), ((2, 0), (1, 1)),
         ((-1, 2), (0, 1)), ((3, 3), (1, 2)), ((1, 3), (-1, -2))]

PTOR_PAIRS = {
    "(n,1) * (0,1) for n >= 0": [(plabel(n, 1), plabel(0, 1)) for n in range(41)],
    "(1,0) * (n,2)": [(plabel(1, 0), plabel(n, 2)) for n in range(-20, 21)],
    "(1,0) * (k,0)": [
        (plabel(1, 0, u=u), plabel(k, 0, u=v))
        for k in range(1, 20)
        for u, v in ((0, 0), (2, 0), (0, 1))
    ],
    "U^j * U^k": [(_u(j), _u(k)) for j in range(5) for k in range(5)],
    "U^k * (r,s) and (r,s) * U^k": [
        pair
        for k in (1, 3)
        for slope in ((1, 0), (3, 0), (-2, 5), (4, 2))
        for pair in ((_u(k), plabel(*slope)), (plabel(*slope, u=k), _u(0)))
    ],
    "(r,s) * (u,v) meeting once": [
        (plabel(*a, u=u), plabel(*b, u=v))
        for a, b in _ONCE
        for u, v in ((0, 0), (1, 0), (0, 2))
    ],
}


def test_ptor_pairs_reach_every_row():
    reached = {
        _family(skein_ptorus.PRODUCTS, a, b, "that")
        for pairs in PTOR_PAIRS.values()
        for a, b in pairs
    }
    assert reached == {row.family for row in skein_ptorus.PRODUCTS}


@pytest.mark.parametrize("family", sorted(PTOR_PAIRS))
def test_ptor_capping_is_multiplicative(family):
    for a, b in PTOR_PAIRS[family]:
        assert _family(skein_ptorus.PRODUCTS, a, b, "that") == family
        want = skein_torus.mul(_cap_ptorus(_ptor(a)), _cap_ptorus(_ptor(b)))
        assert _cap_ptorus(skein_ptorus.product(a, b)) == want, (a.text(), b.text())


# -- the four-punctured sphere -------------------------------------------------

q = sympy.Symbol("q")
G = sympy.symbols("g1:5")
# For each parity class of a primitive slope, the two pairs of punctures
# (0-based) that its curve separates.
SPLITS = {(1, 0): ((0, 1), (2, 3)), (0, 1): ((0, 3), (1, 2)), (1, 1): ((0, 2), (1, 3))}


def _sym(c: Laurent):
    return sum((k * q**e for e, k in c.items()), sympy.Integer(0))


def _partner(i: int, slope, splits) -> int:
    prim = slope.primitive()
    pair = next(p for p in splits[prim.r % 2, prim.s % 2] if i in p)
    return pair[1 - pair.index(i)]


def _cap_s04(elem: SkeinElement, i: int, splits=SPLITS):
    seq = builtin_sequence(elem.flavor)
    g = [_sym(LOOP) if j == i else G[j] for j in range(4)]
    total = sympy.Integer(0)
    for label, c in elem.items():
        term = _sym(c) * sympy.Mul(*(g[j] ** e for j, e in enumerate(label.periph)))
        if label.slope is not None:
            gk = g[_partner(i, label.slope, splits)]
            poly = seq.poly(label.slope.d)
            term *= sum((_sym(a) * gk**k for k, a in enumerate(poly.coeffs)), 0)
        total += term
    return total


_DRESSINGS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 0)]

# (family, flavors, pairs) for every row, with |m| <= 6.
S04_PAIRS = [
    ("gi^k * label and label * gi^k", ("s", "that"), [
        pair
        for g in ((1, 0, 0, 0), (0, 0, 2, 1))
        for slope in ((1, 0), (2, 1), (-3, 2), (2, 2))
        for pair in ((slabel(g=g), slabel(*slope)), (slabel(*slope, g=g), slabel(g=g)))
    ] + [(slabel(g=(1, 0, 0, 0)), slabel(g=(0, 1, 1, 0)))]),
    ("(1,0) * (m,2)", ("s",), [
        (slabel(1, 0), slabel(m, 2, g)) for m in range(-6, 7) for g in _DRESSINGS[:2]
    ]),
    ("(1,0) * (n,1)", ("s", "that"), [
        (slabel(1, 0, g), slabel(n, 1)) for n in range(-6, 7) for g in _DRESSINGS[::2]
    ]),
    ("(1,0) * (k,0)", ("s", "that"), [
        (slabel(1, 0), slabel(k, 0, g)) for k in range(1, 7) for g in _DRESSINGS[:2]
    ]),
    ("(n,1) * (0,1) for n >= 0", ("s",), [
        (slabel(n, 1), slabel(0, 1, g)) for n in range(7) for g in _DRESSINGS[:2]
    ]),
    ("(n,0) * (0,1)", ("that",), [
        (slabel(n, 0, g), slabel(0, 1)) for n in range(2, 7) for g in _DRESSINGS[:2]
    ]),
]


def test_s04_pairs_reach_every_row_in_every_flavor():
    reached = {
        (_family(skein_s04.PRODUCTS, a, b, flavor), flavor)
        for _, flavors, pairs in S04_PAIRS
        for flavor in flavors
        for a, b in pairs
    }
    assert reached == {(r.family, f) for r in skein_s04.PRODUCTS for f in r.flavors}


@pytest.mark.parametrize(
    "family,flavor",
    [(family, flavor) for family, flavors, _ in S04_PAIRS for flavor in flavors],
)
def test_s04_capping_is_multiplicative(family, flavor):
    pairs = next(p for f, _, p in S04_PAIRS if f == family)
    for a, b in pairs:
        assert _family(skein_s04.PRODUCTS, a, b, flavor) == family
        prod = skein_s04.product(a, b, flavor)
        ea, eb = (single(skein_s04.SURFACE, flavor, x) for x in (a, b))
        for i in range(4):
            diff = _cap_s04(prod, i) - _cap_s04(ea, i) * _cap_s04(eb, i)
            assert sympy.expand(diff) == 0, (a.text(), b.text(), i + 1)


def test_s04_capping_separates_the_parity_classes():
    # The splits are not arbitrary: giving (1,0) the split of (0,1) breaks
    # the capped product (1,0) * (0,1).
    a, b = slabel(1, 0), slabel(0, 1)
    prod = skein_s04.product(a, b, "s")
    ea, eb = (single(skein_s04.SURFACE, "s", x) for x in (a, b))
    wrong = {**SPLITS, (1, 0): SPLITS[0, 1]}
    diff = _cap_s04(prod, 0, wrong) - _cap_s04(ea, 0, wrong) * _cap_s04(eb, 0, wrong)
    assert sympy.expand(diff) != 0
