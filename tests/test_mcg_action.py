"""``elements.apply_mcg``: one mapping-class action for the three surfaces.

It is an action: moving by m1 and then by m2 is one move by
``m2.compose(m1)``.  On the sphere a matrix permutes g1..g3 as it permutes
their parity classes mod 2 and fixes g4; on the punctured torus SL(2,Z)
fixes U.  The proved products of both punctured surfaces are equivariant.
"""

from functools import reduce
from itertools import product as label_pairs

import pytest
from hypothesis import given, settings, strategies as st

from skeinalg import skein_ptorus, skein_s04
from skeinalg.curves import IDENTITY, MappingClass, curve, sigma
from skeinalg.elements import NoProductRuleError, SkeinElement, apply_mcg, single
from skeinalg.skein_ptorus import PTorusLabel
from skeinalg.skein_s04 import S04Label
from skeinalg.skein_torus import TorusLabel

ROT = MappingClass(0, -1, 1, 0)
TAU = MappingClass(1, 0, 1, 1)
GENERATORS = [sigma(), sigma().inverse(), ROT, ROT.inverse()]

check = settings(max_examples=60, deadline=None)

mapping_classes = st.lists(st.sampled_from(GENERATORS), max_size=8).map(
    lambda word: reduce(MappingClass.compose, word, IDENTITY)
)
slopes = st.none() | st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    any
).map(lambda rs: curve(*rs))

# surface -> (label kind, number of peripheral exponents)
SURFACES = {"t10": (TorusLabel, 0), "t11": (PTorusLabel, 1), "s04": (S04Label, 4)}


def _elements(surface):
    kind, n = SURFACES[surface]
    periphs = st.tuples(*[st.integers(0, 3)] * n)
    labels = st.builds(kind.of, slopes, periphs)
    terms = st.lists(st.tuples(labels, st.integers(-3, 3)), max_size=5)
    return terms.map(lambda ts: SkeinElement(surface, "that", ts))


@pytest.mark.parametrize("surface", sorted(SURFACES))
@check
@given(data=st.data())
def test_apply_mcg_is_an_action(surface, data):
    elem = data.draw(_elements(surface))
    m1, m2 = data.draw(mapping_classes), data.draw(mapping_classes)
    twice = apply_mcg(apply_mcg(elem, m1), m2)
    assert twice == apply_mcg(elem, m2.compose(m1))
    assert apply_mcg(elem, IDENTITY) == elem


def test_half_twist_swaps_the_first_two_exponents():
    label = S04Label(curve(2, 1), (1, 2, 3, 0))
    moved = apply_mcg(single("s04", "s", label), sigma())
    assert moved == single("s04", "s", S04Label(curve(3, 1), (2, 1, 3, 0)))


# A matrix, and where it moves g1*g2^2*g3^3*g4^4 on the slope (2,1).
PUNCTURE_PINS = {
    "tau swaps g2 and g3": (TAU, S04Label(curve(2, 3), (1, 3, 2, 4))),
    "the rotation swaps g1 and g3": (ROT, S04Label(curve(-1, 2), (3, 2, 1, 4))),
    "sigma^2 fixes them": (sigma().power(2), S04Label(curve(4, 1), (1, 2, 3, 4))),
    "-I fixes them": (ROT.power(2), S04Label(curve(2, 1), (1, 2, 3, 4))),
}


@pytest.mark.parametrize("case", sorted(PUNCTURE_PINS))
def test_a_matrix_permutes_the_punctures_by_parity(case):
    m, moved = PUNCTURE_PINS[case]
    label = S04Label(curve(2, 1), (1, 2, 3, 4))
    assert apply_mcg(single("s04", "s", label), m) == single("s04", "s", moved)


def _move(label, m: MappingClass, surface: str = skein_ptorus.SURFACE):
    (moved,) = apply_mcg(single(surface, "that", label), m).labels()
    return moved


# A meets-once pair: d copies of M(1,0) and ±M(0,1), with U on at most one.
meets_once = st.tuples(
    mapping_classes, st.integers(1, 3), st.sampled_from([1, -1]), st.integers(0, 2),
    st.booleans(),
).map(
    lambda t: (
        PTorusLabel(t[0].apply(curve(t[1], 0)), (t[3] if t[4] else 0,)),
        PTorusLabel(t[0].apply(curve(0, t[2])), (0 if t[4] else t[3],)),
    )
)


@check
@given(mapping_classes, meets_once)
def test_ptorus_products_are_equivariant(m, pair):
    a, b = pair
    moved = skein_ptorus.product(_move(a, m), _move(b, m))
    assert moved == apply_mcg(skein_ptorus.product(a, b), m)


@given(mapping_classes, st.integers(0, 5))
def test_ptorus_action_fixes_u(m, k):
    assert _move(PTorusLabel(None, (k,)), m) == PTorusLabel(None, (k,))


# Every word of length 1 or 2 in sigma, tau, their inverses and the rotation,
# but the identity: 20 matrices.
_STEPS = [sigma(), sigma().inverse(), TAU, TAU.inverse(), ROT]
WORDS = sorted(
    ({x.compose(y) for x in _STEPS for y in _STEPS} | set(_STEPS)) - {IDENTITY},
    key=lambda m: (m.a, m.b, m.c, m.d),
)
_SPHERE_LABELS = [
    S04Label(curve(r, s), g)
    for r in range(-3, 4)
    for s in range(3)
    if s > 0 or r > 0
    for g in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0))
]


def _routed(a, b, flavor):
    try:
        return skein_s04.product(a, b, flavor)
    except NoProductRuleError:
        return None


@pytest.mark.parametrize("flavor", ["s", "that"])
def test_sphere_products_are_equivariant(flavor):
    compared, failures = 0, []
    for a, b in label_pairs(_SPHERE_LABELS, repeat=2):
        ab = _routed(a, b, flavor)
        if ab is None:
            continue
        for m in WORDS:
            moved = _routed(_move(a, m, "s04"), _move(b, m, "s04"), flavor)
            if moved is not None:
                compared += 1
                if moved != apply_mcg(ab, m):
                    failures.append((a.text(), b.text(), m))
    # 990 comparisons in s and 468 in that.
    assert len(WORDS) == 20 and compared > 400
    assert not failures, f"{len(failures)} of {compared}: {failures[:3]}"
