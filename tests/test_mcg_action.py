"""``elements.apply_mcg``: one mapping-class action for the three surfaces.

It is an action: moving by (m1, p1) and then by (m2, p2) is one move by
``m2.compose(m1)`` and the composed permutation.  On the punctured torus
SL(2,Z) fixes U, and the proved products are equivariant under it.
"""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from skeinalg import skein_ptorus
from skeinalg.curves import IDENTITY, MappingClass, curve, sigma
from skeinalg.elements import SkeinElement, apply_mcg, single
from skeinalg.skein_ptorus import PTorusLabel
from skeinalg.skein_s04 import S04Label
from skeinalg.skein_torus import TorusLabel

ROT = MappingClass(0, -1, 1, 0)
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


def _perms(surface):
    return st.none() | st.permutations(range(SURFACES[surface][1])).map(tuple)


def _then(p1, p2):
    """The permutation of moving by p1 and then by p2 (None is the identity)."""
    if p1 is None or p2 is None:
        return p2 if p1 is None else p1
    return tuple(p1[j] for j in p2)


@pytest.mark.parametrize("surface", sorted(SURFACES))
@check
@given(data=st.data())
def test_apply_mcg_is_an_action(surface, data):
    elem = data.draw(_elements(surface))
    m1, m2 = data.draw(mapping_classes), data.draw(mapping_classes)
    p1, p2 = data.draw(_perms(surface)), data.draw(_perms(surface))
    twice = apply_mcg(apply_mcg(elem, m1, p1), m2, p2)
    assert twice == apply_mcg(elem, m2.compose(m1), _then(p1, p2))
    assert apply_mcg(elem, IDENTITY) == elem


def test_half_twist_swaps_the_first_two_exponents():
    label = S04Label(curve(2, 1), (1, 2, 3, 0))
    moved = apply_mcg(single("s04", "s", label), sigma(), (1, 0, 2, 3))
    assert moved == single("s04", "s", S04Label(curve(3, 1), (2, 1, 3, 0)))


def _move(label: PTorusLabel, m: MappingClass) -> PTorusLabel:
    (moved,) = apply_mcg(single(skein_ptorus.SURFACE, "that", label), m).labels()
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
