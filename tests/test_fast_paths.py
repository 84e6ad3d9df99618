"""Every fast path of the ring kernel and of change of basis against the
reference it replaced: the Poly1-based elimination, expansion without the
shared-entry shortcut, x P_d by the three-term rule instead of elimination,
the punctured-torus (n,1) * (0,1) that eliminated G_n once per peripheral term,
results built through the public constructors, the element sums that each
merged terms on their own before ``combine``, the element builder that hashed
each label three times, the slope hash computed on every call, the torus
product over sorted terms, the copying product by 1 and the three label
classes that each wrote their own order, text and JSON."""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from skeinalg import skein_ptorus, skein_s04
from skeinalg.curves import CurveClass, curve, parse_power, parse_slope
from skeinalg.elements import (
    SkeinElement,
    combine,
    convert,
    instantiate,
    label_from_json,
    label_from_text,
    q_pair,
)
from skeinalg.laurent import ONE, ZERO, Laurent, q_power
from skeinalg.polyseq import (
    CHEB_S,
    MONOMIAL,
    THAT,
    Poly1,
    X,
    _x_times,
    expand_in,
    expansion_coeffs,
    parse_sequence_table,
)
from skeinalg.positivity import perturbed_that
from skeinalg.skein_ptorus import PTorusLabel
from skeinalg.skein_s04 import S04Label
from skeinalg.skein_torus import EMPTY, TorusLabel, fg_mul, mul
from test_oracles import _GRAMMAR

check = settings(max_examples=80, deadline=None)


def reference_expand_in(p: Poly1, basis) -> list[Laurent]:
    """Descending elimination with whole-polynomial Poly1 arithmetic."""
    if p.is_zero:
        return []
    out = [ZERO] * (p.degree + 1)
    work = p
    for k in range(p.degree, -1, -1):
        c = work.coeff(k)
        if not c.is_zero:
            out[k] = c
            work = work - basis.poly(k).scaled(c)
    if not work.is_zero:
        raise AssertionError("descending elimination failed to terminate")
    return out


small_laurents = st.dictionaries(
    st.integers(-4, 4), st.integers(-6, 6), max_size=3
).map(Laurent)
monomials = st.tuples(st.integers(-6, 6), st.integers(-9, 9).filter(bool)).map(
    lambda ec: Laurent({ec[0]: ec[1]})
)
laurents = st.one_of(small_laurents, monomials)


def polys(max_degree: int):
    return st.lists(laurents, max_size=max_degree + 1).map(Poly1)


perturbations = st.integers(2, 6).flatmap(
    lambda level: st.lists(st.integers(-3, 3), min_size=level, max_size=level)
).map(lambda deltas: perturbed_that(len(deltas), tuple(deltas)))


def _compact(c: Laurent) -> str:
    return "".join(str(c).split())


@st.composite
def file_sequences(draw):
    """A sequence table read from text, with q-dependent lower coefficients."""
    top = draw(st.integers(1, 5))
    lines = [
        f"{n}: " + " ".join([_compact(draw(small_laurents)) for _ in range(n)] + ["1"])
        for n in range(top + 1)
    ]
    return parse_sequence_table("\n".join(lines), "file:hypothesis")


@check
@given(polys(7), st.sampled_from([THAT, CHEB_S, MONOMIAL]))
def test_expand_in_matches_reference_over_builtins(p, basis):
    assert expand_in(p, basis) == reference_expand_in(p, basis)


@check
@given(perturbations, st.data())
def test_expand_in_matches_reference_over_perturbations(P, data):
    p = data.draw(polys(P.max_n))
    assert expand_in(p, P) == reference_expand_in(p, P)
    for n in range(P.max_n + 1):
        assert expand_in(THAT.poly(n), P) == reference_expand_in(THAT.poly(n), P)
        assert expand_in(P.poly(n), THAT) == reference_expand_in(P.poly(n), THAT)


@check
@given(file_sequences(), st.data())
def test_expand_in_matches_reference_over_file_sequences(P, data):
    p = data.draw(polys(P.max_n))
    assert expand_in(p, P) == reference_expand_in(p, P)
    for n in range(P.max_n + 1):
        assert expand_in(P.poly(n), CHEB_S) == reference_expand_in(P.poly(n), CHEB_S)


def test_expand_in_checks_termination():
    class Sloppy:
        # Not a PolySeq, so nothing checked its degree-1 entry, 2x.
        name = "sloppy"

        def poly(self, n):
            return Poly1([1]) if n == 0 else Poly1([0, 2])

    with pytest.raises(AssertionError, match="failed to terminate"):
        expand_in(Poly1([0, 1]), Sloppy())


@check
@given(st.one_of(perturbations, file_sequences()))
def test_shared_entry_shortcut_equals_expansion(P):
    shared = 0
    for n in range(P.max_n + 1):
        for src, dst in ((P, THAT), (THAT, P)):
            want = tuple(reference_expand_in(src.poly(n), dst))
            if src.poly(n) == dst.poly(n):
                shared += 1
                assert want == tuple([ZERO] * n + [ONE])
            assert expansion_coeffs(src, dst, n) == want
        assert expansion_coeffs(P, P, n) == tuple(reference_expand_in(P.poly(n), P))
    if P.name.startswith("that-pert"):
        assert shared >= 2 * P.max_n  # every entry below the perturbed one


# -- x P_d by the three-term rule ----------------------------------------------


@pytest.mark.parametrize("P", [THAT, CHEB_S, MONOMIAL], ids=lambda P: P.name)
def test_x_times_matches_elimination_over_builtins(P):
    for d in range(61):
        assert _x_times(P, d) == expand_in(X * P.poly(d), P)


@check
@given(st.one_of(perturbations, file_sequences()))
def test_x_times_falls_back_to_elimination(P):
    for d in range(P.max_n):
        assert _x_times(P, d) == expand_in(X * P.poly(d), P)


def test_power_of_10_row_builds_no_sequence_entry():
    # The (1,0) * (k,0) row of both punctured surfaces reads the rule, so a
    # product at k = 10,000 costs no entry of either builtin sequence.  The
    # check at k = 300 fails first, and cheaply, on a row that builds them.
    for k in (300, 10_000):
        built = len(THAT._polys), len(CHEB_S._polys)
        a, b = curve(1, 0), curve(k, 0)
        got = [skein_ptorus.product(PTorusLabel(a), PTorusLabel(b))]
        for flavor in ("s", "that"):
            got.append(skein_s04.product(S04Label(a), S04Label(b), flavor))
        assert [elem.text() for elem in got] == [f"({k - 1},0) + ({k + 1},0)"] * 3
        assert (len(THAT._polys), len(CHEB_S._polys)) == built


# -- (n,1) * (0,1) reading G_n onto (1,0) once --------------------------------


def reference_mul_tn1_t01(n: int) -> SkeinElement:
    """(n,1) * (0,1) with G_n eliminated over T^ once per peripheral term,
    each read onto (1,0) with a template label carrying its U-power, and the
    n = 0 seed by eliminating x^2."""

    def on_curve(p, prim, like=skein_ptorus.PT_EMPTY):
        return instantiate("t11", expand_in(p, THAT), prim, THAT, like)

    if n == 0:
        return on_curve(X * X, curve(0, 1))
    slopes = q_pair("t11", "that", PTorusLabel(curve(n, 2)), PTorusLabel(curve(n, 0)), n)
    g, a = skein_ptorus.g_closed(n), curve(1, 0)
    u_term = on_curve(g, a, PTorusLabel(None, (1,)))
    return combine(
        "t11", "that", [(slopes, 1), (u_term, 1), (on_curve(g, a), q_power(2) + q_power(-2))]
    )


def test_mul_tn1_t01_reads_g_once(monkeypatch):
    calls = []

    def counted(p, basis):
        calls.append(p)
        return expand_in(p, basis)

    monkeypatch.setattr(skein_ptorus, "expand_in", counted)
    for n in range(41):
        calls.clear()
        assert skein_ptorus.mul_tn1_t01(n) == reference_mul_tn1_t01(n)
        assert len(calls) == (1 if n else 0)


# -- canonical values from the private constructors ----------------------------


def _canonical(value: Laurent) -> bool:
    terms = value._terms
    return all(type(e) is int and type(c) is int and c for e, c in terms.items())


def _naive(pairs) -> Laurent:
    """The public constructor over an unreduced list of (exponent, coeff)."""
    terms: dict[int, int] = {}
    for e, c in pairs:
        terms[e] = terms.get(e, 0) + c
    return Laurent(terms)


def _assert_same(got: Laurent, want: Laurent):
    assert _canonical(got)
    assert got._terms == want._terms
    assert got == want and hash(got) == hash(want)


@check
@given(laurents, laurents)
def test_laurent_operators_are_canonical(a, b):
    A, B = list(a._terms.items()), list(b._terms.items())
    neg_b = [(e, -c) for e, c in B]
    _assert_same(a + b, _naive(A + B))
    _assert_same(a - b, _naive(A + neg_b))
    _assert_same(-a, _naive([(e, -c) for e, c in A]))
    _assert_same(a * b, _naive([(e1 + e2, c1 * c2) for e1, c1 in A for e2, c2 in B]))
    _assert_same(b * a, a * b)
    _assert_same(a.invert_q(), _naive([(-e, c) for e, c in A]))
    _assert_same(a ** 2, a * a)


@check
@given(laurents, st.integers(-5, 5))
def test_laurent_int_operands_are_canonical(a, n):
    A = list(a._terms.items())
    _assert_same(a + n, _naive(A + [(0, n)]))
    _assert_same(n + a, a + n)
    _assert_same(a - n, _naive(A + [(0, -n)]))
    _assert_same(n - a, _naive([(e, -c) for e, c in A] + [(0, n)]))
    _assert_same(a * n, _naive([(e, c * n) for e, c in A]))
    _assert_same(n * a, a * n)
    _assert_same(Laurent.coerce(n), Laurent({0: n}))


@check
@given(monomials, small_laurents)
def test_monomial_products_both_ways(m, p):
    ((e, c),) = m._terms.items()
    want = Laurent({e + f: c * d for f, d in p._terms.items()})
    _assert_same(m * p, want)
    _assert_same(p * m, want)


@check
@given(laurents, monomials)
def test_sums_that_cancel(a, m):
    for zero in (a + (-a), a - a, -a + a, (a + m) - m - a):
        _assert_same(zero, Laurent())
        assert zero.is_zero
    _assert_same((a + m) - a, m)
    _assert_same(m - (a + m), -a)


# -- Poly1 results keep their trailing zeros stripped ---------------------------


def _stripped(p: Poly1) -> bool:
    cs = p.coeffs
    return all(isinstance(c, Laurent) for c in cs) and (not cs or not cs[-1].is_zero)


@check
@given(polys(4), polys(4), laurents)
def test_poly1_results_are_stripped(a, b, c):
    for got in (a + b, a - b, -a, a * b, a.scaled(c), a - a, a + (-a)):
        assert _stripped(got)
        assert got == Poly1(list(got.coeffs))
    assert (a - a).coeffs == ()
    assert (a + b) - b == a
    assert a.scaled(c) == Poly1([c * x for x in a.coeffs])


def test_poly1_cancelling_top_terms():
    a = Poly1([1, 2, Laurent({3: 1})])
    b = Poly1([0, 2, Laurent({3: 1})])
    assert (a - b).coeffs == (ONE,)
    assert (a + (-b)).coeffs == (ONE,)
    assert (a - a).is_zero and (a - a).degree == -1


# -- element sums against the merges they replaced -----------------------------


def reference_add(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """``x + y`` as ``SkeinElement.__add__`` merged it before ``combine``."""
    terms = dict(x._terms)
    for label, c in y._terms.items():
        acc = terms.get(label)
        terms[label] = c if acc is None else acc + c
    return SkeinElement(x.surface, x.flavor, terms)


def reference_neg(x: SkeinElement) -> SkeinElement:
    return SkeinElement(x.surface, x.flavor, {l: -c for l, c in x._terms.items()})


def reference_scaled(x: SkeinElement, c) -> SkeinElement:
    c = Laurent.coerce(c)
    return SkeinElement(x.surface, x.flavor, {l: c * v for l, v in x._terms.items()})


_SLOPES = [None, curve(1, 0), curve(0, 1), curve(2, 1), curve(-1, 1), curve(3, 0)]
# A few labels per surface, so that random sums share and cancel labels.
LABELS = {
    "t10": [TorusLabel(slope) for slope in _SLOPES],
    "t11": [PTorusLabel(slope, (u,)) for slope in _SLOPES for u in (0, 2)],
    "s04": [S04Label(slope, g) for slope in _SLOPES for g in ((0, 0, 0, 0), (1, 0, 2, 0))],
}


@st.composite
def element_pairs(draw):
    """Two elements of one surface and flavor."""
    surface = draw(st.sampled_from(sorted(LABELS)))
    flavor = draw(st.sampled_from(["that", "s", "monomial"]))
    terms = st.lists(st.tuples(st.sampled_from(LABELS[surface]), laurents), max_size=6)
    return tuple(SkeinElement(surface, flavor, draw(terms)) for _ in range(2))


scalars = st.one_of(st.integers(-3, 3), laurents)


@check
@given(element_pairs(), scalars, st.integers(-3, 3))
def test_element_sums_match_their_references(pair, c, n):
    x, y = pair
    assert x + y == reference_add(x, y)
    assert x - y == reference_add(x, reference_neg(y))
    assert -x == reference_neg(x)
    assert x.scaled(c) == reference_scaled(x, c)
    assert n * x == reference_scaled(x, n)
    for got in (x + y, x - y, -x, x.scaled(c), x - x):
        assert all(not v.is_zero for v in got._terms.values())
    assert (x - x).is_zero


@check
@given(element_pairs())
def test_a_part_taken_once_shares_its_coefficients(pair):
    x, y = pair
    total = x + y
    for a, b in ((x, y), (y, x)):
        for label, c in a._terms.items():
            if label not in b._terms:
                assert total._terms[label] is c
    kept = x.scaled(1)
    assert kept == x and all(kept._terms[l] is c for l, c in x._terms.items())


@check
@given(file_sequences())
def test_convert_to_its_own_sequence_returns_its_input(P):
    terms = [(TorusLabel(curve(2, 1)), ONE), (TorusLabel(None), Laurent({-1: 3}))]
    pterms = [(PTorusLabel(curve(3, 0), (2,)), ONE), (PTorusLabel(None, (1,)), Laurent({2: -1}))]
    for seq in (THAT, CHEB_S, MONOMIAL, P):
        for surface, pairs in (("t10", terms), ("t11", pterms)):
            elem = SkeinElement(surface, seq.name, pairs)
            assert convert(elem, seq, seq) is elem
    sphere = SkeinElement("s04", MONOMIAL.name, [(S04Label(curve(1, 0), (1, 0, 0, 2)), ONE)])
    assert convert(sphere, MONOMIAL, MONOMIAL) is sphere


# -- element building, label hashing and the torus product ------------------------


def reference_build(surface: str, flavor: str, terms) -> SkeinElement:
    """``SkeinElement(surface, flavor, terms)`` as ``__init__`` built it when
    it looked up, stored and filtered every label."""
    data: dict = {}
    for label, c in terms:
        c = Laurent.coerce(c)
        if c.is_zero:
            continue
        acc = data.get(label)
        data[label] = c if acc is None else acc + c
    elem = object.__new__(SkeinElement)
    elem.surface, elem.flavor = surface, flavor
    elem._terms = {l: c for l, c in data.items() if not c.is_zero}
    return elem


@st.composite
def term_lists(draw):
    """(label, coefficient) pairs of one surface, int or Laurent, with
    repeated labels, terms repeated with the same coefficient object, and
    some terms negated so that their labels cancel."""
    surface = draw(st.sampled_from(sorted(LABELS)))
    terms = draw(
        st.lists(st.tuples(st.sampled_from(LABELS[surface]), scalars), max_size=8)
    )
    if not terms:
        return surface, terms
    repeated = draw(st.lists(st.sampled_from(terms), max_size=3))
    negated = draw(st.lists(st.sampled_from(terms), max_size=4))
    return surface, terms + repeated + [(label, -c) for label, c in negated]


@check
@given(term_lists())
def test_element_build_matches_reference(case):
    surface, terms = case
    got = SkeinElement(surface, "that", terms)
    want = reference_build(surface, "that", terms)
    assert list(got._terms.items()) == list(want._terms.items())
    assert got == want
    assert all(type(c) is Laurent and not c.is_zero for c in got._terms.values())


class CountingLabel:
    """A label that counts the calls of its ``__hash__``."""

    hashes = 0

    def __init__(self, key: int):
        self.key = key

    def __hash__(self) -> int:
        CountingLabel.hashes += 1
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountingLabel) and self.key == other.key


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_building_hashes_each_new_label_once(n):
    terms = [(CountingLabel(i), Laurent({i: 1})) for i in range(n)]
    CountingLabel.hashes = 0
    elem = SkeinElement("t10", "that", terms)
    assert CountingLabel.hashes == n
    assert len(elem) == n


def _canonical_pair(r: int, s: int) -> tuple[int, int]:
    return (r, s) if s > 0 or (s == 0 and r > 0) else (-r, -s)


@check
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(any))
def test_curve_hash_is_the_hash_of_its_canonical_pair(rs):
    r, s = rs
    c = curve(r, s)
    assert hash(c) == hash(curve(-r, -s)) == hash(_canonical_pair(r, s))
    assert (c.r, c.s) == _canonical_pair(r, s)
    assert hash(TorusLabel(c)) == hash((c, ()))
    for field, value in (("r", 1), ("s", 1), ("_hash", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, field, value)
    assert hash(c) == hash(_canonical_pair(r, s))
    assert repr(c) == f"CurveClass(r={c.r}, s={c.s})"
    assert c == CurveClass(-r, -s)


def reference_mul(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """``skein_torus.mul`` summing the label products in sorted order."""
    return combine(
        "t10",
        "that",
        ((fg_mul(la, lb), ca * cb) for la, ca in x.items() for lb, cb in y.items()),
    )


# Parallel and opposite slopes, so that products reach the empty label.
TORUS_LABELS = [EMPTY] + [
    TorusLabel(curve(r, s)) for r, s in ((1, 0), (2, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (1, 2))
]
torus_elements = st.lists(
    st.tuples(st.sampled_from(TORUS_LABELS), scalars), max_size=5
).map(lambda terms: SkeinElement("t10", "that", terms))


@check
@given(torus_elements, torus_elements)
def test_torus_mul_matches_sorted_reference(x, y):
    got = mul(x, y)
    assert got == reference_mul(x, y)
    assert list(got.items()) == list(reference_mul(x, y).items())


@check
@given(laurents, element_pairs())
def test_product_by_one_returns_the_other_factor(c, pair):
    before = dict(c._terms)
    for got in (c * ONE, ONE * c, c * 1, 1 * c):
        assert got == c
        # When c is 1 too, either factor is the product.
        assert got is c or c == 1
    assert c._terms == before and ONE._terms == {0: 1}
    x, _ = pair
    terms = dict(x._terms)
    assert x.scaled(ONE) == x and ONE * x == x
    assert x._terms == terms and all(x._terms[l] is v for l, v in terms.items())


# -- labels: one definition against the three classes it replaced -------------


def _slope_json(label):
    return None if label.slope is None else label.slope.text()


def reference_torus_sort_key(label):
    if label.slope is None:
        return (0, 0, 0)
    return (1, label.slope.s, label.slope.r)


def reference_torus_text(label) -> str:
    return "1" if label.slope is None else label.slope.text()


def reference_torus_json_obj(label):
    return reference_torus_text(label)


def reference_ptorus_sort_key(label):
    (u,) = label.periph
    if label.slope is None:
        return (0, 0, 0, u)
    return (1, label.slope.s, label.slope.r, u)


def reference_ptorus_text(label) -> str:
    (u,) = label.periph
    parts = []
    if label.slope is not None:
        parts.append(label.slope.text())
    if u == 1:
        parts.append("U")
    elif u > 1:
        parts.append(f"U^{u}")
    return "*".join(parts) if parts else "1"


def reference_ptorus_json_obj(label):
    return {"slope": _slope_json(label), "u": label.periph[0]}


def reference_s04_sort_key(label):
    if label.slope is None:
        return (0, 0, 0, label.periph)
    return (1, label.slope.s, label.slope.r, label.periph)


def reference_s04_text(label) -> str:
    parts = []
    if label.slope is not None:
        parts.append(label.slope.text())
    for i, e in enumerate(label.periph, start=1):
        if e == 1:
            parts.append(f"g{i}")
        elif e > 1:
            parts.append(f"g{i}^{e}")
    return "*".join(parts) if parts else "1"


def reference_s04_json_obj(label):
    return {"slope": _slope_json(label), "g": list(label.periph)}


# kind: (number of peripheral exponents, reference sort_key, text, json_obj)
REFERENCE_LABELS = {
    TorusLabel: (
        0, reference_torus_sort_key, reference_torus_text, reference_torus_json_obj
    ),
    PTorusLabel: (
        1, reference_ptorus_sort_key, reference_ptorus_text, reference_ptorus_json_obj
    ),
    S04Label: (4, reference_s04_sort_key, reference_s04_text, reference_s04_json_obj),
}

label_slopes = st.none() | st.tuples(st.integers(-7, 7), st.integers(-7, 7)).filter(
    any
).map(lambda rs: curve(*rs))


@st.composite
def label_lists(draw):
    """A surface's label class and a list of its labels, with repeats."""
    kind = draw(st.sampled_from(list(REFERENCE_LABELS)))
    n = REFERENCE_LABELS[kind][0]
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    labels = st.lists(st.builds(kind, label_slopes, exponents), min_size=1, max_size=12)
    return kind, draw(labels)


@settings(max_examples=200, deadline=None)
@given(label_lists())
def test_labels_match_the_classes_they_replaced(case):
    kind, labels = case
    _, sort_key, text, json_obj = REFERENCE_LABELS[kind]
    assert sorted(labels, key=kind.sort_key) == sorted(labels, key=sort_key)
    for label in labels:
        assert label.text() == text(label)
        assert json.dumps(label.json_obj()) == json.dumps(json_obj(label))
        assert label_from_json(kind, json.loads(json.dumps(label.json_obj()))) == label
        assert kind(label.slope, label.periph) == label


# -- operand text: one reader against the three surface parsers it replaced ----


def reference_torus_label_from_text(text: str):
    t = text.strip()
    return TorusLabel(None if t == "1" else parse_slope(t))


def reference_ptorus_label_from_text(text: str):
    u = parse_power(text, "U")
    if u is not None:
        return PTorusLabel(None, (u,))
    t = text.strip()
    if not t.startswith("T"):
        raise ValueError(f"expected T(r,s), U or U^k, got {text!r}")
    return PTorusLabel(parse_slope(t[1:]))


def reference_s04_operand_from_text(text: str):
    t = text.strip()
    if t[:1] == "g" and t[1:2] in ("1", "2", "3", "4"):
        k = parse_power(t, t[:2])
        if k is not None:
            g = [0, 0, 0, 0]
            g[int(t[1]) - 1] = k
            return None, S04Label(None, tuple(g))
    if t[:1] in {"S": "s", "T": "that"}:
        return {"S": "s", "T": "that"}[t[0]], S04Label(parse_slope(t[1:]))
    raise ValueError(f"expected T(r,s), S(r,s), gi or gi^k (i in 1..4), got {text!r}")


def _torus_operand(text: str):
    return None, reference_torus_label_from_text(text)


def _ptorus_operand(text: str):
    label = reference_ptorus_label_from_text(text)
    return (None if label.slope is None else "that"), label


# surface: (label class, the CLI's letters, reference (flavor, label) reader)
REFERENCE_READERS = {
    "tor": (TorusLabel, None, _torus_operand),
    "ptor": (PTorusLabel, {"T": "that"}, _ptorus_operand),
    "s04": (S04Label, {"T": "that", "S": "s"}, reference_s04_operand_from_text),
}

# Heads and tails of operands over the fuzz alphabet, so that many draws read.
_HEADS = ["", " ", "T", " S", "U", "g1", "g4", "g5", "g", "1", "T\u0663"]
_TAILS = ["", " ", "^2", "^0", "^_1", "(1,0)", " (-2, 3)", "(0,0)", "(1,2,3)", ")"]
operand_texts = st.one_of(
    st.text(alphabet=_GRAMMAR, max_size=12),
    st.tuples(st.sampled_from(_HEADS), st.sampled_from(_TAILS)).map("".join),
)


def _read(reader, text):
    try:
        return reader(text)
    except ValueError:
        return ValueError


# Each accepted form once, whatever the draws.
@example("tor", " (2,-1) ")
@example("tor", "1")
@example("ptor", "T (1,0)")
@example("ptor", "U^3")
@example("s04", "S(0,1)")
@example("s04", " T(1,2)")
@example("s04", "g3^2")
@example("s04", "g4")
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(REFERENCE_READERS)), operand_texts)
def test_operand_reader_matches_the_parsers_it_replaced(surface, text):
    kind, letters, reference = REFERENCE_READERS[surface]
    assert _read(lambda t: label_from_text(kind, t, letters), text) == _read(
        reference, text
    )
