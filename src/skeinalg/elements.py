"""Linear combinations of basis labels over Z[q, q^-1].

A skein element is a finite sum of surface-specific labels with Laurent
coefficients, tagged with the surface and the basis flavor: the polynomial
sequence its labels are read in, but the sphere's product flavors ``s`` and
``that`` read peripheral exponents as monomials; ``convert`` keeps this rule.

Labels are one definition, ``label_type``: a frozen value holding an
optional ``slope`` and the tuple ``periph`` of exponents of the surface's
peripheral curves, with ``of(slope, periph)``, ``sort_key``, ``text`` and
``json_obj``, read back by ``label_from_json``.  A surface names only its
peripheral curves and the JSON key of their exponents.  ``label_from_text``
is the one reader of operand text for all three surfaces; the slope letters
it takes (``T``, ``S``), each naming a basis flavor, are CLI syntax.

Only this module adds peripheral exponents (``shifted``, ``dress``) or moves
labels (``apply_mcg``); the surface modules supply labels and product rules.
A matrix moves slopes linearly and permutes peripheral exponents as it
permutes the curves' parity classes mod 2, which ``label_type`` takes once
per surface; a curve without a class, as on the punctured torus, stays put.

Elements are canonical (no zero coefficients) and immutable: no operation
changes its input, and ``convert`` from a sequence to itself returns it.
Every sum (``+``, ``-``, negation, ``scaled``) is one ``combine``, the only
code that merges the terms of elements.

Building an element hashes each new label once, and a repeated one twice more
to find it and store the sum.  A ``CurveClass`` computes its hash when it is built, and a
product by the constant 1 returns the other operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple

from .curves import CurveClass, MappingClass, gcd_decompose, parse_power, parse_slope
from .laurent import Laurent, ZERO, json_int, q_power
from .polyseq import MONOMIAL, Poly1, PolySeq, expand_in, expansion_coeffs

__all__ = [
    "label_type",
    "label_from_json",
    "label_from_text",
    "SkeinElement",
    "NoProductRuleError",
    "ProductRule",
    "single",
    "q_pair",
    "combine",
    "shifted",
    "dress",
    "apply_mcg",
    "convert",
    "instantiate",
    "left_multiply",
    "route",
    "split_by_q_exponent",
    "lowest_q_layer",
    "element_from_json",
]


class NoProductRuleError(ValueError):
    """A product was requested outside the proved partial multiplication."""


def label_type(
    name: str, names: tuple[str, ...] = (), key: str | None = None, classes=None
):
    """The label class ``name`` of a surface whose peripheral curves are
    ``names``: a label is an optional ``slope`` and the tuple ``periph`` of
    nonnegative exponents, one per peripheral curve.  ``classes`` gives each
    curve's parity class, the pair (r, s) mod 2 that SL(2,Z) moves it with,
    or None for a curve every mapping class fixes (the default for all).

    Labels sort by ``(0,0,0,*periph)`` without a slope and ``(1,s,r,*periph)``
    with one.  The JSON form is ``{"slope": ..., key: ...}``, with one
    exponent as a number and several as a list; without peripheral curves it
    is the label's text.  Each call builds a class of its own, so patching
    one surface's label methods (as a tracer does) leaves the others alone.
    """
    n = len(names)

    @dataclass(frozen=True, slots=True)
    class Label:
        slope: CurveClass | None = None
        periph: tuple[int, ...] = (0,) * n
        periph_names = names
        periph_classes = (None,) * n if classes is None else classes
        json_key = key

        def __post_init__(self):
            p = self.periph
            if type(p) is not tuple or len(p) != n or (p and min(p) < 0):
                raise ValueError(
                    "expected a nonnegative exponent for each peripheral curve "
                    f"({', '.join(names)}), got {p!r}"
                )

        @classmethod
        def of(cls, slope: CurveClass | None, periph: tuple[int, ...]):
            return cls(slope, periph)

        def sort_key(self):
            if self.slope is None:
                return (0, 0, 0) + self.periph
            return (1, self.slope.s, self.slope.r) + self.periph

        def text(self) -> str:
            parts = [] if self.slope is None else [self.slope.text()]
            for curve_name, e in zip(names, self.periph):
                if e:
                    parts.append(curve_name if e == 1 else f"{curve_name}^{e}")
            return "*".join(parts) or "1"

        def json_obj(self):
            if key is None:
                return self.text()
            p = self.periph
            return {
                "slope": None if self.slope is None else self.slope.text(),
                key: p[0] if n == 1 else list(p),
            }

    Label.__name__ = Label.__qualname__ = name
    return Label


def label_from_json(kind, obj):
    """The label of class ``kind`` whose ``json_obj`` is ``obj``.  A JSON
    value of the wrong type fails in the string and dict methods applied to
    it, with ``AttributeError`` or ``TypeError``."""
    key, n = kind.json_key, len(kind.periph_names)
    if key is None:
        return label_from_text(kind, obj)[1]
    extra = obj.keys() - {"slope", key}
    if extra:
        raise ValueError(
            f"unknown label key {sorted(map(str, extra))[0]!r}; "
            f"a label has 'slope' and {key!r}"
        )
    slope = obj.get("slope")
    value = obj.get(key, 0 if n == 1 else [0] * n)
    values = [value] if n == 1 else value
    if not isinstance(values, list):
        raise ValueError(f"peripheral exponents {key!r} are not a list: {value!r}")
    return kind(
        None if slope is None else parse_slope(slope), tuple(map(json_int, values))
    )


def label_from_text(kind, text: str, letters: dict[str, str] | None = None):
    """(flavor, label) for the ``kind`` label written ``text``.  ``name`` or
    ``name^k`` (k >= 1), for a peripheral curve of ``kind``, and without
    ``letters`` the torus forms ``(r,s)`` and ``1``, have flavor None;
    ``L(r,s)`` is a slope in the flavor ``letters[L]``, and its errors quote
    the text after L.  The letters are CLI syntax, not part of a label."""
    names = kind.periph_names
    for i, name in enumerate(names):
        k = parse_power(text, name)
        if k is not None:
            zeros = (0,) * len(names)
            return None, kind(None, zeros[:i] + (k,) + zeros[i + 1 :])
    t = text.strip()
    if letters is None:
        return None, kind(None if t == "1" else parse_slope(t))
    if t[:1] in letters:
        return letters[t[0]], kind(parse_slope(t[1:]))
    forms = [f"{letter}(r,s)" for letter in letters]
    forms += [form for name in names for form in (name, f"{name}^k")]
    raise ValueError(f"expected {', '.join(forms[:-1])} or {forms[-1]}, got {text!r}")


class SkeinElement:
    __slots__ = ("surface", "flavor", "_terms")

    def __init__(self, surface: str, flavor: str, terms: Iterable = ()):
        data: dict = {}
        merged = False
        pairs = terms.items() if isinstance(terms, dict) else terms
        for label, c in pairs:
            if not isinstance(c, Laurent):
                c = Laurent.coerce(c)
            if c.is_zero:
                continue
            # A new label grows the dict; a coefficient object may repeat.
            n = len(data)
            acc = data.setdefault(label, c)
            if len(data) == n:
                data[label] = acc + c
                merged = True
        self.surface = surface
        self.flavor = flavor
        # Only a merge can leave a zero behind.
        self._terms = {l: c for l, c in data.items() if not c.is_zero} if merged else data

    # -- access --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coeff(self, label) -> Laurent:
        return self._terms.get(label, ZERO)

    def labels(self):
        return sorted(self._terms, key=lambda l: l.sort_key())

    def items(self) -> Iterator[tuple[object, Laurent]]:
        for label in self.labels():
            yield label, self._terms[label]

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "SkeinElement") -> "SkeinElement":
        return combine(self.surface, self.flavor, [(self, 1), (other, 1)])

    def __neg__(self) -> "SkeinElement":
        return self.scaled(-1)

    def __sub__(self, other: "SkeinElement") -> "SkeinElement":
        return combine(self.surface, self.flavor, [(self, 1), (other, -1)])

    def scaled(self, c: Laurent | int) -> "SkeinElement":
        return combine(self.surface, self.flavor, [(self, c)])

    def __rmul__(self, c: Laurent | int) -> "SkeinElement":
        return self.scaled(c)

    def map_labels(self, fn: Callable) -> "SkeinElement":
        """Apply a label transformation, merging any collisions."""
        return SkeinElement(
            self.surface,
            self.flavor,
            ((fn(label), c) for label, c in self._terms.items()),
        )

    def with_flavor(self, flavor: str) -> "SkeinElement":
        return SkeinElement(self.surface, flavor, self._terms)

    # -- comparison and display -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkeinElement):
            return NotImplemented
        return (
            self.surface == other.surface
            and self.flavor == other.flavor
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.surface, self.flavor, frozenset(self._terms.items()))
        )

    def text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for label, c in self.items():
            cs = str(c)
            lt = label.text()
            if lt == "1":
                parts.append(f"({cs})" if len(c) > 1 else cs)
            elif cs == "1":
                parts.append(lt)
            elif len(c) > 1 or cs.startswith("-"):
                parts.append(f"({cs})*{lt}")
            else:
                parts.append(f"{cs}*{lt}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<{self.surface}:{self.flavor} {self.text()}>"

    # -- serialization ------------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "surface": self.surface,
            "basis": self.flavor,
            "terms": [
                {"label": label.json_obj(), "coeff": c.to_json_obj()}
                for label, c in self.items()
            ],
        }


def single(surface: str, flavor: str, label, coeff: Laurent | int = 1) -> SkeinElement:
    return SkeinElement(surface, flavor, [(label, coeff)])


def q_pair(surface: str, flavor: str, plus, minus, e: int) -> SkeinElement:
    """q^e (plus) + q^-e (minus): the two slope terms of a resolution."""
    return SkeinElement(surface, flavor, [(plus, q_power(e)), (minus, q_power(-e))])


def combine(
    surface: str, flavor: str, parts: Iterable[tuple[SkeinElement, Laurent | int]]
) -> SkeinElement:
    """The linear combination of the (element, coefficient) pairs in
    ``parts``, built in one pass: equal labels merge and zeros drop once, at
    the end.  Every element must have the given surface and flavor."""

    def terms():
        for elem, c in parts:
            if elem.surface != surface:
                raise ValueError(f"surface mismatch: {surface!r} vs {elem.surface!r}")
            if elem.flavor != flavor:
                raise ValueError(f"basis flavor mismatch: {flavor!r} vs {elem.flavor!r}")
            if isinstance(c, int) and c == 1:
                # A part taken once shares its coefficients with the result:
                # a copy would double the size of a sum kept beside its
                # parts, such as the remainders h_k beside the sphere
                # tower's products.
                yield from elem._terms.items()
                continue
            c = Laurent.coerce(c)
            for label, v in elem._terms.items():
                yield label, c * v

    return SkeinElement(surface, flavor, terms())


def _exponent_sum(labels) -> tuple[int, ...]:
    return tuple(map(sum, zip(*(label.periph for label in labels))))


def shifted(label, *labels):
    """``label`` with the peripheral exponents of ``labels`` added to its own."""
    return label.of(label.slope, _exponent_sum((label, *labels)))


def dress(elem: SkeinElement, *labels) -> SkeinElement:
    """``elem`` times the peripheral monomials of ``labels``; ``elem``
    itself when the shift is zero.

    This is monomial multiplication, so it is exact only on the punctured
    torus when at most one factor carries U (U-powers are read in the
    flavor), and on the sphere in the ``s`` and ``that`` product flavors.
    """
    shift = _exponent_sum(labels)
    if not any(shift):
        return elem
    return elem.map_labels(
        lambda label: label.of(label.slope, tuple(map(add, label.periph, shift)))
    )


def apply_mcg(elem: SkeinElement, m: MappingClass) -> SkeinElement:
    """Move ``elem`` by a mapping class: every slope moves by ``m.apply``,
    and exponent i of a moved label is exponent j of the old one when ``m``
    sends the parity class of curve j to that of curve i mod 2.  A curve
    without a class keeps its exponent."""
    if elem.is_zero:
        return elem
    classes = type(next(iter(elem._terms))).periph_classes
    moved = [
        c and ((m.a * c[0] + m.b * c[1]) % 2, (m.c * c[0] + m.d * c[1]) % 2)
        for c in classes
    ]
    perm = [i if c is None else moved.index(c) for i, c in enumerate(classes)]

    def act(label):
        p = tuple(label.periph[j] for j in perm)
        return label.of(None if label.slope is None else m.apply(label.slope), p)

    return elem.map_labels(act)


def instantiate(
    surface: str, p: Poly1, prim: CurveClass, basis: PolySeq, like
) -> SkeinElement:
    """Read a one-variable polynomial on a primitive curve as an element.

    The degree-k part of p, expanded over the basis sequence, lands on the
    slope ``k * prim`` and the constant part on the empty slope; every
    label is built by ``like.of`` and carries ``like.periph``.
    """
    of, periph = like.of, like.periph
    terms = [
        (of(None if k == 0 else prim.scaled(k), periph), c)
        for k, c in enumerate(expand_in(p, basis))
        if not c.is_zero
    ]
    return SkeinElement(surface, basis.name, terms)


# Per surface, the flavors that read peripheral exponents as monomials: the
# sphere's product flavors, in which its two-flavor product rows hold.
_MONOMIAL_PERIPHERALS = {"s04": ("s", "that")}


def convert(elem: SkeinElement, target: PolySeq, source: PolySeq) -> SkeinElement:
    """Exact change of basis flavor.

    A slope of multiplicity d carries the flavor sequence's degree-d entry
    on its primitive curve, and a peripheral exponent e the degree-e entry
    on its peripheral curve, of ``MONOMIAL`` in a flavor the surface lists
    in ``_MONOMIAL_PERIPHERALS``.  Each entry is rewritten over the target
    by the same rule, its degree-k term landing on exponent k; a slope of
    exponent 0 is the empty slope.  From a sequence to itself nothing is
    re-read, so a slope of any multiplicity costs nothing.
    """
    if source.name != elem.flavor:
        raise ValueError(
            f"element flavor {elem.flavor!r} does not match source {source.name!r}"
        )
    if source is target:
        return elem
    monomial = _MONOMIAL_PERIPHERALS.get(elem.surface, ())
    p_source = MONOMIAL if source.name in monomial else source
    p_target = MONOMIAL if target.name in monomial else target
    terms = []
    for label, c in elem._terms.items():
        # (peripheral exponents, coefficient) pairs, each exponent re-read.
        periphs = [(label.periph, c)]
        for i, e in enumerate(label.periph):
            if e:
                coeffs = expansion_coeffs(p_source, p_target, e)
                periphs = [
                    (p[:i] + (j,) + p[i + 1 :], pc * cj)
                    for p, pc in periphs
                    for j, cj in enumerate(coeffs)
                    if not cj.is_zero
                ]
        of = label.of
        if label.slope is None:
            terms += [(of(None, p), pc) for p, pc in periphs]
            continue
        d, prim = gcd_decompose(label.slope)
        for k, ck in enumerate(expansion_coeffs(source, target, d)):
            if not ck.is_zero:
                # The top term lands on the label's own slope.
                slope = label.slope if k == d else None if k == 0 else prim.scaled(k)
                for p, pc in periphs:
                    terms.append((of(slope, p), pc * ck))
    return SkeinElement(elem.surface, target.name, terms)


class ProductRule(NamedTuple):
    """One row of a surface's product table: a proved family of label
    products, the shape test on the two labels, the rule
    ``rule(a, b, flavor)`` that computes the product, and the basis flavors
    the rule holds in."""

    family: str
    shape: Callable[[object, object], bool]
    rule: Callable[[object, object, str], SkeinElement]
    flavors: tuple[str, ...] = ("that",)


# A shape test of the product tables; private, so the per-layer tracer
# does not wrap a predicate that every routed product calls.
def _is_slope(label, s: int) -> bool:
    return label.slope is not None and label.slope.s == s


def route(table, a, b, flavor: str, where: str) -> SkeinElement:
    """The product a * b by the first row of ``table`` that holds in the
    flavor and matches the shape of the two labels."""
    for row in table:
        if flavor in row.flavors and row.shape(a, b):
            return row.rule(a, b, flavor)
    families = "; ".join(row.family for row in table if flavor in row.flavors)
    raise NoProductRuleError(
        f"no product rule for {a.text()} * {b.text()} in the {flavor!r} flavor "
        f"on the {where}; supported: {families}"
    )


def left_multiply(
    name: str, surface: str, flavor: str, left, elem: SkeinElement, product, *args
) -> SkeinElement:
    """``left * elem`` term by term through ``product(left, label, *args)``;
    the error for an element off ``surface`` or ``flavor`` names ``name``."""
    if elem.surface != surface or elem.flavor != flavor:
        raise ValueError(f"{name} expects a {flavor!r}-flavor element")
    return combine(
        surface, flavor, ((product(left, label, *args), c) for label, c in elem.items())
    )


def split_by_q_exponent(elem: SkeinElement) -> dict[int, SkeinElement]:
    """Split an element by the q-exponent of its coefficient monomials.

    Bucket e holds the integer part of every c*q^e term; scaling bucket e
    by q^e and summing recovers the element exactly.
    """
    buckets: dict[int, list] = {}
    for label, c in elem._terms.items():
        for e, k in c.items():
            buckets.setdefault(e, []).append((label, Laurent.coerce(k)))
    return {
        e: SkeinElement(elem.surface, elem.flavor, pairs)
        for e, pairs in buckets.items()
    }


def lowest_q_layer(elem: SkeinElement) -> tuple[int, SkeinElement]:
    """The lowest q-exponent of a nonzero element and its bucket of
    ``split_by_q_exponent``."""
    buckets = split_by_q_exponent(elem)
    low = min(buckets)
    return low, buckets[low]


def element_from_json(
    obj: dict, surface: str, kind, default_basis: str
) -> SkeinElement:
    """The element serialized by ``SkeinElement.to_json_obj``; each label is
    read as a ``kind`` label and a missing ``"basis"`` means ``default_basis``.
    A malformed term raises a one-line ``ValueError`` that names its index."""
    if not isinstance(obj, dict):
        raise ValueError(f"an element is a JSON object, got {obj!r}")
    if obj.get("surface") != surface:
        raise ValueError(f"not a {surface!r} element: surface {obj.get('surface')!r}")
    basis = obj.get("basis", default_basis)
    if not isinstance(basis, str):
        raise ValueError(f"'basis' is not a string: {basis!r}")
    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise ValueError(f"'terms' is not a list: {terms!r}")
    return SkeinElement(
        surface,
        basis,
        [_term_from_json(i, term, kind) for i, term in enumerate(terms)],
    )


def _term_from_json(i: int, term, kind) -> tuple[object, Laurent]:
    if not isinstance(term, dict) or "label" not in term or "coeff" not in term:
        raise ValueError(f"term {i}: expected an object with 'label' and 'coeff'")
    try:
        label = label_from_json(kind, term["label"])
    except (TypeError, AttributeError):
        raise ValueError(f"term {i}: malformed label {term['label']!r}") from None
    except ValueError as exc:
        raise ValueError(f"term {i}: {exc}") from None
    try:
        return label, Laurent.from_json_obj(term["coeff"])
    except ValueError as exc:
        raise ValueError(f"term {i}: {exc}") from None
