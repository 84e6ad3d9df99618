"""The skein algebra of the closed torus.

Basis labels are the empty multicurve plus slopes (r, s) != (0, 0) up to
sign; a label of multiplicity d = gcd(r, s) read in flavor P stands for
P_d applied to the primitive curve.  In the normalized type-one Chebyshev
flavor the product of two slope labels is the two-term rule

    (r,s) * (u,v)  =  q^D (r+u, s+v) + q^-D (r-u, s-v),   D = rv - us,

where a (0, 0) result contributes twice the empty label.  That convention
lives only inside ``fg_mul``; everywhere else the empty label is an honest
basis element with coefficient semantics.  Products in any other flavor are
defined by converting through the type-one basis; there is no independent
product rule.
"""

from __future__ import annotations

from .curves import CurveClass, curve
from . import elements
from .elements import SkeinElement, combine, convert, label_type, single
from .laurent import Laurent, q_power
from .polyseq import THAT, PolySeq
from .reports import PositivityReport, Witness

__all__ = [
    "SURFACE",
    "TorusLabel",
    "EMPTY",
    "tlabel",
    "fg_mul",
    "mul",
    "convert",
    "structure_constants",
    "canonical_slopes",
    "positivity_scan",
    "element_from_json",
]

SURFACE = "t10"

TorusLabel = label_type("TorusLabel")
EMPTY = TorusLabel(None)


def tlabel(r: int, s: int) -> TorusLabel:
    return TorusLabel(curve(r, s))


def fg_mul(a: TorusLabel, b: TorusLabel) -> SkeinElement:
    """Product of two labels in the normalized type-one flavor."""
    if a.slope is None:
        return single(SURFACE, "that", b)
    if b.slope is None:
        return single(SURFACE, "that", a)
    r, s = a.slope.r, a.slope.s
    u, v = b.slope.r, b.slope.s
    D = r * v - u * s
    terms = []
    for sign, (x, y) in ((1, (r + u, s + v)), (-1, (r - u, s - v))):
        coeff = q_power(sign * D)
        if x == 0 and y == 0:
            terms.append((EMPTY, coeff + coeff))
        else:
            terms.append((TorusLabel(curve(x, y)), coeff))
    return SkeinElement(SURFACE, "that", terms)


def mul(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """Bilinear extension of the label product; type-one flavor only."""
    if x.surface != SURFACE or y.surface != SURFACE:
        raise ValueError("torus multiplication needs torus elements")
    if x.flavor != "that" or y.flavor != "that":
        raise ValueError(
            "torus products are computed in the 'that' flavor; convert first"
        )
    xs, ys = x._terms.items(), y._terms.items()  # an exact sum needs no order
    return combine(
        SURFACE, "that", ((fg_mul(la, lb), ca * cb) for la, ca in xs for lb, cb in ys)
    )


def structure_constants(P: PolySeq, a: TorusLabel, b: TorusLabel) -> SkeinElement:
    """The product of two basis labels read and returned in flavor P."""
    ea = convert(single(SURFACE, P.name, a), THAT, P)
    eb = convert(single(SURFACE, P.name, b), THAT, P)
    return convert(mul(ea, eb), P, THAT)


def canonical_slopes(bound: int) -> list[CurveClass]:
    """All canonical slopes with |r|, |s| <= bound, sorted by (s, r)."""
    return [curve(r, 0) for r in range(1, bound + 1)] + [
        curve(r, s) for s in range(1, bound + 1) for r in range(-bound, bound + 1)
    ]


def positivity_scan(P: PolySeq, bound: int, *, q1: bool = False) -> PositivityReport:
    """Check every structure constant over the slope box |r|,|s| <= bound.

    Scans ordered pairs of canonical labels in (s, r)-lexicographic order
    and records every coefficient outside the positive part; the first
    recorded witness is deterministic.  The witnesses of one pair share its
    ``inputs`` tuple, and equal label texts and equal coefficients are one
    object each, so memory grows with the distinct values, not the witnesses.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    box = [
        (lab.text(), convert(single(SURFACE, P.name, lab), THAT, P))
        for lab in map(TorusLabel, canonical_slopes(bound))
    ]
    texts: dict[str, str] = {}
    coeffs: dict[Laurent, Laurent] = {}
    witnesses: list[Witness] = []
    for a, a_form in box:
        for b, b_form in box:
            inputs = (a, b)
            prod = convert(mul(a_form, b_form), P, THAT)
            for label, cf in prod.items():
                if not cf.is_positive(q1):
                    text = label.text()
                    witnesses.append(Witness(
                        inputs, texts.setdefault(text, text), coeffs.setdefault(cf, cf)
                    ))
    return PositivityReport(SURFACE, P.name, bound, witnesses, q1=q1)


def element_from_json(obj: dict) -> SkeinElement:
    return elements.element_from_json(obj, SURFACE, TorusLabel, "that")
