"""Slopes of simple closed curves on the basic surfaces, and SL(2,Z).

A curve class is a nonzero integer pair (r, s) modulo the identification
(r, s) ~ (-r, -s); it is primitive when gcd(r, s) = 1.  The canonical
representative has s > 0, or s = 0 and r > 0.  Non-primitive pairs are
allowed and stand for gcd(r, s) parallel copies of the primitive class.

The tori carry the full SL(2,Z) mapping class action (the standard linear
action on slopes).  On the four-punctured sphere this library only exposes
the half twist `sigma` and its inverse; `sigma` fixes punctures 3 and 4 and
exchanges punctures 1 and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .laurent import LaurentSyntaxError, ascii_int

__all__ = [
    "CurveClass",
    "CurveSyntaxError",
    "MappingClass",
    "curve",
    "parse_slope",
    "parse_power",
    "gcd_decompose",
    "intersection_number",
    "IDENTITY",
    "sigma",
]


@dataclass(frozen=True, slots=True)
class CurveClass:
    r: int
    s: int
    # hash((r, s)), computed once: slopes key the label dicts of elements.
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.r == 0 and self.s == 0:
            raise ValueError("(0, 0) is not a curve class")
        if self.s < 0 or (self.s == 0 and self.r < 0):
            object.__setattr__(self, "r", -self.r)
            object.__setattr__(self, "s", -self.s)
        object.__setattr__(self, "_hash", hash((self.r, self.s)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def d(self) -> int:
        """The number of parallel copies, gcd(|r|, |s|)."""
        return math.gcd(self.r, self.s)

    def primitive(self) -> "CurveClass":
        d = self.d
        return self if d == 1 else CurveClass(self.r // d, self.s // d)

    @property
    def is_primitive(self) -> bool:
        return self.d == 1

    def scaled(self, k: int) -> "CurveClass":
        if k <= 0:
            raise ValueError("scale factor must be positive")
        return CurveClass(k * self.r, k * self.s)

    def sort_key(self) -> tuple[int, int]:
        return (self.s, self.r)

    def text(self) -> str:
        return f"({self.r},{self.s})"

    def __str__(self) -> str:
        return self.text()


def curve(r: int, s: int) -> CurveClass:
    return CurveClass(r, s)


def gcd_decompose(c: CurveClass) -> tuple[int, CurveClass]:
    """Split a slope into (multiplicity, primitive class)."""
    return c.d, c.primitive()


class CurveSyntaxError(LaurentSyntaxError):
    """A malformed slope or peripheral power."""


def parse_slope(text: str) -> CurveClass:
    """Parse ``(r,s)`` with optional whitespace; positions count in ``text``."""
    s = text.strip()
    at = len(text) - len(text.lstrip())  # the position of s[0] in text
    if not s.startswith("("):
        raise CurveSyntaxError("expected '('", at, text)
    if not s.endswith(")"):
        raise CurveSyntaxError("expected ')'", at + len(s) - 1, text)
    body = s[1:-1]
    pieces = body.split(",")
    if len(pieces) != 2:
        # The second ',', or the ')' when there is none.
        end = len(pieces[0]) + 1 + len(pieces[1]) if pieces[1:] else len(body)
        raise CurveSyntaxError("expected exactly one ','", at + 1 + end, text)
    values = []
    start = at + 1  # the position of the piece in text
    for piece in pieces:
        digits = piece.strip()
        try:
            values.append(ascii_int(digits))
        except ValueError:
            lead = len(piece) - len(piece.lstrip())
            raise CurveSyntaxError(
                f"bad integer {digits!r}", start + lead, text
            ) from None
        start += len(piece) + 1
    r, sv = values
    if r == 0 and sv == 0:
        raise CurveSyntaxError("(0,0) is not a curve", at + 1, text)
    return CurveClass(r, sv)


def parse_power(text: str, head: str) -> int | None:
    """Parse ``head`` or ``head^k`` (k >= 1) into the exponent k; None when
    the text is not a power of ``head``."""
    t = text.strip()
    if t == head:
        return 1
    if t.startswith(head + "^"):
        tail = t[len(head) + 1 :]
        if tail.isascii() and tail.isdigit() and int(tail) > 0:
            return int(tail)
        start = len(text) - len(text.lstrip()) + len(head) + 1
        raise CurveSyntaxError("bad exponent", start, text)
    return None


@dataclass(frozen=True)
class MappingClass:
    """A mapping class of the torus as a 2x2 integer matrix of determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("mapping class matrix must have determinant 1")

    def apply(self, slope: CurveClass) -> CurveClass:
        return CurveClass(
            self.a * slope.r + self.b * slope.s,
            self.c * slope.r + self.d * slope.s,
        )

    def compose(self, other: "MappingClass") -> "MappingClass":
        return MappingClass(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MappingClass":
        return MappingClass(self.d, -self.b, -self.c, self.a)

    def power(self, k: int) -> "MappingClass":
        if k < 0:
            return self.inverse().power(-k)
        out = IDENTITY
        base = self
        while k:
            if k & 1:
                out = out.compose(base)
            base = base.compose(base)
            k >>= 1
        return out


IDENTITY = MappingClass(1, 0, 0, 1)


def sigma() -> MappingClass:
    """The half twist [[1, 1], [0, 1]]: (r, s) -> (r + s, s)."""
    return MappingClass(1, 1, 0, 1)


def intersection_number(a: CurveClass, b: CurveClass) -> int:
    """Geometric intersection number |r_a s_b - s_a r_b| of primitive slopes."""
    if not a.is_primitive or not b.is_primitive:
        raise ValueError("intersection_number needs primitive curve classes")
    return abs(a.r * b.s - a.s * b.r)
