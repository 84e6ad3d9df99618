"""Exact arithmetic in Z[q, q^-1], the ring of integer Laurent polynomials.

Values are immutable and canonical: a polynomial is a map from exponent to
nonzero integer coefficient, so structural equality coincides with ring
equality.  Coefficients are Python ints, hence arbitrary precision.

The positive part of the ring consists of the polynomials all of whose
coefficients are nonnegative.  It contains q and q^-1, is closed under
addition and multiplication, and meets its own negative only in 0.

The same type doubles as Z[t, t^-1] when a second formal variable is
convenient; the variable name is purely contextual.
"""

from __future__ import annotations

from typing import Mapping

__all__ = [
    "Laurent",
    "LaurentSyntaxError",
    "ZERO",
    "ONE",
    "Q",
    "QINV",
    "const",
    "q_power",
    "quantum_int",
    "ascii_int",
    "json_int",
    "parse_laurent",
]

# JSON emits coefficients beyond this magnitude as strings so that consumers
# reading with IEEE doubles never lose digits.
_JSON_INT_LIMIT = 2**53 - 1


class Laurent:
    """An element of Z[q, q^-1] in canonical form.

    >>> p = q_power(1) + q_power(-1)
    >>> p * p
    Laurent('q^-2 + 2 + q^2')
    >>> (p * p).q_degree_range()
    (-2, 2)
    >>> (p - p).is_zero
    True
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms = {int(e): int(c) for e, c in (terms or {}).items() if c}

    @staticmethod
    def _of(terms: dict[int, int]) -> "Laurent":
        """The polynomial with the dict ``terms``, which it takes over.

        Trusted, not checked: ``terms`` maps int exponents to nonzero int
        coefficients and nobody else holds it.  Only this module calls it;
        everyone else goes through the validating constructor.
        """
        p = object.__new__(Laurent)
        p._terms = terms
        return p

    @staticmethod
    def coerce(value: "Laurent | int") -> "Laurent":
        if isinstance(value, Laurent):
            return value
        if isinstance(value, int):
            return Laurent._of({0: int(value)} if value else {})
        raise TypeError(f"cannot interpret {value!r} as a Laurent polynomial")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, exponents ascending."""
        return tuple(sorted(self._terms.items()))

    def coeff(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    # -- ring operations ---------------------------------------------------
    # Each operator builds a canonical dict and hands it to ``_of``: a zero
    # sum is dropped where it arises, and no result is validated again.

    def __add__(self, other: "Laurent | int") -> "Laurent":
        if not isinstance(other, Laurent):
            if not isinstance(other, int):
                return NotImplemented
            other = Laurent.coerce(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        terms = dict(a)
        for e, c in b.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return Laurent._of(terms)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return Laurent._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Laurent | int") -> "Laurent":
        if not isinstance(other, Laurent):
            if not isinstance(other, int):
                return NotImplemented
            other = Laurent.coerce(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.get(e, 0) - c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return Laurent._of(terms)

    def __rsub__(self, other: "Laurent | int") -> "Laurent":
        if not isinstance(other, int):
            return NotImplemented
        return Laurent.coerce(other) - self

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        if not isinstance(other, Laurent):
            if not isinstance(other, int):
                return NotImplemented
            other = Laurent.coerce(other)
        a, b = self._terms, other._terms
        # Values are immutable, so a product by 1 is the other factor.
        if a == ONE._terms:
            return other
        if b == ONE._terms:
            return self
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # A monomial factor shifts and scales: no sums, so no zeros.
            ((e1, c1),) = a.items()
            return Laurent._of({e1 + e: c1 * c for e, c in b.items()})
        terms: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return Laurent._of({e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            if len(self._terms) == 1:
                ((e, c),) = self._terms.items()
                if c in (1, -1):
                    return Laurent({-e: c}) ** (-n)
            raise ValueError("only unit monomials have negative powers")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def is_positive(self, q1: bool = False) -> bool:
        """True iff every coefficient is nonnegative (0 counts as positive);
        with ``q1``, iff the value at q = 1 is nonnegative."""
        if q1:
            return self.specialize_q1() >= 0
        return all(c >= 0 for c in self._terms.values())

    def q_degree_range(self) -> tuple[int, int] | None:
        """(min exponent, max exponent), or None for the zero polynomial."""
        if not self._terms:
            return None
        exps = self._terms.keys()
        return (min(exps), max(exps))

    def specialize_q1(self) -> int:
        """Evaluate at q = 1: the sum of all coefficients."""
        return sum(self._terms.values())

    def invert_q(self) -> "Laurent":
        """Apply the involution q -> q^-1."""
        return Laurent._of({-e: c for e, c in self._terms.items()})

    # -- equality and display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Laurent.coerce(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes as that int.
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            if e == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                body = f"{mag}q" if e == 1 else f"{mag}q^{e}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Laurent({str(self)!r})"

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict[str, int | str]:
        """{"exponent": coefficient}; huge coefficients go out as strings."""
        return {
            str(e): (c if abs(c) <= _JSON_INT_LIMIT else str(c))
            for e, c in self.items()
        }

    @staticmethod
    def from_json_obj(obj: Mapping[str, int | str]) -> "Laurent":
        """The polynomial that ``to_json_obj`` wrote.  Exponents are keys
        that ``ascii_int`` reads and coefficients are read by ``json_int``;
        anything else, a float or a bool coefficient included, raises
        ``ValueError``."""
        if not isinstance(obj, Mapping):
            raise ValueError(f"a Laurent polynomial is a JSON object, got {obj!r}")
        terms: dict[int, int] = {}
        for key, c in obj.items():
            if not isinstance(key, str):
                raise ValueError(f"exponent key is not a string: {key!r}")
            e = ascii_int(key)
            if e in terms:
                raise ValueError(f"exponent {e} appears twice")
            terms[e] = json_int(c)
        return Laurent(terms)


ZERO = Laurent()
ONE = Laurent({0: 1})
Q = Laurent({1: 1})
QINV = Laurent({-1: 1})


def const(c: int) -> Laurent:
    return Laurent({0: c})


def q_power(exponent: int) -> Laurent:
    return Laurent._of({exponent: 1})


def quantum_int(i: int) -> Laurent:
    """The quantum integer [i] = q^(2i-2) + q^(2i-6) + ... + q^(2-2i).

    Exactly i terms, spaced by 4.

    >>> quantum_int(3)
    Laurent('q^-4 + 1 + q^4')
    """
    if i < 1:
        raise ValueError(f"quantum integer needs i >= 1, got {i}")
    return Laurent({2 * i - 2 - 4 * k: 1 for k in range(i)})


def ascii_int(text: str) -> int:
    """``int(text)`` for a literal of ASCII digits with an optional sign.

    ``int`` alone also reads every other Unicode decimal digit, underscores
    between digits and surrounding whitespace; this raises ``ValueError`` on
    all three.
    """
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def json_int(value: object) -> int:
    """An integer read from JSON: an int, or a string that ``ascii_int``
    reads (huge coefficients are written as strings).  A bool, a float or
    any other value raises ``ValueError``."""
    if isinstance(value, str):
        return ascii_int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"not an integer: {value!r}")


class LaurentSyntaxError(ValueError):
    """A malformed literal: ``position`` is the index of the failing
    character in ``text``, the text as given."""

    def __init__(self, message: str, position: int, text: str):
        super().__init__(f"{message} at position {position} in {text!r}")
        self.position = position
        self.text = text


# Only ASCII digits: ``str.isdigit`` also holds for "٣" and "²".
_DIGITS = "0123456789"


def parse_laurent(text: str) -> Laurent:
    """Parse a compact Laurent literal such as ``3q^-2+1`` or ``-q^2-q^-2``.

    Whitespace is ignored.  A term is an optional sign, an optional integer
    coefficient, and an optional ``q`` with an optional ``^`` exponent.
    """
    s = "".join(text.split())
    if not s:
        raise LaurentSyntaxError("empty literal", 0, text)
    terms: dict[int, int] = {}
    i = 0
    n = len(s)

    def fail(message: str, j: int):
        # s[j] is at[j] in text, and the end of s is the end of text.
        at = [k for k, ch in enumerate(text) if not ch.isspace()] + [len(text)]
        return LaurentSyntaxError(message, at[j], text)

    def read_int(j: int) -> tuple[int, int]:
        k = j
        if k < n and s[k] in "+-":
            k += 1
        start_digits = k
        while k < n and s[k] in _DIGITS:
            k += 1
        if k == start_digits:
            raise fail("expected an integer", j)
        return int(s[j:k]), k

    first = True
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        elif not first:
            raise fail("expected '+' or '-'", i)
        first = False
        coeff = None
        if i < n and s[i] in _DIGITS:
            coeff, i = read_int(i)
        exponent = 0
        if i < n and s[i] == "q":
            i += 1
            exponent = 1
            if i < n and s[i] == "^":
                exponent, i = read_int(i + 1)
            if coeff is None:
                coeff = 1
        if coeff is None:
            raise fail("expected a coefficient or 'q'", i)
        terms[exponent] = terms.get(exponent, 0) + sign * coeff
    return Laurent(terms)
