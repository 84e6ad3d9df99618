"""One-variable polynomial sequences over Z[q, q^-1].

Every sequence here is *normalized*: P_n is monic of degree n, so P_0 = 1.
The built-in ones are the monomials and the two Chebyshev-type families

    type one normalized:  T^_0 = 1, T^_1 = x, T^_2 = x^2 - 2
    type two:             S_0 = 1,  S_1 = x

each continued by P_n = x P_{n-1} - P_{n-2}.  The plain type-one
polynomials (T_0 = 2) are available from ``chebyshev`` but are not a
sequence.  The module also gives exact change of basis between sequences
and the partial order "(P_n) <= (Q_n) iff every Q_n is a positive
combination of P_0..P_n".

Sequences are generated lazily and memoized, and every generated entry is
checked to be monic of its degree; user sequences come from explicit
coefficient tables and are validated at load time.

Read backwards, the recurrence is the three-term rule x P_0 = P_1 and
x P_d = P_(d+1) + P_(d-1) for d >= 1, with one more P_0 in x T^_1 = T^_2 + 2.
``_x_times`` gives x P_d over P by it for both Chebyshev-type sequences,
without building an entry, and by elimination for any other sequence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .laurent import Laurent, ONE, ZERO, ascii_int, const, parse_laurent, q_power

__all__ = [
    "Poly1",
    "PolySeq",
    "MONOMIAL",
    "THAT",
    "CHEB_S",
    "builtin_sequence",
    "chebyshev",
    "substitute_t",
    "expand_in",
    "expansion_coeffs",
    "SeqLeqResult",
    "seq_leq",
    "parse_sequence_table",
    "load_sequence_file",
]


class Poly1:
    """A polynomial in one variable x with Laurent coefficients.

    Stored densely by degree with trailing zeros stripped; the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Laurent | int] = ()):
        cs = [Laurent.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs: tuple[Laurent, ...] = tuple(cs)

    @staticmethod
    def _of(cs: list[Laurent]) -> "Poly1":
        """The polynomial with coefficient list ``cs``, which it takes over.

        Trusted, not checked: every entry is a ``Laurent``.  Trailing zeros
        are stripped.  Only the class's own operators call it; everyone
        else goes through the coercing constructor.
        """
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(Poly1)
        p.coeffs = tuple(cs)
        return p

    @staticmethod
    def const(c: Laurent | int) -> "Poly1":
        return Poly1([c])

    @staticmethod
    def monomial(n: int) -> "Poly1":
        return Poly1([0] * n + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Laurent:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def leading(self) -> Laurent:
        return self.coeffs[-1] if self.coeffs else ZERO

    def __add__(self, other: "Poly1") -> "Poly1":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly1._of(out)

    def __neg__(self) -> "Poly1":
        return Poly1._of([-c for c in self.coeffs])

    def __sub__(self, other: "Poly1") -> "Poly1":
        return self + (-other)

    def __mul__(self, other: "Poly1") -> "Poly1":
        if self.is_zero or other.is_zero:
            return Poly1()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly1._of(out)

    def scaled(self, c: Laurent | int) -> "Poly1":
        c = Laurent.coerce(c)
        return Poly1._of([c * a for a in self.coeffs])

    def compose(self, inner: "Poly1") -> "Poly1":
        """Substitute another polynomial for x (Horner)."""
        result = Poly1()
        for c in reversed(self.coeffs):
            result = result * inner + Poly1.const(c)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly1):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c.is_zero:
                continue
            cs = str(c)
            multi = len(c) > 1
            neg = not multi and cs.startswith("-")
            mag = cs[1:] if neg else cs
            if k == 0:
                body = f"({cs})" if multi else mag
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if multi:
                    body = f"({cs})*{xs}"
                elif mag == "1":
                    body = xs
                else:
                    body = f"{mag}*{xs}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly1({str(self)!r})"


X = Poly1.monomial(1)


class PolySeq:
    """A lazily generated, memoized, normalized sequence of one-variable
    polynomials.

    ``rule(n, prev)`` produces entry n given the list of entries 0..n-1.
    Each generated entry is checked to be monic of degree n, and with
    ``max_n`` no entry above it is defined.  Instances compare by identity.
    """

    def __init__(
        self,
        name: str,
        rule: Callable[[int, list[Poly1]], Poly1],
        *,
        max_n: int | None = None,
    ):
        self.name = name
        self.max_n = max_n
        self._rule = rule
        self._polys: list[Poly1] = []

    @classmethod
    def from_polys(cls, name: str, polys: Sequence[Poly1]) -> "PolySeq":
        polys = list(polys)
        seq = cls(name, lambda n, prev: polys[n], max_n=len(polys) - 1)
        for n in range(len(polys)):
            seq.poly(n)
        return seq

    def poly(self, n: int) -> Poly1:
        if n < 0:
            raise ValueError(f"sequence index must be nonnegative, got {n}")
        while len(self._polys) <= n:
            k = len(self._polys)
            if self.max_n is not None and k > self.max_n:
                raise ValueError(
                    f"sequence {self.name!r} is only defined up to n = {self.max_n}"
                )
            p = self._rule(k, self._polys)
            if p.degree != k or p.leading() != ONE:
                raise ValueError(
                    f"sequence {self.name!r} is not normalized at n = {k}: got {p}"
                )
            self._polys.append(p)
        return self._polys[n]

    def __repr__(self) -> str:
        return f"PolySeq({self.name!r})"


def _monomial_rule(n: int, prev: list[Poly1]) -> Poly1:
    return Poly1.monomial(n)


def _seeded(seeds: list[Poly1]) -> Callable[[int, list[Poly1]], Poly1]:
    """The rule P_n = x P_{n-1} - P_{n-2} above the given first entries."""

    def rule(n: int, prev: list[Poly1]) -> Poly1:
        return seeds[n] if n < len(seeds) else X * prev[n - 1] - prev[n - 2]

    return rule


MONOMIAL = PolySeq("monomial", _monomial_rule)
# Type one normalized: only the n = 0 entry differs from the plain type one
# family, so the recurrence needs the honest T_2 = x^2 - 2 seeded.
THAT = PolySeq("that", _seeded([Poly1.const(1), X, Poly1([-2, 0, 1])]))
CHEB_S = PolySeq("s", _seeded([Poly1.const(1), X]))

_BUILTINS = {"monomial": MONOMIAL, "that": THAT, "s": CHEB_S}


def builtin_sequence(name: str) -> PolySeq:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin sequence {name!r}; choose from "
            f"{sorted(_BUILTINS)}"
        ) from None


_CHEB_KINDS = {
    "T": THAT,
    "t": THAT,
    "T_hat": THAT,
    "that": THAT,
    "S": CHEB_S,
    "s": CHEB_S,
}


def chebyshev(kind: str, n: int) -> Poly1:
    """Chebyshev-type polynomial of the given kind at index n.

    Kinds: ``T`` (type one, T_0 = 2), ``T_hat`` (type one normalized,
    value 1 at n = 0, the same above it), ``S`` (type two).

    >>> chebyshev("T_hat", 2)
    Poly1('x^2 - 2')
    >>> chebyshev("S", 2)
    Poly1('x^2 - 1')
    """
    if kind not in _CHEB_KINDS:
        raise ValueError(f"unknown Chebyshev kind {kind!r}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n == 0 and kind in ("T", "t"):
        return Poly1.const(2)
    return _CHEB_KINDS[kind].poly(n)


def substitute_t(p: Poly1) -> Laurent:
    """Evaluate p at x = t + t^-1, returning a Laurent polynomial in t.

    Requires integer (q-free) coefficients.  Characterizes the Chebyshev
    families: type one lands on t^n + t^-n, type two on the full symmetric
    sum t^n + t^(n-2) + ... + t^-n.
    """
    base = q_power(1) + q_power(-1)
    acc, power = ZERO, ONE
    for k, c in enumerate(p.coeffs):
        if not c.is_zero:
            if c.q_degree_range() != (0, 0):
                raise ValueError(
                    f"coefficient of x^{k} has q-dependence: {c}"
                )
            acc = acc + const(c.coeff(0)) * power
        power = power * base
    return acc


def expand_in(p: Poly1, basis: PolySeq) -> list[Laurent]:
    """Coefficients (c_0..c_d) with p = sum c_k * basis_k, d = deg p.

    Computed by exact descending elimination against the monic basis, on a
    copy of p's coefficient list: each step subtracts c_k * basis_k where
    the basis entry is nonzero.  The expansion is unique.  Returns [] for
    the zero polynomial.
    """
    work = list(p.coeffs)
    out = [ZERO] * len(work)
    for k in range(len(work) - 1, -1, -1):
        c = work[k]
        if c:
            out[k] = c
            for j, b in enumerate(basis.poly(k).coeffs):
                if b:
                    work[j] = work[j] - c * b
    if any(work):
        raise AssertionError("descending elimination failed to terminate")
    return out


def _x_times(seq: PolySeq, d: int) -> list[Laurent]:
    """``expand_in(X * seq.poly(d), seq)``: for ``THAT`` and ``CHEB_S`` by
    the three-term rule, which builds no entry of the sequence."""
    if seq not in (THAT, CHEB_S):
        return expand_in(X * seq.poly(d), seq)
    out = [ZERO] * (d + 1) + [ONE]
    if d:
        out[d - 1] = const(2) if seq is THAT and d == 1 else ONE
    return out


@functools.lru_cache(maxsize=None)
def expansion_coeffs(src: PolySeq, dst: PolySeq, n: int) -> tuple[Laurent, ...]:
    """Memoized expansion of src's degree-n entry over dst.

    An entry the two sequences share expands to the unit vector, since the
    expansion is unique; so does every entry when src is dst.
    """
    if src is dst or src.poly(n) == dst.poly(n):
        return tuple([ZERO] * n + [ONE])
    return tuple(expand_in(src.poly(n), dst))


@dataclass(frozen=True)
class SeqLeqResult:
    """Outcome of a bounded sequence-order check.

    ``witness`` is (n, k, coefficient) for the first non-positive expansion
    coefficient found, or None when the order holds up to n_max.
    """

    holds: bool
    n_max: int
    witness: tuple[int, int, Laurent] | None

    def to_json_obj(self) -> dict:
        w = None
        if self.witness is not None:
            n, k, c = self.witness
            w = {"n": n, "index": k, "coeff": c.to_json_obj()}
        return {"holds": self.holds, "n_max": self.n_max, "witness": w}


def seq_leq(P: PolySeq, Q: PolySeq, n_max: int, *, q1: bool = False) -> SeqLeqResult:
    """Check (P_n) <= (Q_n) for n <= n_max.

    Holds iff every Q_n expands over P_0..P_n with positive coefficients.
    With ``q1`` the coefficients are first specialized at q = 1.
    ``n_max`` must be at least 1: P_0 = Q_0 = 1 for normalized sequences,
    so index 0 alone would certify any pair.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    for n in range(n_max + 1):
        for k, c in enumerate(expand_in(Q.poly(n), P)):
            if not c.is_positive(q1):
                return SeqLeqResult(False, n_max, (n, k, c))
    return SeqLeqResult(True, n_max, None)


def parse_sequence_table(text: str, name: str) -> PolySeq:
    """Parse a sequence table: one ``n: c0 c1 ... cn`` line per polynomial.

    Coefficients are integers or compact Laurent literals (``3q^-2+1``).
    Lines starting with ``#`` and blank lines are ignored.  Indices must
    cover 0..N contiguously and every entry must be monic of its degree;
    a violation is a load error.
    """
    entries: dict[int, Poly1] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ValueError(f"{name}, line {lineno}: expected 'n: c0 c1 ... cn'")
        try:
            n = ascii_int(head.strip())
        except ValueError:
            raise ValueError(
                f"{name}, line {lineno}: bad index {head.strip()!r}"
            ) from None
        if n < 0:
            raise ValueError(f"{name}, line {lineno}: negative index {n}")
        if n in entries:
            raise ValueError(f"{name}, line {lineno}: duplicate index {n}")
        try:
            coeffs = [parse_laurent(tok) for tok in tail.split()]
        except ValueError as exc:
            raise ValueError(f"{name}, line {lineno}: {exc}") from None
        if len(coeffs) != n + 1:
            raise ValueError(
                f"{name}, line {lineno}: expected {n + 1} coefficients, "
                f"got {len(coeffs)}"
            )
        entries[n] = Poly1(coeffs)
    if not entries:
        raise ValueError(f"{name}: no polynomials found")
    top = max(entries)
    missing = [n for n in range(top + 1) if n not in entries]
    if missing:
        raise ValueError(f"{name}: missing indices {missing}")
    return PolySeq.from_polys(name, [entries[n] for n in range(top + 1)])


def load_sequence_file(path: str) -> PolySeq:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence_table(fh.read(), name=f"file:{path}")
