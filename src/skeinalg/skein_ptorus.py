"""Partial multiplication on the once-punctured torus.

Labels pair an optional slope with a power of the central peripheral curve
U; a label of slope multiplicity d and U-power u read in flavor P stands
for P_d(primitive) * P_u(U).  No general product formula is implemented:
only the proved families below are supported, and anything else raises
``NoProductRuleError``.

Supported products, all in the normalized type-one flavor, are the rows
of ``PRODUCTS``, tried in order by ``product``:

  * products of U-powers, and a U-power against a slope label (U is
    central);
  * left multiplication of (1,0) against any (n,2) label, which picks up a
    peripheral correction (U + q^2 + q^-2) exactly when n is odd;
  * (n,1) times (0,1), whose peripheral correction is governed by the
    one-variable polynomials G_n computed here both in closed form and by
    recursion;
  * a label whose primitive curve meets a primitive curve once (two-term
    rule, same shape as the closed-torus product);
  * (1,0) times (k,0): one-variable multiplication on the (1,0) curve.

``CHECKS`` checks G_n in closed form against its recursion, and the two
ways of expanding (1,0)*((n,1)*(0,1)), up to a bound.

U-powers are read in the flavor, so a rule may ``dress`` its output with
the U-powers of its factors only when one of them is zero, and a rule
whose output carries U needs U-free factors.

The lowest-q-exponent extraction rewrites that last product in a caller
supplied integer-coefficient flavor and groups terms by q-exponent.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import ne

from .curves import CurveClass, curve, intersection_number
from . import elements
from .elements import (
    NoProductRuleError,
    ProductRule,
    SkeinElement,
    _is_slope,
    combine,
    convert,
    dress,
    instantiate,
    label_type,
    left_multiply,
    lowest_q_layer,
    q_pair,
    route,
    shifted,
    single,
)
from .laurent import ONE, q_power
from .polyseq import (
    CHEB_S,
    THAT,
    Poly1,
    PolySeq,
    X,
    _x_times,
    expand_in,
)
from .reports import Check, CheckReport

__all__ = [
    "SURFACE",
    "PTorusLabel",
    "PT_EMPTY",
    "plabel",
    "mul_once",
    "mul_t10_tn2",
    "g_closed",
    "g_recursive",
    "mul_tn1_t01",
    "mul_by_t10",
    "PRODUCTS",
    "product",
    "two_way_expansion",
    "CHECKS",
    "convert",
    "upper_bound_extract",
    "element_from_json",
]

SURFACE = "t11"

PTorusLabel = label_type("PTorusLabel", ("U",), "u")
PT_EMPTY = PTorusLabel()


def plabel(r: int | None = None, s: int | None = None, u: int = 0) -> PTorusLabel:
    slope = None if r is None else curve(r, s)
    return PTorusLabel(slope, (u,))


def mul_once(a: PTorusLabel, b: CurveClass) -> SkeinElement:
    """Product (label a) * (primitive curve b) when a's primitive curve
    meets b exactly once, i.e. |rv - su| equals the multiplicity of a.

    U-powers ride along unchanged.
    """
    if a.slope is None:
        raise NoProductRuleError("left factor has no slope component")
    if not b.is_primitive:
        raise ValueError("right factor must be a primitive curve class")
    d = a.slope.d
    r, s = a.slope.r, a.slope.s
    u, v = b.r, b.s
    D = r * v - s * u
    if abs(D) != d:
        raise NoProductRuleError(
            f"curves {a.slope.primitive().text()} and {b.text()} do not "
            f"intersect once (|{r}*{v} - {s}*{u}| = {abs(D)}, need {d})"
        )
    plus, minus = curve(r + u, s + v), curve(r - u, s - v)
    return q_pair(
        SURFACE, "that", PTorusLabel(plus, a.periph), PTorusLabel(minus, a.periph), D
    )


def mul_t10_tn2(n: int) -> SkeinElement:
    """Left multiplication of the (1,0) label against the (n,2) label.

    Two slope terms shifted by q^(+-2), plus (U + q^2 + q^-2) exactly when
    n is odd.
    """
    terms = [
        (PTorusLabel(curve(n + 1, 2)), q_power(2)),
        (PTorusLabel(curve(n - 1, 2)), q_power(-2)),
    ]
    if n % 2:
        terms.append((PTorusLabel(None, (1,)), ONE))
        terms.append((PT_EMPTY, q_power(2) + q_power(-2)))
    return SkeinElement(SURFACE, "that", terms)


def g_closed(n: int) -> Poly1:
    """Closed form of the peripheral-correction polynomial G_n:

        G_n = sum over 1 <= i <= n//2 of q^(4i - n - 2) * S_{n-2i}(x),

    with G_0 = G_1 = 0.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    return sum(
        (
            CHEB_S.poly(n - 2 * i).scaled(q_power(4 * i - n - 2))
            for i in range(1, n // 2 + 1)
        ),
        Poly1(),
    )


def g_recursive(n: int) -> list[Poly1]:
    """[G_0, ..., G_n] by the recursion that drives the (n,1)*(0,1)
    product family:

        G_m = q^-1 x G_{m-1} - q^-2 G_{m-2} + q^(m-2) A_{m-1},

    where A_m = m mod 2 and G_0 = G_1 = 0.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    table = [Poly1(), Poly1()]
    for m in range(2, n + 1):
        p = (X * table[m - 1]).scaled(q_power(-1)) - table[m - 2].scaled(q_power(-2))
        if (m - 1) % 2:
            p = p + Poly1.const(q_power(m - 2))
        table.append(p)
    return table[: n + 1]


def mul_tn1_t01(n: int) -> SkeinElement:
    """The product (n,1) * (0,1) in the normalized type-one flavor:

        q^n (n,2) + q^-n (n,0) + (U + q^2 + q^-2) G_n((1,0)).

    G_n is read onto (1,0) once; its labels are U-free and U is central, so
    the U term is that element dressed with U.  At n = 0 the product is the
    square of one curve, x T^_1 = T^_2 + 2 by the three-term rule (the
    (n,0) term degenerates to twice the empty label there).
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return instantiate(SURFACE, _x_times(THAT, 1), curve(0, 1), THAT, PT_EMPTY)
    slopes = q_pair(SURFACE, "that", PTorusLabel(curve(n, 2)), PTorusLabel(curve(n, 0)), n)
    g = instantiate(SURFACE, expand_in(g_closed(n), THAT), curve(1, 0), THAT, PT_EMPTY)
    u_term = dress(g, PTorusLabel(None, (1,)))
    return combine(
        SURFACE, "that", [(slopes, 1), (u_term, 1), (g, q_power(2) + q_power(-2))]
    )


def _one_u(a: PTorusLabel, b: PTorusLabel) -> bool:
    """At most one factor carries U, so U-powers may be added."""
    return not (a.periph[0] and b.periph[0])


def _meets_once(a: PTorusLabel, b: PTorusLabel) -> bool:
    return (
        a.slope is not None
        and b.slope is not None
        and b.slope.is_primitive
        and intersection_number(a.slope.primitive(), b.slope) == 1
        and _one_u(a, b)
    )


def _times_u_power(a: PTorusLabel, b: PTorusLabel) -> SkeinElement:
    """U^j * U^k by T^_j T^_k = T^_(j+k) + T^_|j-k|, which holds for j, k >= 1
    when T^_0 counts as T_0 = 2; U^0 is the unit."""
    j, k = a.periph[0], b.periph[0]
    terms = [(PTorusLabel(None, (j + k,)), 1)]
    if j and k:
        terms.append((PTorusLabel(None, (abs(j - k),)), 2 if j == k else 1))
    return SkeinElement(SURFACE, "that", terms)


T10 = PTorusLabel(curve(1, 0))
T01 = PTorusLabel(curve(0, 1))

# Rules are called through module names so that rebinding a rule (as a
# tracer does) reaches every row.  Earlier rows win where shapes overlap.
PRODUCTS = (
    ProductRule(
        "U^j * U^k",
        lambda a, b: a.slope is None and b.slope is None,
        lambda a, b, flavor: _times_u_power(a, b),
    ),
    ProductRule(
        "U^k * (r,s) and (r,s) * U^k",
        lambda a, b: (a.slope is None or b.slope is None) and _one_u(a, b),
        lambda a, b, flavor: single(
            SURFACE, "that", shifted(b, a) if a.slope is None else shifted(a, b)
        ),
    ),
    ProductRule(
        "(1,0) * (n,2)",
        lambda a, b: a == T10 and _is_slope(b, 2) and b.periph == (0,),
        lambda a, b, flavor: mul_t10_tn2(b.slope.r),
    ),
    ProductRule(
        "(n,1) * (0,1) for n >= 0",
        lambda a, b: (
            _is_slope(a, 1) and a.slope.r >= 0 and a.periph == (0,) and b == T01
        ),
        lambda a, b, flavor: mul_tn1_t01(a.slope.r),
    ),
    ProductRule(
        "(r,s) * (u,v) meeting once",
        _meets_once,
        lambda a, b, flavor: dress(mul_once(a, b.slope), b),
    ),
    ProductRule(
        "(1,0) * (k,0)",
        lambda a, b: a.slope == T10.slope and _is_slope(b, 0) and _one_u(a, b),
        lambda a, b, flavor: instantiate(
            SURFACE, _x_times(THAT, b.slope.d), T10.slope, THAT, shifted(a, b)
        ),
    ),
)


def product(a: PTorusLabel, b: PTorusLabel) -> SkeinElement:
    """The product of two labels, by the first row of ``PRODUCTS`` that
    matches them; ``NoProductRuleError`` when none does."""
    return route(PRODUCTS, a, b, "that", "punctured torus")


def mul_by_t10(elem: SkeinElement) -> SkeinElement:
    """Left-multiply a type-one-flavor element by the (1,0) label, term by
    term through ``product``."""
    return left_multiply("mul_by_t10", SURFACE, "that", T10, elem, product)


def two_way_expansion(n: int) -> Iterator[tuple[SkeinElement, SkeinElement]]:
    """Expand (1,0) * ((k,1) * (0,1)) both ways, for k = 1..n in turn.

    Way one resolves (1,0)*(k,1) first; way two multiplies (1,0) into the
    expanded (k,1)*(0,1).  Associativity makes the two elements equal, and
    checking that equality mechanizes the induction step behind the
    product family.  The pairs are made lazily from a window of three
    products, so each product is built once and only the window is kept.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def pairs():
        below, at = mul_tn1_t01(0), mul_tn1_t01(1)
        for k in range(1, n + 1):
            above = mul_tn1_t01(k + 1)
            left = combine(SURFACE, "that", [(above, q_power(1)), (below, q_power(-1))])
            yield left, mul_by_t10(at)
            below, at = at, above

    return pairs()


# Checks look their rules up at call time, so that a rebound rule reaches them.


def _g_closed_check(n_max: int) -> CheckReport:
    bad = [n for n, g in enumerate(g_recursive(n_max)) if g != g_closed(n)]
    verdict = f"mismatches at {bad}" if bad else "all equal"
    summary = f"g-closed vs recursion, n <= {n_max}: {verdict}"
    return CheckReport("g-closed", n_max, summary, bad)


def _consistency_check(n_max: int) -> CheckReport:
    pairs = enumerate(two_way_expansion(n_max), start=1)
    bad = [n for n, pair in pairs if n >= 2 and ne(*pair)]
    verdict = f"mismatches at {bad}" if bad else "consistent"
    summary = f"two-way (1,0)-expansion, 2 <= n <= {n_max}: {verdict}"
    return CheckReport("consistency", n_max, summary, bad)


CHECKS = {
    # G_0 = G_1 = 0 seed the recursion; n = 2 is the first index it computes.
    "g-closed": Check(2, _g_closed_check),
    "consistency": Check(2, _consistency_check),
}


def upper_bound_extract(P: PolySeq, n: int) -> tuple[int, SkeinElement]:
    """Rewrite (n,1)*(0,1) in flavor P and return its lowest q-layer.

    P must be normalized with q-free integer coefficients and P_1 = x, so
    the two input labels mean the curves themselves.  The result element
    carries integer coefficients (one q-layer of the product).
    """
    if P.poly(1) != X:
        raise ValueError(f"sequence {P.name!r} does not have P_1 = x")
    for k in range(n + 1):
        for c in P.poly(k).coeffs:
            if not c.is_zero and c.q_degree_range() != (0, 0):
                raise ValueError(
                    f"sequence {P.name!r} has q-dependent coefficients at "
                    f"degree {k}"
                )
    return lowest_q_layer(convert(mul_tn1_t01(n), P, THAT))


def element_from_json(obj: dict) -> SkeinElement:
    return elements.element_from_json(obj, SURFACE, PTorusLabel, "that")
