"""Partial multiplication on the four-punctured sphere.

Labels pair an optional slope with a vector of exponents of the four
central peripheral curves g1..g4.  In the product flavors ``s`` and
``that`` the slope part of a label is read in the flavor (degree-d entry
of the sequence on the primitive curve) and peripheral exponents are plain
monomial powers.  Since the peripheral curves are central and generate a
polynomial subalgebra, slope labels dressed with peripheral monomials
still form a free module basis, and all identities below are exact in it.

``product`` multiplies two labels by the first row of ``PRODUCTS`` that
holds in the flavor and matches them; other pairs raise
``NoProductRuleError``.  Every row multiplies the two slopes and adds the
exponents of both factors to its output with ``dress`` or ``shifted``.

  * both flavors: gi^k against any label; (1,0)*(k,0), one-variable
    multiplication on (1,0); and (1,0)*(n,1), whose resolution gives two
    shifted terms plus a parity-dependent peripheral constant c_n.
  * type-one flavor: (n,0)*(0,1) in closed form, with quantum-integer
    corrections; iterating (1,0)*(n,1) checks it.
  * type-two flavor: the mixed products (1,0)*(m,2) and the tower
    (n,1)*(0,1), whose peripheral corrections are the double sums g_n and
    a remainder h_n defined operationally as whatever is left after the
    two leading slope terms and g_n are subtracted.

The half twist sigma acts on slopes by (r,s) -> (r+s,s) and swaps the
first two punctures; it transports each identity to the next index.

``CHECKS`` checks, up to a bound, the remainder bounds of the tower, the
type-one power against its recurrence and the half-twist transport, and
observes the signs of the remainders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .curves import CurveClass, curve, sigma
from . import elements
from .elements import (
    ProductRule,
    SkeinElement,
    _MONOMIAL_PERIPHERALS,
    _is_slope,
    apply_mcg,
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
from .laurent import Laurent, ONE, const, q_power, quantum_int
from .polyseq import (
    CHEB_S,
    MONOMIAL,
    Poly1,
    PolySeq,
    X,
    _x_times,
    builtin_sequence,
    expand_in,
)
from .reports import Check, CheckReport

__all__ = [
    "SURFACE",
    "S04Label",
    "S04_EMPTY",
    "slabel",
    "c_element",
    "gamma_pair_ab",
    "gamma_quad",
    "mul_a_bn",
    "mul_tna_b",
    "mul_by_a",
    "tna_b_by_recurrence",
    "mul_s10_sm2",
    "mul_by_s10",
    "g_s04_closed",
    "mul_sn1_s01",
    "PRODUCTS",
    "product",
    "lowest_q_term_s04",
    "extract_lowest_s04",
    "h_part",
    "CHECKS",
    "ForcingReport",
    "p1_forcing_witness",
    "element_from_json",
]

SURFACE = "s04"

# The sphere is the torus modulo -I, and its punctures are the four points of
# order 2.  A matrix moves g1, g2, g3, the half-periods of parity (0,1), (1,1),
# (1,0), as it moves their classes mod 2, and fixes g4, the origin: the
# mapping classes fixing one puncture are PSL(2,Z).
S04Label = label_type(
    "S04Label", ("g1", "g2", "g3", "g4"), "g", ((0, 1), (1, 1), (1, 0), None)
)
S04_EMPTY = S04Label()


def slabel(
    r: int | None = None, s: int | None = None, g: tuple[int, ...] = (0, 0, 0, 0)
) -> S04Label:
    slope = None if r is None else curve(r, s)
    return S04Label(slope, g)


def c_element(
    n: int, flavor: str = "s", slope: CurveClass | None = None
) -> SkeinElement:
    """The peripheral constant c_n times the label of ``slope`` (by default
    the empty one): g1*g3 + g2*g4 for even n, g1*g4 + g2*g3 for odd n.  The
    half twist swaps the two."""
    if n % 2 == 0:
        pairs = [(1, 0, 1, 0), (0, 1, 0, 1)]
    else:
        pairs = [(1, 0, 0, 1), (0, 1, 1, 0)]
    return SkeinElement(SURFACE, flavor, [(S04Label(slope, g), ONE) for g in pairs])


def gamma_pair_ab() -> SkeinElement:
    """g1*g2 + g3*g4 in the type-two flavor; fixed by the half twist."""
    return SkeinElement(
        SURFACE,
        "s",
        [(S04Label(None, (1, 1, 0, 0)), ONE), (S04Label(None, (0, 0, 1, 1)), ONE)],
    )


def gamma_quad() -> SkeinElement:
    """g1*g2*g3*g4 + g1^2 + g2^2 + g3^2 + g4^2 - 2 in the type-two flavor."""
    terms = [(S04Label(None, (1, 1, 1, 1)), ONE)]
    for i in range(4):
        g = [0, 0, 0, 0]
        g[i] = 2
        terms.append((S04Label(None, tuple(g)), ONE))
    terms.append((S04_EMPTY, const(-2)))
    return SkeinElement(SURFACE, "s", terms)


def _pair(flavor: str, plus: CurveClass, minus: CurveClass, e: int) -> SkeinElement:
    return q_pair(SURFACE, flavor, S04Label(plus), S04Label(minus), e)


# -- the (1,0)-against-(n,1) family (type-one flavor) -------------------------


def mul_a_bn(n: int, flavor: str = "that") -> SkeinElement:
    """(1,0) * (n,1): two shifted terms plus the parity constant,

        q^2 (n+1,1) + q^-2 (n-1,1) + c_n.

    Every label involved is a primitive curve or a peripheral monomial, so
    the identity reads the same in any normalized flavor; ``flavor`` only
    tags the output.
    """
    return _pair(flavor, curve(n + 1, 1), curve(n - 1, 1), 2) + c_element(n, flavor)


def mul_tna_b(n: int) -> SkeinElement:
    """Type-one power of (1,0) against (0,1), in closed form:

        q^2n (n,1) + q^-2n (-n,1) + c_0 f_n + c_1 g_n,

    where f_n (resp. g_n) collects quantum integers [i] against the
    type-one entries of degree n - i over odd (resp. even) i.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return single(SURFACE, "that", S04Label(curve(0, 1)), 2)
    parts = [(_pair("that", curve(n, 1), curve(-n, 1), 2 * n), 1)]
    for i in range(1, n + 1):
        power = None if i == n else curve(n - i, 0)
        parts.append((c_element(0 if i % 2 else 1, "that", power), quantum_int(i)))
    return combine(SURFACE, "that", parts)


# -- the type-two tower on (n,1)*(0,1) ----------------------------------------


def tna_b_by_recurrence(n: int) -> list[SkeinElement]:
    """Oracle route for ``mul_tna_b``, at indices 0..n: expand the type-one
    powers through T_k = x T_{k-1} - T_{k-2} and repeated left
    multiplication by (1,0), never touching the closed form."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    powers = [single(SURFACE, "that", S04Label(curve(0, 1)), 2), mul_a_bn(0, "that")]
    for k in range(2, n + 1):
        powers.append(mul_by_a(powers[k - 1]) - powers[k - 2])
    return powers[: n + 1]


def mul_s10_sm2(m: int) -> SkeinElement:
    """(1,0) * (m,2) in the type-two flavor.

    Both parities shift the slope by q^(+-4); the peripheral correction is
    c_k (m = 2k even) or the pair q^2 c_k, q^-2 c_(k+1) (m = 2k+1 odd),
    together with a fixed constant block.  The whole family is the half
    twist transport of the two base cases m = 0, 1, which fixes the
    constant blocks and steps the c-parity with k.
    """
    k = m // 2
    parts = [(_pair("s", curve(m + 1, 2), curve(m - 1, 2), 4), 1)]
    if m % 2 == 0:
        parts += [
            (c_element(k, "s", curve(k, 1)), 1),
            (single(SURFACE, "s", S04Label(curve(1, 0))), 1),
            (gamma_pair_ab(), q_power(2) + q_power(-2)),
        ]
    else:
        parts += [
            (c_element(k, "s", curve(k + 1, 1)), q_power(2)),
            (c_element(k + 1, "s", curve(k, 1)), q_power(-2)),
            (gamma_quad(), 1),
        ]
    return combine(SURFACE, "s", parts)


def g_s04_closed(n: int) -> SkeinElement:
    """The peripheral-correction block of (n,1)*(0,1) in closed form:

        sum over 1 <= i <= n//2 of q^(4i-2) * sum over i <= j <= n-i of
        c_(n-j+1) * (j,1),

    zero for n <= 1.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    return combine(
        SURFACE,
        "s",
        (
            (c_element(n - j + 1, "s", curve(j, 1)), q_power(4 * i - 2))
            for i in range(1, n // 2 + 1)
            for j in range(i, n - i + 1)
        ),
    )


def mul_sn1_s01(n: int) -> list[SkeinElement]:
    """The products (k,1) * (0,1) in the type-two flavor, for k = 0..n,

        q^2k (k,2) + q^-2k (k,0) + g_k + h_k,

    where g_k is the closed-form correction block and h_k (``h_part``) is
    defined operationally as the rest.  Base cases are the one-variable
    square at k = 0 and the two-crossing resolution at k = 1; higher k
    comes from the recursion

        full(k) = q^-2 (1,0)*full(k-1) - q^-4 full(k-2) - q^-2 c_(k-1)*(0,1).

    The list is built upward, so large n costs no call depth.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    products = [
        instantiate(SURFACE, expand_in(X * X, CHEB_S), curve(0, 1), CHEB_S, S04_EMPTY),
        _pair("s", curve(1, 2), curve(1, 0), 2) + gamma_pair_ab(),
    ]
    for k in range(2, n + 1):
        parts = [
            (mul_by_s10(products[k - 1]), q_power(-2)),
            (products[k - 2], -q_power(-4)),
            (c_element(k - 1, "s", curve(0, 1)), -q_power(-2)),
        ]
        products.append(combine(SURFACE, "s", parts))
    return products[: n + 1]


def h_part(n: int) -> list[SkeinElement]:
    """The remainders h_0..h_n of (k,1) * (0,1): each product minus its two
    leading slope terms and g_k; zero at k = 0."""
    remainders = [SkeinElement(SURFACE, "s")]
    for k, full in enumerate(mul_sn1_s01(n)[1:], start=1):
        leading = _pair("s", curve(k, 2), curve(k, 0), 2 * k)
        remainders.append(
            combine(SURFACE, "s", [(full, 1), (leading, -1), (g_s04_closed(k), -1)])
        )
    return remainders


def lowest_q_term_s04(n: int) -> list[tuple[int, SkeinElement]]:
    """Lowest q-layers of (k,1)*(0,1) for k = 1..n; the layer at k equals
    (-2k, the (k,0) label) for every supported k."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [lowest_q_layer(full) for full in mul_sn1_s01(n)[1:]]


def extract_lowest_s04(n: int) -> tuple[int, SkeinElement, bool]:
    """The last entry of ``lowest_q_term_s04(n)``, read off the n-th product
    alone, and whether it is q^-2n times (n,0)."""
    if n < 1:
        raise ValueError("need n >= 1")
    low, elem = lowest_q_layer(mul_sn1_s01(n)[n])
    want = single(SURFACE, "s", S04Label(curve(n, 0)))
    return low, elem, low == -2 * n and elem == want


# -- the product table ---------------------------------------------------------


def _times_power_of_10(a: S04Label, b: S04Label, flavor: str) -> SkeinElement:
    """a * b for a of slope (1,0) and b of slope (k,0), by one-variable
    multiplication in the flavor's sequence on (1,0): its three-term rule."""
    seq = builtin_sequence(flavor)
    return instantiate(SURFACE, _x_times(seq, b.slope.d), S10.slope, seq, shifted(a, b))


S10 = S04Label(curve(1, 0))
S01 = S04Label(curve(0, 1))
_PRODUCT_FLAVORS = _MONOMIAL_PERIPHERALS[SURFACE]  # "s" and "that"

# Rules are called through module names so that rebinding a rule (as a
# tracer does) reaches every row.  Earlier rows win where shapes overlap:
# (1,0)*(0,1) in the type-one flavor must take the (1,0)*(n,1) row, so that
# ``tna_b_by_recurrence`` never reaches ``mul_tna_b``, the closed form it
# checks.
PRODUCTS = (
    ProductRule(
        "gi^k * label and label * gi^k",
        lambda a, b: a.slope is None or b.slope is None,
        lambda a, b, flavor: single(
            SURFACE, flavor, shifted(b, a) if a.slope is None else shifted(a, b)
        ),
        _PRODUCT_FLAVORS,
    ),
    ProductRule(
        "(1,0) * (m,2)",
        lambda a, b: a.slope == S10.slope and _is_slope(b, 2),
        lambda a, b, flavor: dress(mul_s10_sm2(b.slope.r), a, b),
        ("s",),
    ),
    ProductRule(
        "(1,0) * (n,1)",
        lambda a, b: a.slope == S10.slope and _is_slope(b, 1),
        lambda a, b, flavor: dress(mul_a_bn(b.slope.r, flavor), a, b),
        _PRODUCT_FLAVORS,
    ),
    ProductRule(
        "(1,0) * (k,0)",
        lambda a, b: a.slope == S10.slope and _is_slope(b, 0),
        lambda a, b, flavor: _times_power_of_10(a, b, flavor),
        _PRODUCT_FLAVORS,
    ),
    ProductRule(
        "(n,1) * (0,1) for n >= 0",
        lambda a, b: _is_slope(a, 1) and a.slope.r >= 0 and b.slope == S01.slope,
        lambda a, b, flavor: dress(mul_sn1_s01(a.slope.r)[-1], a, b),
        ("s",),
    ),
    ProductRule(
        "(n,0) * (0,1)",
        lambda a, b: _is_slope(a, 0) and b.slope == S01.slope,
        lambda a, b, flavor: dress(mul_tna_b(a.slope.r), a, b),
    ),
)


def product(a: S04Label, b: S04Label, flavor: str = "s") -> SkeinElement:
    """The product of two labels read in ``flavor`` ('s' or 'that'), by the
    first row of ``PRODUCTS`` that matches them; ``NoProductRuleError``
    when none does."""
    return route(PRODUCTS, a, b, flavor, "sphere")


def mul_by_a(elem: SkeinElement) -> SkeinElement:
    """Left-multiply a type-one-flavor element by the (1,0) label, term by
    term through ``product``."""
    return left_multiply("mul_by_a", SURFACE, "that", S10, elem, product, "that")


def mul_by_s10(elem: SkeinElement) -> SkeinElement:
    """Left-multiply a type-two-flavor element by the (1,0) label, term by
    term through ``product``."""
    return left_multiply("mul_by_s10", SURFACE, "s", S10, elem, product, "s")


# -- the check table -----------------------------------------------------------
# Checks look their rules up at call time, so that a rebound rule reaches them.


def _h_bounds_check(n_max: int) -> CheckReport:
    """No remainder label has a (k,1) or (k,2) slope, and every remainder
    coefficient has q-degrees within -2n+2 .. 2n-2."""
    failures = []
    for n, h in enumerate(h_part(n_max)[1:], start=1):
        for label, c in h.items():
            if label.slope is not None and label.slope.s in (1, 2):
                failures.append({"n": n, "label": label.text(), "reason": "label"})
            rng = c.q_degree_range()
            if rng is not None and (rng[0] < -2 * n + 2 or rng[1] > 2 * n - 2):
                failures.append({"n": n, "label": label.text(), "reason": "q-range"})
    verdict = f"{len(failures)} failures" if failures else "within bounds"
    summary = f"remainder structure, 1 <= n <= {n_max}: {verdict}"
    return CheckReport("h-bounds", n_max, summary, failures)


def _tna_b_check(n_max: int) -> CheckReport:
    powers = tna_b_by_recurrence(n_max)
    bad = [n for n, power in enumerate(powers) if mul_tna_b(n) != power]
    verdict = f"mismatches at {bad}" if bad else "all equal"
    summary = f"closed form vs recurrence, n <= {n_max}: {verdict}"
    return CheckReport("tna-b", n_max, summary, bad)


def _sigma_check(n_max: int) -> CheckReport:
    span, t = range(-n_max, n_max), sigma()
    a_bn = [n for n in span if apply_mcg(mul_a_bn(n, "s"), t) != mul_a_bn(n + 1, "s")]
    s10_m2 = [m for m in span if apply_mcg(mul_s10_sm2(m), t) != mul_s10_sm2(m + 2)]
    bad = [("a-bn", n) for n in a_bn] + [("s10-m2", m) for m in s10_m2]
    verdict = f"mismatches {bad}" if bad else "equivariant"
    summary = f"half-twist transport, |n| <= {n_max}: {verdict}"
    return CheckReport("sigma", n_max, summary, bad)


def _h_positive_check(n_max: int) -> CheckReport:
    """Observations only, never a failure."""
    summary = "remainder positivity observations (monomial peripheral coordinates), "
    summary += f"1 <= n <= {n_max}:"
    rows = []
    for n, h in enumerate(h_part(n_max)[1:], start=1):
        positive = all(c.is_positive() for _, c in h.items())
        rows.append({"n": n, "all_positive": positive})
        verdict = "positive" if positive else "has negative coefficients"
        summary += f"\nn={n}: {verdict}"
    return CheckReport("h-positive", n_max, summary, observations=rows)


CHECKS = {
    "h-bounds": Check(1, _h_bounds_check),
    # At n = 0 both sides are the seed 2*(0,1).
    "tna-b": Check(1, _tna_b_check),
    "sigma": Check(1, _sigma_check),
    "h-positive": Check(1, _h_positive_check),
}


# -- forcing the linear entry of a positive sequence ---------------------------


@dataclass
class ForcingReport:
    """Outcome of perturbing the linear entry of a candidate sequence.

    Expanding the product of the perturbed entries on the (1,0) and (0,1)
    curves in the candidate basis puts -delta on each single peripheral
    label and +delta on each of the two curve labels, so one side always
    leaves the positive part.
    """

    delta: int
    element: SkeinElement
    gamma_label: ClassVar[S04Label] = S04Label(None, (1, 0, 0, 0))
    slope_label: ClassVar[S04Label] = S10

    @property
    def gamma_coeff(self) -> Laurent:
        return self.element.coeff(self.gamma_label)

    @property
    def slope_coeff(self) -> Laurent:
        return self.element.coeff(self.slope_label)

    @property
    def violations(self) -> list[tuple[S04Label, Laurent]]:
        return [(lab, c) for lab, c in self.element.items() if not c.is_positive()]

    def to_json_obj(self) -> dict:
        def term(lab: S04Label) -> dict:
            return {"label": lab.text(), "coeff": self.element.coeff(lab).to_json_obj()}

        return {
            "delta": self.delta,
            "gamma_witness": term(self.gamma_label),
            "slope_witness": term(self.slope_label),
            "violations": [term(lab) for lab, _ in self.violations],
            "element": self.element.to_json_obj(),
        }


def p1_forcing_witness(delta: int) -> ForcingReport:
    """Expand the product of the perturbed linear entries on the (1,0) and
    (0,1) curves in the perturbed basis, and report the sign obstruction.

    With linear entry x + delta, the basis expansion of the product puts
    -delta on the single peripheral labels and +delta on the two curve
    labels, so for any nonzero integer delta at least one coefficient has
    a negative entry.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    # (curve a + delta)(curve b + delta), written over plain multicurves,
    # then read in the perturbed basis 1, x + delta.
    linear = [(S10, delta), (S01, delta), (S04_EMPTY, delta * delta)]
    raw = mul_a_bn(0, "monomial") + SkeinElement(SURFACE, "monomial", linear)
    p1 = [Poly1.const(1), X + Poly1.const(delta)]
    elem = convert(raw, PolySeq.from_polys(f"p1[{delta}]", p1), MONOMIAL)
    report = ForcingReport(delta, elem)
    if not report.violations:
        raise AssertionError("a nonzero perturbation must violate positivity")
    return report


def element_from_json(obj: dict) -> SkeinElement:
    return elements.element_from_json(obj, SURFACE, S04Label, "s")
