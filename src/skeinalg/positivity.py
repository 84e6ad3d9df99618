"""Bounded certification of positivity properties of twisted bases.

Everything here is desk scale: verdicts are always "up to the stated
bound", never unqualified statements about whole sequences.

``torus_uniqueness`` perturbs the normalized type-one sequence one level
at a time (lower levels already pinned) and shows every nonzero integer
perturbation inside the coefficient box breaks positivity of some witness
product on the closed torus.  Two product families suffice and are both
used: the pair (k,1)*(0,1), whose low term re-expands the type-one entry
over the perturbed basis and so flags positive perturbation components,
and the pair (k,0)*(0,1), whose left factor *is* the perturbed entry on a
curve and so flags negative components.  The annulus products
(1,0)*(k-1,0) and (2,0)*(k-2,0) of parallel curves, whose terms have
determinant 0, are also checked.  Every kind is keyed by label.

Every witness coefficient is affine in the perturbation, so each level
builds its *witness forms* once, from the products at T̂ and at the unit
perturbations, and decides each perturbation of the box by evaluating
them, T̂ itself at δ = 0.  The products (``_uniqueness_witnesses``) stay
the reference: they replay recorded witnesses and re-check every
perturbation the forms let through before it is reported as unkilled.

``lower_bound_certify`` runs the sphere-side argument: expanding
P_n(a) * b over the proved product family puts each type-one expansion
coefficient of P_n on its own primitive (i,1) label, so positivity of the
product forces those coefficients positive.

``sandwich_check`` is the necessary condition on any positivity
candidate: the normalized type-one sequence below, the type-two sequence
above, in the bounded sequence order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .curves import curve
from .elements import combine, single
from .laurent import ZERO, Laurent, q_power
from .polyseq import (
    CHEB_S,
    THAT,
    Poly1,
    PolySeq,
    SeqLeqResult,
    X,
    expand_in,
    seq_leq,
)
from .reports import PositivityReport, Witness
from .skein_s04 import S04Label, mul_tna_b
from .skein_s04 import SURFACE as S04_SURFACE
from .skein_torus import EMPTY, TorusLabel, structure_constants, tlabel

__all__ = [
    "perturbed_that",
    "KilledPerturbation",
    "UniquenessLevel",
    "UniquenessReport",
    "torus_uniqueness",
    "replay_uniqueness_witness",
    "lower_bound_certify",
    "SandwichReport",
    "sandwich_check",
]


def perturbed_that(level: int, deltas: tuple[int, ...]) -> PolySeq:
    """The type-one sequence with one entry perturbed.

    Entry ``level`` becomes the type-one entry plus
    sum(deltas[i] * type-one entry i) for i < level.  Entries below it are
    T̂'s own, and none above it is defined.  The result is still normalized.
    Nothing is computed until an entry is read: the level entry is summed
    on its first read.
    """
    if level < 2:
        raise ValueError("perturbation level must be at least 2")
    if len(deltas) != level:
        raise ValueError(f"need {level} perturbation coefficients")
    name = f"that-pert{level}[{','.join(str(d) for d in deltas)}]"

    def rule(n: int, prev: list[Poly1]) -> Poly1:
        if n < level:
            return THAT.poly(n)
        p = THAT.poly(level)
        for i, d in enumerate(deltas):
            if d:
                p = p + THAT.poly(i).scaled(d)
        return p

    return PolySeq(name, rule, max_n=level)


def _witness_values(P: PolySeq, level: int):
    """Yield (kind, pairs) for the five witness products of one perturbation
    level, in kind order, each computed when it is reached: a torus
    structure constant read in P, as (label, coefficient) in ``sort_key``
    order.  At k = 2 the annulus-2 factor (0,0) is the empty label."""
    k, y = level, tlabel(0, 1)
    for kind, a, b in (
        ("level-product", tlabel(k, 1), y),
        ("input-product", tlabel(k, 0), y),
        ("base-product", tlabel(2, 1), y),
        ("annulus-1", tlabel(1, 0), tlabel(k - 1, 0)),
        ("annulus-2", tlabel(2, 0), tlabel(k - 2, 0) if k > 2 else EMPTY),
    ):
        yield kind, structure_constants(P, a, b).items()


def _first_witnesses(values, q1: bool):
    """Yield (kind, offending label, coefficient) for each kind of
    ``values`` that has a coefficient that is not positive: its first."""
    for kind, pairs in values:
        bad = next(((label, c) for label, c in pairs if not c.is_positive(q1)), None)
        if bad is not None:
            yield kind, bad[0].text(), bad[1]


def _uniqueness_witnesses(P: PolySeq, level: int, q1: bool):
    """The reference path: the witness products of one perturbation level
    computed in P, first violation per kind."""
    return _first_witnesses(_witness_values(P, level), q1)


def _witness_forms(level: int, units: list[PolySeq]):
    """Each witness kind's coefficients at one level as affine forms in the
    perturbation δ, from the reference values at T̂ and at the unit
    perturbations ``units[i]`` = e_i.

    Returns [(kind, terms)] in kind order; ``terms`` lists (label, c0,
    partials) in ``sort_key`` order, where c0 is the coefficient at T̂ and
    ``partials`` the nonzero (i, c_i) with c_i = W(e_i) - W(0).
    """
    forms = []
    for (kind, pairs), *at_units in zip(
        _witness_values(THAT, level), *(_witness_values(P, level) for P in units)
    ):
        w0 = dict(pairs)
        ws = [dict(unit_pairs) for _, unit_pairs in at_units]
        terms = []
        for label in sorted(set(w0).union(*ws), key=TorusLabel.sort_key):
            c0 = w0.get(label, ZERO)
            diffs = ((i, w.get(label, ZERO) - c0) for i, w in enumerate(ws))
            terms.append((label, c0, [(i, ci) for i, ci in diffs if ci]))
        forms.append((kind, terms))
    return forms


def _form_values(forms, deltas: tuple[int, ...]):
    """Yield (kind, pairs) as ``_witness_values`` does, evaluated from the
    forms at δ: each coefficient is c0 + sum(δ_i * c_i)."""

    def value(c0: Laurent, partials) -> Laurent:
        for i, ci in partials:
            if deltas[i]:
                c0 = c0 + ci * deltas[i]
        return c0

    for kind, terms in forms:
        yield kind, ((label, value(c0, partials)) for label, c0, partials in terms)


@dataclass(frozen=True)
class KilledPerturbation:
    level: int
    deltas: tuple[int, ...]
    witness_kind: str
    label: str
    coeff: Laurent


@dataclass
class UniquenessLevel:
    level: int
    n_perturbations: int
    killed: list[KilledPerturbation]
    unkilled: list[tuple[int, ...]]

    @property
    def all_killed(self) -> bool:
        return not self.unkilled


@dataclass
class UniquenessReport:
    n_max: int
    coeff_box: int
    q1: bool
    levels: list[UniquenessLevel] = field(default_factory=list)
    t_hat_clean: bool = True

    @property
    def certified(self) -> bool:
        return self.t_hat_clean and all(lv.all_killed for lv in self.levels)

    @property
    def verdict(self) -> str:
        return "certified-unique-up-to-bound" if self.certified else "not-certified"

    def to_json_obj(self) -> dict:
        return {
            "surface": "t10",
            "n_max": self.n_max,
            "coeff_box": self.coeff_box,
            "q1": self.q1,
            "t_hat_clean": self.t_hat_clean,
            "verdict": self.verdict,
            "levels": [
                {
                    "level": lv.level,
                    "n_perturbations": lv.n_perturbations,
                    "all_killed": lv.all_killed,
                    "unkilled": [list(d) for d in lv.unkilled],
                }
                for lv in self.levels
            ],
        }


def torus_uniqueness(n_max: int, coeff_box: int, *, q1: bool = False) -> UniquenessReport:
    """Certify, level by level, that within the coefficient box only the
    unperturbed type-one sequence keeps all witness products positive.

    Levels run from 2 to n_max; at each level every nonzero integer
    perturbation vector with entries in [-coeff_box, coeff_box] must break
    some witness product.  The unperturbed sequence must break none (the
    sanity half of the verdict); the forms at δ = 0 decide it, since their
    values there are the witness products computed in T̂.

    Each perturbation δ is decided by the level's witness forms, which are
    exact: every witness coefficient is affine in δ.  Only the level-k
    entry P_k = T̂_k + sum(δ_i T̂_i) differs from T̂, and both readings that
    involve it are affine in δ: a factor read from P_k into T̂, and a
    product term read back onto P_k through T̂_k = P_k - sum(δ_i T̂_i).
    The product between the two readings is bilinear.  In each kind at
    most one of the two readings involves P_k:
    - the input product reads its factor (k,0) from P_k, and its terms
      (k,1) and (k,-1) are primitive, so their read-back is T̂'s own;
    - every other kind multiplies factors of multiplicity below k, whose
      reading is T̂'s own, so only its read-back touches P_k.  The one
      exception is (2,0)*1 at k = 2, which reads (2,0) from P_2 and back
      onto it; that round trip is the identity for every δ.
    So W(δ) = W(0) + sum(δ_i (W(e_i) - W(0))) holds exactly.

    The first coefficient that is not positive, in kind order and then
    label order, kills δ, as on the reference path.  A δ the forms let
    through is re-checked on the reference path before it is reported as
    unkilled.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if coeff_box < 1:
        raise ValueError("coeff_box must be at least 1")
    report = UniquenessReport(n_max=n_max, coeff_box=coeff_box, q1=q1)
    for level in range(2, n_max + 1):
        # The unit perturbations e_i build the forms and are reused when
        # the enumeration reaches them.
        units = {}
        for i in range(level):
            e = tuple(int(j == i) for j in range(level))
            units[e] = perturbed_that(level, e)
        forms = _witness_forms(level, list(units.values()))
        if next(_first_witnesses(_form_values(forms, (0,) * level), q1), None):
            report.t_hat_clean = False
        killed: list[KilledPerturbation] = []
        unkilled: list[tuple[int, ...]] = []
        for deltas in itertools.product(
            range(-coeff_box, coeff_box + 1), repeat=level
        ):
            if not any(deltas):
                continue
            P = units[deltas] if deltas in units else perturbed_that(level, deltas)
            hit = next(_first_witnesses(_form_values(forms, deltas), q1), None)
            if hit is not None:
                killed.append(KilledPerturbation(level, deltas, *hit))
                continue
            missed = next(_uniqueness_witnesses(P, level, q1), None)
            if missed is not None:
                raise AssertionError(
                    f"witness forms at level {level} let {deltas} through, "
                    f"but the {missed[0]} kills it"
                )
            unkilled.append(deltas)
        n_perturbations = len(killed) + len(unkilled)
        report.levels.append(UniquenessLevel(level, n_perturbations, killed, unkilled))
    return report


def replay_uniqueness_witness(record: KilledPerturbation, *, q1: bool = False) -> bool:
    """Re-run the recorded witness product and confirm the same offending
    coefficient appears on the same label."""
    P = perturbed_that(record.level, record.deltas)
    for kind, label, coeff in _uniqueness_witnesses(P, record.level, q1):
        if kind == record.witness_kind:
            return label == record.label and coeff == record.coeff
    return False


def lower_bound_certify(P: PolySeq, n_max: int) -> PositivityReport:
    """Certify the lower-bound direction on the four-punctured sphere.

    For 2 <= n <= n_max, P_n(a) * b is assembled from the proved product
    family via the type-one expansion of P_n; the coefficient of each
    primitive (i,1) label is q^(2i) (resp. q^(-2i)) times the i-th
    expansion coefficient, so all of them must be positive.
    """
    if P.poly(1) != X:
        raise ValueError(f"sequence {P.name!r} does not have P_1 = x")
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    # P_n(a) * b sums these: b at index 0, then T_i(a) * b, each built once.
    products = [single(S04_SURFACE, "that", S04Label(curve(0, 1)))]
    products += [mul_tna_b(i) for i in range(1, n_max + 1)]
    witnesses: list[Witness] = []
    for n in range(2, n_max + 1):
        coeffs = expand_in(P.poly(n), THAT)
        parts = [(products[i], c) for i, c in enumerate(coeffs) if not c.is_zero]
        elem = combine(S04_SURFACE, "that", parts)
        for i in range(0, n + 1):
            lab = S04Label(curve(i, 1))
            got = elem.coeff(lab)
            want = coeffs[i] * (q_power(2 * i) if i else Laurent.coerce(1))
            if got != want:
                raise AssertionError(
                    f"product readoff mismatch at n={n}, i={i}: {got} vs {want}"
                )
            if not coeffs[i].is_positive():
                witnesses.append(
                    Witness(
                        (f"P_{n}(a)", "b"),
                        lab.text(),
                        got,
                        note=f"type-one expansion coefficient {i} of P_{n}",
                    )
                )
    return PositivityReport(S04_SURFACE, P.name, n_max, witnesses)


@dataclass
class SandwichReport:
    sequence: str
    n_max: int
    lower: SeqLeqResult
    upper: SeqLeqResult

    @property
    def passed(self) -> bool:
        return self.lower.holds and self.upper.holds

    def to_json_obj(self) -> dict:
        return {
            "sequence": self.sequence,
            "n_max": self.n_max,
            "lower": self.lower.to_json_obj(),
            "upper": self.upper.to_json_obj(),
            "passed": self.passed,
        }


def sandwich_check(P: PolySeq, n_max: int, *, q1: bool = False) -> SandwichReport:
    """Necessary condition for positivity: the type-one sequence is below P
    and P is below the type-two sequence, up to n_max."""
    lower = seq_leq(THAT, P, n_max, q1=q1)
    upper = seq_leq(P, CHEB_S, n_max, q1=q1)
    return SandwichReport(P.name, n_max, lower, upper)
