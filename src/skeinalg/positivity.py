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
P_1 * P_(k-1) and P_2 * P_(k-2), which live in the one-variable
subalgebra of a regular neighborhood, are also checked.

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
from .laurent import Laurent, q_power
from .polyseq import (
    CHEB_S,
    THAT,
    PolySeq,
    SeqLeqResult,
    X,
    expand_in,
    seq_leq,
)
from .reports import VERDICT_POSITIVE, VERDICT_VIOLATION, PositivityReport, Witness
from .skein_s04 import S04Label, mul_tna_b
from .skein_s04 import SURFACE as S04_SURFACE
from .skein_torus import structure_constants, tlabel

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
    sum(deltas[i] * type-one entry i) for i < level; all other entries are
    untouched.  The result is still normalized.
    """
    if level < 2:
        raise ValueError("perturbation level must be at least 2")
    if len(deltas) != level:
        raise ValueError(f"need {level} perturbation coefficients")
    polys = [THAT.poly(i) for i in range(level + 1)]
    p = polys[level]
    for i, d in enumerate(deltas):
        if d:
            p = p + THAT.poly(i).scaled(d)
    polys[level] = p
    tag = ",".join(str(d) for d in deltas)
    return PolySeq.from_polys(f"that-pert{level}[{tag}]", polys)


def _first_bad(pairs, q1: bool) -> tuple[object, Laurent] | None:
    """The first (key, coefficient) pair whose coefficient is not positive."""
    return next(((key, c) for key, c in pairs if not c.is_positive(q1)), None)


def _uniqueness_witnesses(P: PolySeq, level: int, q1: bool):
    """Yield (kind, offending label, coefficient) for the witness products
    of one perturbation level, stopping at the first violation per kind."""
    k = level
    for kind, (r, s) in (
        ("level-product", (k, 1)),
        ("input-product", (k, 0)),
        ("base-product", (2, 1)),
    ):
        bad = _first_bad(structure_constants(P, tlabel(r, s), tlabel(0, 1)).items(), q1)
        if bad is not None:
            yield kind, bad[0].text(), bad[1]
    for kind, (i, j) in (("annulus-1", (1, k - 1)), ("annulus-2", (2, k - 2))):
        bad = _first_bad(enumerate(expand_in(P.poly(i) * P.poly(j), P)), q1)
        if bad is not None:
            yield kind, f"P_{bad[0]}", bad[1]


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
    some witness product.  The unperturbed sequence is also checked to
    break none (sanity half of the verdict).
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if coeff_box < 1:
        raise ValueError("coeff_box must be at least 1")
    report = UniquenessReport(n_max=n_max, coeff_box=coeff_box, q1=q1)
    for level in range(2, n_max + 1):
        if next(_uniqueness_witnesses(THAT, level, q1), None) is not None:
            report.t_hat_clean = False
    for level in range(2, n_max + 1):
        killed: list[KilledPerturbation] = []
        unkilled: list[tuple[int, ...]] = []
        count = 0
        for deltas in itertools.product(
            range(-coeff_box, coeff_box + 1), repeat=level
        ):
            if not any(deltas):
                continue
            count += 1
            P = perturbed_that(level, deltas)
            hit = next(_uniqueness_witnesses(P, level, q1), None)
            if hit is None:
                unkilled.append(deltas)
            else:
                kind, label, coeff = hit
                killed.append(KilledPerturbation(level, deltas, kind, label, coeff))
        report.levels.append(UniquenessLevel(level, count, killed, unkilled))
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
    verdict = VERDICT_POSITIVE if not witnesses else VERDICT_VIOLATION
    return PositivityReport(S04_SURFACE, P.name, n_max, verdict, witnesses)


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
