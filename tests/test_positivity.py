import dataclasses
import functools
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from skeinalg import cli, polyseq, positivity
from skeinalg.laurent import ONE, const
from skeinalg.polyseq import CHEB_S, MONOMIAL, THAT, Poly1, PolySeq
from skeinalg.positivity import (
    KilledPerturbation,
    lower_bound_certify,
    perturbed_that,
    replay_uniqueness_witness,
    sandwich_check,
    torus_uniqueness,
)
from skeinalg.skein_torus import (
    EMPTY,
    TorusLabel,
    positivity_scan,
    structure_constants,
    tlabel,
)

# SHA-256 of every killed record of torus_uniqueness(4, 2), which the CLI
# never prints: [level, deltas, witness kind, label, coefficient JSON] in
# enumeration order.  With and without q1 the same 772 perturbations are
# killed by the same witnesses.
GOLDEN_KILLED_4_2 = (772, "e3cdeaf45c5b98385e45f4f6ff36de7d824db60c013103b4e617be4fa5388edc")


def test_perturbed_sequence_shape():
    P = perturbed_that(2, (1, 0))
    assert P.poly(2) == CHEB_S.poly(2)  # x^2 - 2 + 1 = x^2 - 1
    assert P.poly(1) == THAT.poly(1)
    with pytest.raises(ValueError):
        perturbed_that(2, (1,))
    with pytest.raises(ValueError):
        perturbed_that(1, (1,))


def test_perturbed_that_shares_lower_entries_and_stops_at_level():
    P = perturbed_that(3, (2, 0, -1))
    assert P.name == "that-pert3[2,0,-1]"
    assert all(P.poly(i) is THAT.poly(i) for i in range(3))
    assert P.poly(3) == THAT.poly(3) + THAT.poly(0).scaled(2) - THAT.poly(2)
    with pytest.raises(ValueError, match="only defined up to n = 3"):
        P.poly(4)


def test_uniqueness_level2_box3_all_violated():
    report = torus_uniqueness(2, 3)
    assert report.certified
    assert report.t_hat_clean
    (level,) = report.levels
    assert level.n_perturbations == 48
    assert level.all_killed
    assert len(level.killed) == 48


def test_uniqueness_n4_box2_certified():
    report = torus_uniqueness(4, 2)
    assert report.certified


def test_uniqueness_desk_scale():
    report = torus_uniqueness(3, 3)
    assert report.certified
    assert [lv.n_perturbations for lv in report.levels] == [48, 342]


def test_uniqueness_monotone_in_box():
    assert torus_uniqueness(3, 3).certified
    assert torus_uniqueness(3, 2).certified
    assert torus_uniqueness(3, 1).certified


def test_uniqueness_q1():
    assert torus_uniqueness(3, 2, q1=True).certified


def test_uniqueness_witnesses_replay():
    report = torus_uniqueness(3, 2)
    for lv in report.levels:
        for record in lv.killed:
            assert replay_uniqueness_witness(record)


@pytest.mark.parametrize("q1", [False, True])
def test_uniqueness_killed_records_golden(q1):
    report = torus_uniqueness(4, 2, q1=q1)
    records = [
        [rec.level, list(rec.deltas), rec.witness_kind, rec.label, rec.coeff.to_json_obj()]
        for lv in report.levels
        for rec in lv.killed
    ]
    blob = json.dumps(records, separators=(",", ":")).encode()
    assert (len(records), hashlib.sha256(blob).hexdigest()) == GOLDEN_KILLED_4_2
    for lv in report.levels:
        for record in lv.killed:
            assert replay_uniqueness_witness(record, q1=q1)


def test_level_witness_expands_only_the_perturbed_entry(monkeypatch):
    # (5,1) * (0,1) = q^5 (5,2) + q^-5 (5,0) reads P_1 in the type-one flavor
    # and back, and T̂_5 over P.  Only the last is not an entry P shares with
    # T̂, so it is the one elimination a cold cache runs.
    P = perturbed_that(5, (1, -2, 0, 3, -1))
    calls = []
    expand_in = polyseq.expand_in

    def counting(p, basis):
        calls.append((p, basis))
        return expand_in(p, basis)

    monkeypatch.setattr(polyseq, "expand_in", counting)
    polyseq.expansion_coeffs.cache_clear()
    structure_constants(P, tlabel(5, 1), tlabel(0, 1))
    assert len(calls) == 1
    assert calls[0][0] == THAT.poly(5) and calls[0][1] is P


def test_uniqueness_covers_both_signs():
    # A purely negative perturbation is caught by the product whose input
    # carries the perturbed entry; a purely positive one by the re-expansion.
    report = torus_uniqueness(2, 1)
    kinds = {rec.deltas: rec.witness_kind for rec in report.levels[0].killed}
    assert kinds[(-1, 0)] == "level-product" or kinds[(-1, 0)] == "input-product"
    neg_only = [d for d in kinds if all(x <= 0 for x in d)]
    assert neg_only and all(kinds[d] == "input-product" for d in neg_only)


def test_lower_bound_certify_builtins():
    assert lower_bound_certify(CHEB_S, 12).passed
    assert lower_bound_certify(MONOMIAL, 12).passed


def test_lower_bound_certify_violation():
    bad = PolySeq.from_polys(
        "bad2", [THAT.poly(0), THAT.poly(1), Poly1([-3, 0, 1])]
    )
    report = lower_bound_certify(bad, 2)
    assert not report.passed
    w = report.witnesses[0]
    assert w.label == "(0,1)"
    assert w.coeff == const(-1)


def test_lower_bound_requires_linear_x():
    shifted = PolySeq.from_polys("sh", [Poly1([1]), Poly1([2, 1])])
    with pytest.raises(ValueError):
        lower_bound_certify(shifted, 1)


def test_sandwich_examples():
    assert sandwich_check(THAT, 20).passed
    assert sandwich_check(CHEB_S, 20).passed
    rep = sandwich_check(MONOMIAL, 20)
    assert not rep.passed
    assert rep.lower.holds
    assert rep.upper.witness == (2, 0, const(-1))


def test_sandwich_failure_implies_scan_violation():
    # The one builtin that fails the necessary condition also fails an
    # actual structure-constant scan at a small bound.
    n_fail = sandwich_check(MONOMIAL, 4).upper.witness[0]
    report = positivity_scan(MONOMIAL, 2 * n_fail)
    assert not report.passed


def test_scan_witnesses_replay():
    from skeinalg.elements import label_from_text
    from skeinalg.skein_torus import TorusLabel, structure_constants

    def label(text):
        return label_from_text(TorusLabel, text)[1]

    report = positivity_scan(CHEB_S, 2)
    for w in report.witnesses[:10]:
        a = label(w.inputs[0])
        b = label(w.inputs[1])
        prod = structure_constants(CHEB_S, a, b)
        assert prod.coeff(label(w.label)) == w.coeff


# -- witness forms against the reference enumeration ---------------------------


def reference_uniqueness(n_max: int, box: int, q1: bool):
    """Per level, (killed, unkilled) with every perturbation's witness
    products computed in its own perturbed sequence: the enumeration as it
    was before the witness forms."""
    levels = []
    for level in range(2, n_max + 1):
        killed, unkilled = [], []
        for deltas in itertools.product(range(-box, box + 1), repeat=level):
            if not any(deltas):
                continue
            P = perturbed_that(level, deltas)
            hit = next(positivity._uniqueness_witnesses(P, level, q1), None)
            if hit is None:
                unkilled.append(deltas)
            else:
                killed.append(KilledPerturbation(level, deltas, *hit))
        levels.append((killed, unkilled))
    return levels


@pytest.mark.parametrize(
    "n_max,box,q1", [(3, 3, False), (4, 2, False), (4, 2, True), (5, 1, True)]
)
def test_forms_match_reference_enumeration(n_max, box, q1):
    report = torus_uniqueness(n_max, box, q1=q1)
    got = [(lv.killed, lv.unkilled) for lv in report.levels]
    assert got == reference_uniqueness(n_max, box, q1)


def _unit(level: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(level))


@functools.lru_cache(maxsize=None)
def _forms(level: int):
    units = [perturbed_that(level, _unit(level, i)) for i in range(level)]
    return positivity._witness_forms(level, units)


def _nonzero(pairs):
    return [(key, c) for key, c in pairs if c]


perturbations = st.integers(6, 9).flatmap(
    lambda level: st.lists(st.integers(-10, 10), min_size=level, max_size=level)
).filter(lambda deltas: sum(1 for d in deltas if d) >= 2)


@settings(max_examples=30, deadline=None)
@given(perturbations)
def test_forms_equal_reference_values(deltas):
    # Entries reach outside every box the enumeration uses: the forms are
    # exact, not fitted to the box.
    level, deltas = len(deltas), tuple(deltas)
    reference = positivity._witness_values(perturbed_that(level, deltas), level)
    from_forms = positivity._form_values(_forms(level), deltas)
    for (kind, ref_pairs), (form_kind, form_pairs) in zip(
        reference, from_forms, strict=True
    ):
        assert form_kind == kind
        assert _nonzero(form_pairs) == _nonzero(ref_pairs)


def test_enumeration_builds_each_perturbation_once(monkeypatch):
    built = []
    perturbed = positivity.perturbed_that

    def counting(level, deltas):
        built.append((level, deltas))
        return perturbed(level, deltas)

    monkeypatch.setattr(positivity, "perturbed_that", counting)
    torus_uniqueness(3, 1)
    assert len(built) == len(set(built)) == (3**2 - 1) + (3**3 - 1)


def test_survivor_recheck_catches_forms_that_clear_a_killed_perturbation(monkeypatch):
    # The reference kills (1, 0), since P_2 = S_2; forms that read every
    # coefficient at it as 1 let it through, and the re-check must refuse.
    (killed, _), = reference_uniqueness(2, 1, False)
    assert (1, 0) in [rec.deltas for rec in killed]
    form_values = positivity._form_values

    def clearing(forms, deltas):
        if deltas == (1, 0):
            return ((kind, [(key, ONE) for key, *_ in terms]) for kind, terms in forms)
        return form_values(forms, deltas)

    monkeypatch.setattr(positivity, "_form_values", clearing)
    with pytest.raises(AssertionError, match=r"let \(1, 0\) through"):
        torus_uniqueness(2, 1)


def test_a_perturbation_both_paths_clear_is_reported_unkilled(monkeypatch):
    # Forms and reference path that both clear (1, 0) make it a survivor:
    # the level is not all killed, the verdict fails, and the JSON lists it.
    form_values = positivity._form_values
    witnesses = positivity._uniqueness_witnesses

    def clearing(forms, deltas):
        if deltas == (1, 0):
            return ((kind, [(key, ONE) for key, *_ in terms]) for kind, terms in forms)
        return form_values(forms, deltas)

    def reference(P, level, q1):
        return iter(()) if P.name == "that-pert2[1,0]" else witnesses(P, level, q1)

    monkeypatch.setattr(positivity, "_form_values", clearing)
    monkeypatch.setattr(positivity, "_uniqueness_witnesses", reference)
    report = torus_uniqueness(2, 1)
    (lv,) = report.levels
    assert lv.unkilled == [(1, 0)]
    assert (1, 0) not in [rec.deltas for rec in lv.killed]
    assert lv.n_perturbations == 8
    assert not lv.all_killed
    assert report.t_hat_clean and not report.certified
    obj = report.to_json_obj()
    assert obj["verdict"] == "not-certified"
    assert obj["levels"][0]["all_killed"] is False
    assert obj["levels"][0]["unkilled"] == [[1, 0]]


def test_replay_refuses_a_record_it_does_not_reproduce():
    record = torus_uniqueness(2, 1).levels[0].killed[0]
    assert replay_uniqueness_witness(record)
    never_fires = dataclasses.replace(record, witness_kind="no-such-kind")
    wrong_label = dataclasses.replace(record, label="(9,1)")
    assert not replay_uniqueness_witness(never_fires)
    assert not replay_uniqueness_witness(wrong_label)


# -- every witness is a labelled torus product ----------------------------------


def _annulus_by_index(P: PolySeq, level: int):
    """The annulus kinds as they were read before they became torus
    products: P_i * P_j expanded over P, keyed by index."""
    for kind, (i, j) in (("annulus-1", (1, level - 1)), ("annulus-2", (2, level - 2))):
        yield kind, enumerate(polyseq.expand_in(P.poly(i) * P.poly(j), P))


def _axis_label(m: int):
    return EMPTY if m == 0 else tlabel(m, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda level: st.lists(st.integers(-10, 10), min_size=level, max_size=level)
    )
)
def test_annulus_products_equal_the_index_reading(deltas):
    # Parallel curves multiply with determinant 0, so (1,0)*(k-1,0) and
    # (2,0)*(k-2,0) are the one-variable products on (1,0): index m of the
    # old reading is label (m,0), and index 0 the empty label.
    level, deltas = len(deltas), tuple(deltas)
    P = perturbed_that(level, deltas)
    values = dict(positivity._witness_values(P, level))
    for kind, pairs in _annulus_by_index(P, level):
        want = [(_axis_label(m), c) for m, c in _nonzero(pairs)]
        assert _nonzero(values[kind]) == want


def test_every_witness_key_is_a_label():
    for level in (2, 3, 6):
        P = perturbed_that(level, _unit(level, 0))
        for kind, pairs in positivity._witness_values(P, level):
            assert all(isinstance(label, TorusLabel) for label, _ in pairs), kind


def test_t_hat_is_decided_from_the_forms(monkeypatch, capsys):
    # Forms that read a negative coefficient at δ = 0 make T̂ unclean: the
    # verdict fails although every perturbation is killed, and the CLI
    # exits 2.
    form_values = positivity._form_values

    def dirty(forms, deltas):
        if any(deltas):
            return form_values(forms, deltas)
        negative = const(-1)
        return ((kind, [(label, negative) for label, *_ in terms]) for kind, terms in forms)

    monkeypatch.setattr(positivity, "_form_values", dirty)
    report = torus_uniqueness(2, 1)
    assert not report.t_hat_clean
    assert all(lv.all_killed for lv in report.levels)
    assert report.verdict == "not-certified"
    assert cli.main(["certify", "torus-unique", "--n-max", "2", "--box", "1"]) == 2
    out = capsys.readouterr().out
    assert "unperturbed sequence clean: False\n" in out
    assert out.endswith("verdict: not-certified\n")


def test_lower_bound_witness_carries_its_note():
    # x^2 - 3 = T̂_2 - T̂_0: the expansion coefficient 0 of P_2 is -1.
    bad = PolySeq.from_polys("bad2", [THAT.poly(0), THAT.poly(1), Poly1([-3, 0, 1])])
    obj = lower_bound_certify(bad, 2).to_json_obj()
    assert obj["witnesses"] == [
        {
            "inputs": ["P_2(a)", "b"],
            "label": "(0,1)",
            "coeff": const(-1).to_json_obj(),
            "note": "type-one expansion coefficient 0 of P_2",
        }
    ]
