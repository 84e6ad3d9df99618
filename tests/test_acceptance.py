"""The acceptance gate: one test per criterion, exact tolerances.

Every check is exact integer/Laurent arithmetic (tolerance zero); the two
long-running criteria also carry wall-clock budgets.  Each test prints a
PASS line (visible with ``pytest -s``) after its assertions hold.
"""

import hashlib
import random
import time

from skeinalg.cli import main
from skeinalg.curves import curve
from skeinalg.elements import SkeinElement, single
from skeinalg.laurent import Laurent, ONE, const, parse_laurent, q_power
from skeinalg.polyseq import CHEB_S, THAT, chebyshev, expand_in, seq_leq, substitute_t
from skeinalg.positivity import torus_uniqueness
from skeinalg.skein_ptorus import plabel, upper_bound_extract
from skeinalg.skein_ptorus import SURFACE as PT_SURFACE
from skeinalg.skein_ptorus import g_closed, g_recursive, two_way_expansion
from skeinalg.skein_s04 import SURFACE as S04_SURFACE
from skeinalg.skein_s04 import (
    h_part,
    lowest_q_term_s04,
    mul_sn1_s01,
    mul_tna_b,
    p1_forcing_witness,
    slabel,
    tna_b_by_recurrence,
)
from skeinalg.skein_torus import mul, positivity_scan, tlabel
from skeinalg.skein_torus import SURFACE as T10_SURFACE


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_associativity_500_triples():
    rng = random.Random(20240801)
    start = time.monotonic()
    for _ in range(500):
        labels = []
        while len(labels) < 3:
            r, s = rng.randrange(-8, 9), rng.randrange(-8, 9)
            if (r, s) != (0, 0):
                labels.append(tlabel(r, s))
        a, b, c = (
            SkeinElement(T10_SURFACE, "that", [(lab, ONE)]) for lab in labels
        )
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"associativity sweep took {elapsed:.1f}s"
    _ok(1, f"500 random triples associate exactly in {elapsed:.2f}s")


def test_criterion_02_chebyshev_characterization():
    for n in range(65):
        want_t = Laurent({n: 1, -n: 1}) if n else const(2)
        assert substitute_t(chebyshev("T", n)) == want_t
        want_s = Laurent({n - 2 * i: 1 for i in range(n + 1)})
        assert substitute_t(chebyshev("S", n)) == want_s
    _ok(2, "t-substitution reproduces both families for n <= 64")


def test_criterion_03_torus_type_one_positivity_scan():
    start = time.monotonic()
    report = positivity_scan(THAT, 10)
    assert report.passed and not report.witnesses
    report_q1 = positivity_scan(THAT, 10, q1=True)
    assert report_q1.passed
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"scan took {elapsed:.1f}s"
    _ok(3, f"bound-10 scan positive (plain and q=1) in {elapsed:.2f}s")


def test_criterion_04_torus_uniqueness_desk_scale():
    report = torus_uniqueness(3, 3)
    assert report.t_hat_clean
    assert report.certified
    assert [lv.n_perturbations for lv in report.levels] == [48, 342]
    for lv in report.levels:
        assert lv.all_killed
    _ok(4, "levels 2-3, box 3: all 390 perturbations violate, unperturbed clean")


def test_criterion_05_punctured_torus_correction_polynomials():
    table = g_recursive(40)
    for n in range(41):
        assert table[n] == g_closed(n)
    for n, (w1, w2) in zip(range(1, 21), two_way_expansion(20), strict=True):
        assert w1 == w2
    _ok(5, "recursion matches closed form to n=40; induction step checks to n=20")


def test_criterion_06_punctured_torus_lowest_term():
    for n in range(1, 21):
        low, elem = upper_bound_extract(CHEB_S, n)
        assert low == -n
        assert elem == single(PT_SURFACE, "s", plabel(n, 0))
    _ok(6, "lowest q-layer of (n,1)*(0,1) is q^-n times the (n,0) label, n <= 20")


def test_criterion_07_sphere_closed_form_vs_recurrence():
    powers = tna_b_by_recurrence(30)
    for n in range(31):
        assert mul_tna_b(n) == powers[n]
    _ok(7, "type-one power products match the recurrence oracle for n <= 30")


def test_criterion_08_sphere_remainder_structure():
    from skeinalg.skein_s04 import gamma_pair_ab

    remainders = h_part(20)
    assert remainders[1] == gamma_pair_ab()
    for n in range(1, 21):
        h = remainders[n]
        for label, coeff in h.items():
            assert label.slope is None or label.slope.s == 0
            lo, hi = coeff.q_degree_range()
            assert lo >= -2 * n + 2 and hi <= 2 * n - 2
    _ok(8, "remainders carry only (k,0) slopes and peripheral monomials, "
           "q-exponents within [-2n+2, 2n-2], n <= 20")


def test_criterion_09_sphere_lowest_term():
    layers = lowest_q_term_s04(20)
    assert len(layers) == 20
    for n, (low, elem) in enumerate(layers, start=1):
        assert low == -2 * n
        assert elem == single(S04_SURFACE, "s", slabel(n, 0))
    _ok(9, "lowest q-layer of the sphere product is q^-2n times (n,0), n <= 20")


def test_criterion_10_order_relations():
    res = seq_leq(THAT, CHEB_S, 64)
    assert res.holds
    for n in range(65):
        coeffs = expand_in(CHEB_S.poly(n), THAT)
        assert coeffs == [
            (ONE if (n - k) % 2 == 0 else Laurent()) for k in range(n + 1)
        ]
    res = seq_leq(CHEB_S, THAT, 64)
    assert not res.holds
    assert res.witness == (2, 0, const(-1))

    from skeinalg.polyseq import Poly1, PolySeq

    rng = random.Random(64)
    checked = 0
    for trial in range(100):
        deg = 6
        polys_p = [
            Poly1([const(rng.randrange(-3, 4)) for _ in range(n)] + [ONE])
            for n in range(deg + 1)
        ]
        P = PolySeq.from_polys("p", polys_p)
        if trial % 2 == 0:
            Q = PolySeq.from_polys("q", polys_p)
        else:
            polys_q = []
            for n in range(deg + 1):
                p = P.poly(n)
                for i in range(n):
                    bump = rng.randrange(0, 2)
                    if bump:
                        p = p + P.poly(i).scaled(bump)
                polys_q.append(p)
            Q = PolySeq.from_polys("q", polys_q)
        if seq_leq(P, Q, deg).holds and seq_leq(Q, P, deg).holds:
            checked += 1
            for n in range(deg + 1):
                assert P.poly(n) == Q.poly(n)
    assert checked > 0
    _ok(10, "order holds downward, fails upward with the frozen witness, "
            "antisymmetry on 100 randomized pairs")


def test_criterion_11_linear_entry_forcing():
    for delta in (-3, -2, -1, 1, 2, 3):
        report = p1_forcing_witness(delta)
        assert any(not coeff.is_positive() for _, coeff in report.violations)
        assert report.gamma_coeff == const(-delta)
        assert report.slope_coeff == const(delta)
    _ok(11, "every nonzero perturbation of the linear entry yields a negative "
            "coefficient witness")


def test_criterion_12_cli_golden_outputs(capsys):
    goldens = [
        (
            ["tor", "mul", "(2,1)", "(0,1)", "--basis", "that", "--json"],
            0,
            '{"surface":"t10","basis":"that","terms":[{"label":"(2,0)",'
            '"coeff":{"-2":1}},{"label":"(2,2)","coeff":{"2":1}}]}\n',
            None,
        ),
        (
            ["order", "leq", "that", "s", "--n-max", "20", "--json"],
            0,
            '{"relation":"leq","left":"that","right":"s","n_max":20,'
            '"holds":true,"witness":null}\n',
            None,
        ),
        (
            ["tor", "scan", "--basis", "s", "--bound", "3", "--json"],
            2,
            None,
            "78dd9d2c4510847908d64c0a00e4a7dd52add04b818be830ceec75136f67717c",
        ),
    ]
    for argv, want_code, want_text, want_sha in goldens:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == want_code
        assert out1.encode() == out2.encode()
        if want_text is not None:
            assert out1 == want_text
        if want_sha is not None:
            assert hashlib.sha256(out1.encode()).hexdigest() == want_sha
    _ok(12, "three CLI examples byte-identical across runs and to the goldens")
