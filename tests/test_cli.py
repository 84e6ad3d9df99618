import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skeinalg import cli, polyseq, positivity, skein_ptorus, skein_s04, skein_torus
from skeinalg.cli import build_parser, main

GOLDEN_TOR_MUL = (
    '{"surface":"t10","basis":"that","terms":'
    '[{"label":"(2,0)","coeff":{"-2":1}},{"label":"(2,2)","coeff":{"2":1}}]}'
)
GOLDEN_ORDER = (
    '{"relation":"leq","left":"that","right":"s","n_max":20,'
    '"holds":true,"witness":null}'
)
GOLDEN_SCAN_SHA256 = (
    "78dd9d2c4510847908d64c0a00e4a7dd52add04b818be830ceec75136f67717c"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tor_mul_golden(capsys):
    code, out = run(capsys, "tor", "mul", "(2,1)", "(0,1)", "--basis", "that", "--json")
    assert code == 0
    assert out == GOLDEN_TOR_MUL + "\n"
    code2, out2 = run(capsys, "tor", "mul", "(2,1)", "(0,1)", "--basis", "that", "--json")
    assert out2 == out


def test_tor_mul_text(capsys):
    code, out = run(capsys, "tor", "mul", "(2,1)", "(0,1)", "--basis", "that")
    assert code == 0
    assert out == "q^-2*(2,0) + q^2*(2,2)\n"


def test_identity_conversion_reads_nothing(capsys):
    # In the default flavor the operands and the product are already read
    # in their own sequence: a slope of multiplicity 10^6 must not build or
    # cache a 10^6-entry expansion.
    cache = polyseq.expansion_coeffs
    before = cache.cache_info().currsize
    code, out = run(capsys, "tor", "mul", "(1000000,0)", "(0,1)")
    assert code == 0
    assert out == "q^-1000000*(-1000000,1) + q^1000000*(1000000,1)\n"
    code, out = run(capsys, "tor", "mul", "(1000000,0)", "(0,1)", "--json")
    assert code == 0
    assert out == (
        '{"surface":"t10","basis":"that","terms":'
        '[{"label":"(-1000000,1)","coeff":{"-1000000":1}},'
        '{"label":"(1000000,1)","coeff":{"1000000":1}}]}\n'
    )
    assert cache.cache_info().currsize == before


def test_order_golden(capsys):
    code, out = run(capsys, "order", "leq", "that", "s", "--n-max", "20", "--json")
    assert code == 0
    assert out == GOLDEN_ORDER + "\n"
    code2, out2 = run(capsys, "order", "leq", "that", "s", "--n-max", "20", "--json")
    assert out2 == out


def test_order_text(capsys):
    code, out = run(capsys, "order", "leq", "that", "s", "--n-max", "20")
    assert code == 0
    assert out == "(That) <= (S) certified to n=20\n"
    code, out = run(capsys, "order", "leq", "s", "that", "--n-max", "20")
    assert code == 2
    assert "fails at n=2" in out


def test_scan_golden(capsys):
    code, out = run(capsys, "tor", "scan", "--basis", "s", "--bound", "3", "--json")
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SCAN_SHA256
    code2, out2 = run(capsys, "tor", "scan", "--basis", "s", "--bound", "3", "--json")
    assert out2 == out
    obj = json.loads(out)
    assert obj["verdict"] == "violation"
    assert obj["witnesses"][0] == {
        "inputs": ["(1,0)", "(-3,2)"],
        "label": "1",
        "coeff": {"-2": -1, "2": -1},
    }


def test_scan_that_passes(capsys):
    code, out = run(capsys, "tor", "scan", "--basis", "that", "--bound", "3")
    assert code == 0
    assert "certified-positive-up-to-bound" in out
    code, _ = run(capsys, "tor", "scan", "--basis", "that", "--bound", "3", "--q1")
    assert code == 0


def _mixed_table(path, top):
    """Write T̂ with P_2 = S_2 = x^2 - 1, a sequence of the sandwich that is
    neither end, up to P_top as a ``file:`` table."""
    polys = [polyseq.THAT.poly(n) for n in range(top + 1)]
    polys[2] = polyseq.CHEB_S.poly(2)
    path.write_text("".join(
        f"{n}: {' '.join(str(c.coeff(0)) for c in p.coeffs)}\n" for n, p in enumerate(polys)
    ))
    return f"file:{path}"


@pytest.mark.parametrize("basis", ["that", "s", "monomial", "file"])
@pytest.mark.parametrize(
    "bound, q1", [(b, q1) for b in range(1, 6) for q1 in (False, True) if b <= 3 or not q1]
)
def test_scan_json_equals_report(tmp_path, capsys, basis, bound, q1):
    # The encoder writes each witness while it runs; the bytes must be those
    # of the report's whole JSON tree.
    if basis == "file":
        basis = _mixed_table(tmp_path / "seq.txt", 2 * bound)
    argv = ["tor", "scan", "--basis", basis, "--bound", str(bound), "--json"]
    code, out = run(capsys, *argv, *(["--q1"] if q1 else []))
    report = skein_torus.positivity_scan(cli.resolve_sequence(basis), bound, q1=q1)
    assert out == json.dumps(report.to_json_obj(), separators=(",", ":")) + "\n"
    assert code == (0 if report.passed else 2)
    if basis == "that":
        assert report.passed


def test_scan_of_a_short_table_prints_only_the_error(tmp_path, capsys):
    # Bound 3 reaches multiplicity 6; the table stops at 4.
    basis = _mixed_table(tmp_path / "seq.txt", 4)
    assert main(["tor", "scan", "--basis", basis, "--bound", "3", "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: sequence '{basis}' is only defined up to n = 4\n"


def test_tor_mul_json_reparses(capsys):
    _, out = run(capsys, "tor", "mul", "(2,1)", "(0,1)", "--basis", "s", "--json")
    elem = skein_torus.element_from_json(json.loads(out))
    from skeinalg.polyseq import CHEB_S

    assert elem == skein_torus.structure_constants(
        CHEB_S, skein_torus.tlabel(2, 1), skein_torus.tlabel(0, 1)
    )


def test_ptor_mul_and_json(capsys):
    code, out = run(capsys, "ptor", "mul", "T(3,1)", "T(0,1)", "--json")
    assert code == 0
    elem = skein_ptorus.element_from_json(json.loads(out))
    assert elem == skein_ptorus.mul_tn1_t01(3)
    code, out = run(capsys, "ptor", "mul", "T(1,0)", "T(2,2)", "--json")
    assert code == 0
    elem = skein_ptorus.element_from_json(json.loads(out))
    assert elem == skein_ptorus.mul_t10_tn2(2)
    assert json.loads(out)["basis"] == "that"


def test_ptor_mul_no_rule(capsys):
    code = main(["ptor", "mul", "T(2,0)", "T(4,2)"])
    assert code == 1


def test_ptor_verify(capsys):
    code, out = run(capsys, "ptor", "verify", "g-closed", "--n-max", "12")
    assert code == 0
    assert "n <= 12" in out
    code, out = run(capsys, "ptor", "verify", "consistency", "--n-max", "8")
    assert code == 0


def test_ptor_extract(capsys):
    code, out = run(capsys, "ptor", "extract", "--seq", "s", "--n", "6", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lowest_exponent"] == -6
    elem = skein_ptorus.element_from_json(obj["element"])
    assert list(elem.items())[0][0] == skein_ptorus.plabel(6, 0)


def test_s04_mul_and_json(capsys):
    code, out = run(capsys, "s04", "mul", "S(2,1)", "S(0,1)", "--json")
    assert code == 0
    elem = skein_s04.element_from_json(json.loads(out))
    assert elem == skein_s04.mul_sn1_s01(2)[2]
    code, out = run(capsys, "s04", "mul", "T(3,0)", "T(0,1)", "--json")
    assert code == 0
    elem = skein_s04.element_from_json(json.loads(out))
    assert elem == skein_s04.mul_tna_b(3)
    code, out = run(capsys, "s04", "mul", "S(1,0)", "S(4,2)", "--json")
    assert code == 0
    elem = skein_s04.element_from_json(json.loads(out))
    assert elem == skein_s04.mul_s10_sm2(4)


def test_s04_mul_no_rule(capsys):
    assert main(["s04", "mul", "S(2,1)", "S(3,1)"]) == 1
    assert main(["s04", "mul", "S(1,0)", "T(0,1)"]) == 1


@pytest.mark.parametrize(
    "argv,forms",
    [
        (["ptor", "mul", "V", "U"], "T(r,s), U or U^k, got 'V'"),
        (
            ["s04", "mul", "g5", "S(0,1)"],
            "T(r,s), S(r,s), g1, g1^k, g2, g2^k, g3, g3^k, g4 or g4^k, got 'g5'",
        ),
    ],
    ids=["ptor", "s04"],
)
def test_bad_operand_names_every_form(capsys, argv, forms):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: expected {forms}"]


def test_s04_verify(capsys):
    code, out = run(capsys, "s04", "verify", "h-bounds", "--n-max", "10")
    assert code == 0
    code, out = run(capsys, "s04", "verify", "tna-b", "--n-max", "10")
    assert code == 0
    code, out = run(capsys, "s04", "verify", "sigma", "--n-max", "6")
    assert code == 0
    code, out = run(capsys, "s04", "verify", "h-positive", "--n-max", "4")
    assert code == 0
    assert "observations" in out or "positive" in out


def test_s04_extract(capsys):
    code, out = run(capsys, "s04", "extract", "--n", "7", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lowest_exponent"] == -14
    assert obj["matches_expected"] is True


def test_s04_force_p1(capsys):
    code, out = run(capsys, "s04", "force-p1", "--delta", "2", "--json")
    assert code == 2
    obj = json.loads(out)
    assert obj["gamma_witness"]["coeff"] == {"0": -2}
    assert obj["slope_witness"]["coeff"] == {"0": 2}
    assert main(["s04", "force-p1", "--delta", "0"]) == 1


def test_certify_torus_unique(capsys):
    code, out = run(
        capsys, "certify", "torus-unique", "--n-max", "2", "--box", "2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "certified-unique-up-to-bound"
    assert obj["t_hat_clean"] is True


def test_certify_sandwich(capsys):
    code, out = run(capsys, "certify", "sandwich", "--seq", "s", "--n-max", "15")
    assert code == 0
    assert "n_max=15" in out
    code, out = run(capsys, "certify", "sandwich", "--seq", "monomial", "--n-max", "15")
    assert code == 2


def test_cheb(capsys):
    code, out = run(capsys, "cheb", "that", "5")
    assert code == 0
    assert out == "x^5 - 5*x^3 + 5*x\n"
    code, out = run(capsys, "cheb", "s", "4", "--subst-t")
    assert code == 0
    assert out == "q^-4 + q^-2 + 1 + q^2 + q^4\n"


def test_file_sequence(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("# type-one prefix\n0: 1\n1: 0 1\n2: -2 0 1\n3: 0 -3 0 1\n")
    code, out = run(capsys, "order", "leq", f"file:{path}", "s", "--n-max", "3")
    assert code == 0
    code, out = run(
        capsys, "tor", "mul", "(2,1)", "(0,1)", "--basis", f"file:{path}", "--json"
    )
    assert code == 0
    assert json.loads(out)["basis"] == f"file:{path}"


def test_file_sequence_load_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0: 1\n1: 0 2\n")
    assert main(["order", "leq", f"file:{path}", "s"]) == 1
    # A "-1:" line must not be dropped, which would certify this file.
    path.write_text("0: 1\n1: 0 1\n-1:\n")
    assert main(["order", "leq", "that", f"file:{path}", "--n-max", "1"]) == 1


def test_peripheral_token_products(capsys):
    code, out = run(capsys, "ptor", "mul", "U", "T(2,1)")
    assert code == 0
    assert out == "(2,1)*U\n"
    code, out = run(capsys, "ptor", "mul", "U", "U")
    assert code == 0
    assert out == "2 + U^2\n"
    code, out = run(capsys, "s04", "mul", "g1", "S(2,1)")
    assert code == 0
    assert out == "(2,1)*g1\n"
    code, out = run(capsys, "s04", "mul", "g2^2", "g3")
    assert code == 0
    assert out == "g2^2*g3\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        # x T^_1 = T^_2 + 2 is the one seed exception of the three-term rule.
        (["s04", "mul", "T(1,0)", "T(1,0)"], "2 + (2,0)\n"),
        (["s04", "mul", "S(1,0)", "S(1,0)"], "1 + (2,0)\n"),
        (["ptor", "mul", "T(1,0)", "T(1,0)"], "2 + (2,0)\n"),
    ],
)
def test_power_of_10_seed_products(capsys, argv, want):
    assert run(capsys, *argv) == (0, want)


def test_text_and_json_describe_same_terms(capsys):
    _, text = run(capsys, "tor", "mul", "(2,1)", "(0,1)", "--basis", "s")
    _, js = run(capsys, "tor", "mul", "(2,1)", "(0,1)", "--basis", "s", "--json")
    obj = json.loads(js)
    assert len(text.strip().split(" + ")) == len(obj["terms"])
    for term in obj["terms"]:
        if term["label"] != "1":
            assert term["label"] in text


def test_parse_errors_exit_1():
    assert main(["tor", "mul", "bogus", "(0,1)"]) == 1
    assert main(["tor", "mul", "(1,0)", "(0,0)"]) == 1
    assert main(["ptor", "mul", "(1,0)", "T(0,1)"]) == 1
    assert main(["order", "leq", "nope", "s"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["tor", "scan", "--basis", "t"],
        ["tor", "mul", "(2,1)", "(0,1)", "--basis", "t"],
        ["ptor", "extract", "--seq", "t"],
        ["certify", "sandwich", "--seq", "t"],
        ["order", "leq", "t", "s"],
    ],
)
def test_plain_type_one_is_not_a_sequence(capsys, argv):
    # T_0 = 2 is not monic of degree 0: `cheb t` prints it, nothing reads it
    # as a basis.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: unknown builtin sequence 't'; ")


def test_usage_errors_exit_1():
    assert main(["tor"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["tor", "scan", "--bound", "x"]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


# Every row of both check tables, as (surface command, check, least n_max).
CHECK_ROWS = [
    (surface, name, row.least_n_max)
    for surface, table in (("ptor", skein_ptorus.CHECKS), ("s04", skein_s04.CHECKS))
    for name, row in table.items()
]


@pytest.mark.parametrize(
    "argv",
    [
        ["ptor", "verify", "g-closed", "--n-max", "-5"],
        ["ptor", "verify", "consistency", "--n-max", "1"],
        ["s04", "verify", "sigma", "--n-max", "0"],
        ["s04", "verify", "h-bounds", "--n-max", "0"],
        ["s04", "verify", "tna-b", "--n-max", "-1"],
        ["order", "leq", "that", "s", "--n-max", "-1"],
        ["certify", "sandwich", "--seq", "s", "--n-max", "-1"],
        # Index 0 alone, or seeds both sides share, would pass vacuously.
        ["order", "leq", "monomial", "that", "--n-max", "0"],
        ["order", "leq", "monomial", "that", "--n-max", "0", "--json"],
        ["certify", "sandwich", "--seq", "monomial", "--n-max", "0"],
        ["ptor", "verify", "g-closed", "--n-max", "1"],
        ["ptor", "verify", "g-closed", "--n-max", "0", "--json"],
        ["s04", "verify", "tna-b", "--n-max", "0"],
        # Out-of-range arguments the library refuses, each as one error line.
        ["certify", "torus-unique", "--n-max", "1"],
        ["certify", "torus-unique", "--box", "0"],
        ["tor", "scan", "--bound", "0"],
        ["ptor", "extract", "--n", "-1"],
        ["cheb", "that", "-1"],
    ]
    + [
        pytest.param([surface, "verify", name, "--n-max", str(least - 1)], id=name)
        for surface, name, least in CHECK_ROWS
    ],
)
def test_empty_range_is_an_error(capsys, argv):
    # A check over no indices would pass vacuously.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "surface,name,least", [pytest.param(*row, id=row[1]) for row in CHECK_ROWS]
)
def test_least_n_max_is_accepted(capsys, surface, name, least):
    # The least n_max of a check row is the smallest range with an index.
    assert main([surface, "verify", name, "--n-max", str(least)]) == 0
    assert capsys.readouterr().err == ""


NO_ELEMENT_SURVIVES = r"""
import contextlib, gc, io, json
from skeinalg import cli, skein_ptorus, skein_s04
from skeinalg.elements import SkeinElement

calls = [["ptor", "verify", name, "--n-max", "6"] for name in skein_ptorus.CHECKS]
calls += [["s04", "verify", name, "--n-max", "6"] for name in skein_s04.CHECKS]
calls += [["s04", "extract", "--n", "6"], ["s04", "mul", "S(6,1)", "S(0,1)"]]
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
gc.collect()
alive = sum(isinstance(obj, SkeinElement) for obj in gc.get_objects())
print(json.dumps({"codes": codes, "alive": alive}))
"""


def test_no_element_outlives_a_call():
    # Memory is bounded by the current call: once the tower checks, the
    # extraction and a tower product have returned, no element is left.
    # A fresh interpreter keeps other tests' state out of the count.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", NO_ELEMENT_SURVIVES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 8, "alive": 0}


# (argv, exit code, SHA-256 of stdout) for the renderings no other test
# pins byte for byte: scan text on both paths, the certifications in text
# and JSON with q1 off and on, both JSON forms of cheb, the failing order
# and the punctured-surface products as text.
STDOUT_GOLDENS = [
    (["tor", "scan", "--basis", "that", "--bound", "3"], 0,
     "719f6cdbe1de7deaa6c9b18fea8763928ca4cedf48cf3ef07e36fb96b465cb04"),
    (["tor", "scan", "--basis", "s", "--bound", "3"], 2,
     "47a84620d52233655912dba423cc92f1e9323a0e387c023272b9dc8353e7c517"),
    (["tor", "scan", "--basis", "monomial", "--bound", "2", "--q1"], 2,
     "8a5dda91785f2f3ec9b5ab55b04b6ff5a683e0ecb9760fa40b74eeab34f1dbd6"),
    (["certify", "torus-unique", "--n-max", "3", "--box", "1"], 0,
     "88eb07f809d03c637e7edacfb9f653dc7d5b3ace0d396ceaabda43f29fdce026"),
    (["certify", "torus-unique", "--n-max", "3", "--box", "1", "--json"], 0,
     "48725810e15dea3cd9cc2b733f78f13a5d74c3dd6d9e67fb8560da4d5de4936e"),
    (["certify", "torus-unique", "--n-max", "3", "--box", "1", "--q1"], 0,
     "aa78592a9021ed91fc6e5b289a7250e7b0ee577302f8e901812a85eae09e9653"),
    (["certify", "torus-unique", "--n-max", "3", "--box", "1", "--q1", "--json"], 0,
     "2f56c6a4e8740b2fff0345da7e27d68ff50048a322bfe0b5b757004bb0a865a4"),
    (["certify", "sandwich", "--seq", "s", "--n-max", "6"], 0,
     "5bd357bcc93cc82de3dda3bb81e997d55c9ff4b11cffbd4fecd2002f4cfb94fe"),
    (["certify", "sandwich", "--seq", "s", "--n-max", "6", "--json"], 0,
     "c2e7695eb3e3ecfc5a052cf52739f1bf23b146d7ac97a3179ece30116b924769"),
    (["certify", "sandwich", "--seq", "monomial", "--n-max", "6"], 2,
     "dec453e532a66aba54e3aca90957b16a6128383a9c5671cd2e8fcdf8b12b9786"),
    (["certify", "sandwich", "--seq", "monomial", "--n-max", "6", "--json"], 2,
     "728f5edfd0091aeab0376aa9bb0b0fb0b6f2460ad25fd6161b3d9bc155a54e0d"),
    (["certify", "sandwich", "--seq", "that", "--n-max", "6", "--q1"], 0,
     "6021ecf77b2b54ea774bf9cf4d9e287b681af087c1e32e962d040da80b9eac61"),
    (["certify", "sandwich", "--seq", "that", "--n-max", "6", "--q1", "--json"], 0,
     "78c38590c6a30c0265f430e90cbdbbd8f70d036e37d8397f9e0e98f7fc1974c5"),
    (["certify", "sandwich", "--seq", "monomial", "--n-max", "6", "--q1"], 2,
     "dec453e532a66aba54e3aca90957b16a6128383a9c5671cd2e8fcdf8b12b9786"),
    (["certify", "sandwich", "--seq", "monomial", "--n-max", "6", "--q1", "--json"], 2,
     "728f5edfd0091aeab0376aa9bb0b0fb0b6f2460ad25fd6161b3d9bc155a54e0d"),
    (["cheb", "that", "5", "--json"], 0,
     "49219bf79544135b87cc74a1363fd2f41f77b7831742936582faf248dd8ad626"),
    (["cheb", "s", "4", "--subst-t", "--json"], 0,
     "e4d05f58fe3dd615b39003c9dd779754fbef6fdb727e2174d8670645bdc2460d"),
    # The plain type-one polynomial, T_0 = 2: printed, though it is no basis.
    (["cheb", "t", "0"], 0,
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    (["cheb", "t", "0", "--json"], 0,
     "8602a17af59bc2b760dba9fbabe4977b95468131df8c07de40b72641e42dae6a"),
    (["cheb", "t", "1"], 0,
     "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac"),
    (["cheb", "t", "1", "--json"], 0,
     "88d7aab2b5e7caa2238071579bcc6155f502954491712583f6db6a6366c8cfe2"),
    (["cheb", "t", "5"], 0,
     "13730e9fc3670bc9cf9c3aaceb157674ad740efe3d3f345e5145b8d9897173b6"),
    (["cheb", "t", "5", "--json"], 0,
     "cb6732d26d50301bb5d1b32439159a69cc6c95be64e8b1216d28f13f0f8b595c"),
    (["cheb", "t", "4", "--subst-t"], 0,
     "797165394c4c3aeb384de8555b12cc467236c802982d81a7849c711dc1dc2c14"),
    (["cheb", "t", "4", "--subst-t", "--json"], 0,
     "b9bba70b85496758728bb0d623b019a434582d7da39043b47c635fad52d338bd"),
    (["order", "leq", "s", "that", "--n-max", "6"], 2,
     "834f18829711c52a2d3fd0075da6bcf3925fc16ea216608a361b1888bcabf810"),
    (["order", "leq", "s", "that", "--n-max", "6", "--json"], 2,
     "dd78fc6b8b2291a7350e49d031cb437d476679f0b3f2e9f3ed093c5ce42f7fef"),
    (["order", "leq", "monomial", "that", "--n-max", "6", "--q1"], 2,
     "91d9c45901093eb5ee0d7b0ab77041986c1b35d6e07a55b4db3d454819114a19"),
    (["order", "leq", "monomial", "that", "--n-max", "6", "--q1", "--json"], 2,
     "c1890359205496b614e03719c7f88ad93dee9cf7c8964af3fa086abf17aa6d00"),
    (["ptor", "mul", "T(3,1)", "T(0,1)"], 0,
     "47ae3c0c8eb4b4704b171e0de28a8e5ed55e7d6370e59c9fd426f0481e1ecce9"),
    (["ptor", "mul", "T(1,0)", "T(2,2)"], 0,
     "b6724b57465d43edb2100f0893629eefd43bc86eaacda85c3676e5011caf2474"),
    (["s04", "mul", "S(2,1)", "S(0,1)"], 0,
     "4407056f07ae22c57915de4a286ed3705bf53adaac0e6d57c307c915c225aefd"),
    (["s04", "mul", "T(3,0)", "T(0,1)"], 0,
     "b0ac15055d75efcce8940981e713728ffaa159b2a3468fddfaabaa6642df3740"),
]


@pytest.mark.parametrize(
    "argv,code,sha", STDOUT_GOLDENS, ids=[" ".join(g[0]) for g in STDOUT_GOLDENS]
)
def test_stdout_golden(capsys, argv, code, sha):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha
    assert captured.err == ""


def test_certify_torus_unique_survivor_rendering(capsys, monkeypatch):
    # No bounded run has a survivor, so the report is made by hand: the
    # "survived" line, the not-certified verdict and exit 2.
    def report(n_max, box, q1=False):
        levels = [
            positivity.UniquenessLevel(2, 8, [], []),
            positivity.UniquenessLevel(3, 26, [], [(1, 0, -1), (0, 0, 1)]),
        ]
        return positivity.UniquenessReport(n_max, box, q1, levels, t_hat_clean=False)

    monkeypatch.setattr(positivity, "torus_uniqueness", report)
    code, out = run(capsys, "certify", "torus-unique", "--n-max", "3", "--box", "1")
    assert code == 2
    assert out == (
        "torus uniqueness: levels 2..3, box 1, q1=False\n"
        "level 2: 8 perturbations, all violated\n"
        "level 3: 26 perturbations, 2 survived\n"
        "unperturbed sequence clean: False\n"
        "verdict: not-certified\n"
    )
    code, out = run(capsys, "certify", "torus-unique", "--n-max", "3", "--box", "1", "--json")
    assert code == 2
    assert json.loads(out)["levels"][1] == {
        "level": 3, "n_perturbations": 26, "all_killed": False,
        "unkilled": [[1, 0, -1], [0, 0, 1]],
    }


# Every subcommand's arguments as (option strings or dest, default, type,
# choices, required), in the order the parser lists them.
PARSER_SHAPE = [
    (("tor", "mul"), [
        ("a", None, None, None, True),
        ("b", None, None, None, True),
        (("--basis",), "that", None, None, False),
        (("--json",), False, None, None, False),
    ]),
    (("tor", "scan"), [
        (("--basis",), "that", None, None, False),
        (("--bound",), 3, "int", None, False),
        (("--q1",), False, None, None, False),
        (("--json",), False, None, None, False),
    ]),
    (("ptor", "mul"), [
        ("a", None, None, None, True),
        ("b", None, None, None, True),
        (("--json",), False, None, None, False),
    ]),
    (("ptor", "verify"), [
        ("check", None, None, ["g-closed", "consistency"], True),
        (("--n-max",), 20, "int", None, False),
        (("--json",), False, None, None, False),
    ]),
    (("ptor", "extract"), [
        (("--seq",), "s", None, None, False),
        (("--n",), 20, "int", None, False),
        (("--json",), False, None, None, False),
    ]),
    (("s04", "mul"), [
        ("a", None, None, None, True),
        ("b", None, None, None, True),
        (("--json",), False, None, None, False),
    ]),
    (("s04", "verify"), [
        ("check", None, None, ["h-bounds", "tna-b", "sigma", "h-positive"], True),
        (("--n-max",), 20, "int", None, False),
        (("--json",), False, None, None, False),
    ]),
    (("s04", "extract"), [
        (("--n",), 20, "int", None, False),
        (("--json",), False, None, None, False),
    ]),
    (("s04", "force-p1"), [
        (("--delta",), None, "int", None, True),
        (("--json",), False, None, None, False),
    ]),
    (("certify", "torus-unique"), [
        (("--n-max",), 3, "int", None, False),
        (("--box",), 2, "int", None, False),
        (("--q1",), False, None, None, False),
        (("--json",), False, None, None, False),
    ]),
    (("certify", "sandwich"), [
        (("--seq",), None, None, None, True),
        (("--n-max",), 20, "int", None, False),
        (("--q1",), False, None, None, False),
        (("--json",), False, None, None, False),
    ]),
    (("cheb", None), [
        ("kind", None, None, ["t", "that", "s"], True),
        ("n", None, "int", None, True),
        (("--subst-t",), False, None, None, False),
        (("--json",), False, None, None, False),
    ]),
    (("order", "leq"), [
        ("left", None, None, None, True),
        ("right", None, None, None, True),
        (("--n-max",), 20, "int", None, False),
        (("--q1",), False, None, None, False),
        (("--json",), False, None, None, False),
    ]),
]


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def test_parser_shape():
    shape = []
    for name, sub in _subparsers(build_parser())[0].choices.items():
        nested = _subparsers(sub)
        leaves = nested[0].choices.items() if nested else [(None, sub)]
        for subname, leaf in leaves:
            shape.append(((name, subname), [
                (tuple(a.option_strings) or a.dest, a.default,
                 a.type.__name__ if a.type else None,
                 list(a.choices) if a.choices else None, a.required)
                for a in leaf._actions if not isinstance(a, argparse._HelpAction)
            ]))
    assert shape == PARSER_SHAPE
