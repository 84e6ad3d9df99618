import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skeinalg import polyseq, skein_ptorus, skein_s04, skein_torus
from skeinalg.cli import main

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
