"""Arithmetic against sympy as an independent oracle, and fuzzing of the
text parsers and of the CLI's handling of bad input."""

import contextlib
import io

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from skeinalg import skein_ptorus, skein_s04, skein_torus
from skeinalg.cli import main
from skeinalg.curves import CurveSyntaxError, parse_power, parse_slope
from skeinalg.elements import label_from_text
from skeinalg.laurent import Laurent, LaurentSyntaxError, parse_laurent
from skeinalg.polyseq import (
    CHEB_S,
    MONOMIAL,
    THAT,
    Poly1,
    expand_in,
    parse_sequence_table,
    substitute_t,
)

q, x, t = sympy.symbols("q x t")

laurents = st.dictionaries(
    st.integers(-8, 8), st.integers(-(2**70), 2**70), max_size=5
).map(Laurent)
small_laurents = st.dictionaries(
    st.integers(-3, 3), st.integers(-5, 5), max_size=3
).map(Laurent)
polys = st.lists(small_laurents, max_size=5).map(Poly1)
int_polys = st.lists(st.integers(-9, 9), max_size=7).map(Poly1)

# The builtin bases written with sympy's Chebyshev polynomials:
# S_n(x) = U_n(x/2), and T̂_n(x) = 2 T_n(x/2) except T̂_0 = 1.
SYMPY_BASES = {
    "monomial": (MONOMIAL, lambda k: x**k),
    "s": (CHEB_S, lambda k: sympy.chebyshevu(k, x / 2)),
    "that": (THAT, lambda k: 1 if k == 0 else 2 * sympy.chebyshevt(k, x / 2)),
}

oracle = settings(max_examples=60, deadline=None)


def _sym(p: Laurent, var=q):
    return sum((c * var**e for e, c in p.items()), sympy.Integer(0))


def _sym_poly(p: Poly1):
    return sum((_sym(c) * x**k for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def _equal(a, b) -> bool:
    return sympy.expand(a - b) == 0


@oracle
@given(laurents, laurents)
def test_laurent_ring_ops_match_sympy(a, b):
    assert _equal(_sym(a + b), _sym(a) + _sym(b))
    assert _equal(_sym(a - b), _sym(a) - _sym(b))
    assert _equal(_sym(a * b), _sym(a) * _sym(b))


@oracle
@given(polys, polys)
def test_poly1_product_matches_sympy(a, b):
    assert _equal(_sym_poly(a * b), _sym_poly(a) * _sym_poly(b))


@oracle
@given(polys, st.sampled_from(sorted(SYMPY_BASES)))
def test_expand_in_reconstructs_over_sympy_basis(p, name):
    basis, entry = SYMPY_BASES[name]
    coeffs = expand_in(p, basis)
    assert len(coeffs) == p.degree + 1
    rebuilt = sum((_sym(c) * entry(k) for k, c in enumerate(coeffs)), sympy.Integer(0))
    assert _equal(rebuilt, _sym_poly(p))


@oracle
@given(int_polys)
def test_substitute_t_matches_sympy(p):
    want = _sym_poly(p).subs(x, t + 1 / t)
    assert _equal(_sym(substitute_t(p), t), want)


@given(laurents)
def test_laurent_text_round_trip(p):
    assert parse_laurent(str(p)) == p


# -- fuzzing: a parser may refuse text only with a ValueError -------------------

PARSERS = {
    "parse_laurent": parse_laurent,
    "parse_slope": parse_slope,
    "parse_sequence_table": lambda text: parse_sequence_table(text, "fuzz"),
    "torus label": lambda text: label_from_text(skein_torus.TorusLabel, text),
    "punctured-torus label": lambda text: label_from_text(
        skein_ptorus.PTorusLabel, text, {"T": "that"}
    ),
    "sphere operand": lambda text: label_from_text(
        skein_s04.S04Label, text, {"T": "that", "S": "s"}
    ),
}

# The two literal parsers name the failing position; the others may give any
# ValueError.  Besides ASCII digits the grammar has digits that ``int`` or
# ``str.isdigit`` also take: Arabic-Indic three, superscript two, underscore.
SYNTAX_ERRORS = {"parse_laurent": LaurentSyntaxError, "parse_slope": CurveSyntaxError}
# Parsers without comment lines: nothing they accept holds a non-ASCII digit.
NO_COMMENTS = sorted(set(PARSERS) - {"parse_sequence_table"})

_GRAMMAR = "0123456789-+^q:,()# \nTSUg_\u0663\u00b2"
texts = st.one_of(st.text(max_size=40), st.text(alphabet=_GRAMMAR, max_size=40))


def _foreign_digit(text: str) -> bool:
    return "_" in text or any(ch.isdigit() and not ch.isascii() for ch in text)


@pytest.mark.parametrize("name", sorted(PARSERS))
@given(text=texts)
def test_parsers_raise_only_value_error(name, text):
    try:
        PARSERS[name](text)
    except SYNTAX_ERRORS.get(name, ValueError):
        return
    if name in NO_COMMENTS:
        assert not _foreign_digit(text)


# ``int`` reads "٣" as 3 and "1_0" as 10 and refuses "²" without a position;
# the parsers refuse all three and name where.
FOREIGN_DIGITS = [
    (parse_laurent, "\u0663q", LaurentSyntaxError, 0),
    (parse_laurent, "q^\u00b2", LaurentSyntaxError, 2),
    (parse_laurent, "2q^1_0", LaurentSyntaxError, 4),
    # Positions count in the literal as given, whitespace included.
    (parse_laurent, "1 + x", LaurentSyntaxError, 4),
    (parse_laurent, "2 q^ x", LaurentSyntaxError, 5),
    (parse_laurent, " 3q^-2 + 1 +", LaurentSyntaxError, 12),
    (parse_slope, "(\u0661,\u0662)", CurveSyntaxError, 1),
    (parse_slope, "(1_0,2)", CurveSyntaxError, 1),
    (parse_slope, "(1,2_0)", CurveSyntaxError, 3),
    # Positions count in the text as given, leading spaces included.
    (parse_slope, "  (1_0,2)", CurveSyntaxError, 3),
    (parse_slope, " (1,2_0)", CurveSyntaxError, 4),
    (parse_slope, "\t(\u0661,\u0662)", CurveSyntaxError, 2),
    # Spaces inside the parentheses count too: the position is the integer's.
    (parse_slope, "(1, x)", CurveSyntaxError, 4),
    (parse_slope, "( x,1)", CurveSyntaxError, 2),
    # A comma count error points at the second ',', or at the ')'.
    (parse_slope, "(1,2,3)", CurveSyntaxError, 4),
    (parse_slope, "(1,2,)", CurveSyntaxError, 4),
    (parse_slope, "(1)", CurveSyntaxError, 2),
    (parse_slope, "( 1 , 2 , 3 )", CurveSyntaxError, 8),
    (lambda t: parse_power(t, "U"), "U^\u00b2", CurveSyntaxError, 2),
    (lambda t: parse_power(t, "U"), " U^\u0663", CurveSyntaxError, 3),
]


@pytest.mark.parametrize("parse,text,error,position", FOREIGN_DIGITS)
def test_foreign_digits_are_syntax_errors(parse, text, error, position):
    with pytest.raises(error) as info:
        parse(text)
    assert info.value.position == position
    assert f"at position {position} in {text!r}" in str(info.value)


@pytest.mark.parametrize("index", ["\u0661", "1_0", "\u00b9"])
def test_sequence_index_is_ascii(index):
    with pytest.raises(ValueError, match=f"line 2: bad index {index!r}"):
        parse_sequence_table(f"0: 1\n{index}: 0 1\n", "t")


# -- element JSON: a malformed term is one ValueError line naming it ------------

LOADERS = {
    "torus": (skein_torus, "(1,2)"),
    "punctured-torus": (skein_ptorus, {"slope": "(1,2)", "u": 1}),
    "sphere": (skein_s04, {"slope": "(1,2)", "g": [0, 1, 0, 2]}),
}
NOT_A_SLOPE = {"torus": 5, "punctured-torus": {"slope": 5}, "sphere": {"slope": [1, 2]}}

BAD_TERMS = {
    "no label": lambda label: {"coeff": {"0": 1}},
    "no coeff": lambda label: {"label": label},
    "not an object": lambda label: [label, {"0": 1}],
    "coeff is a number": lambda label: {"label": label, "coeff": 3},
    "coeff is a list": lambda label: {"label": label, "coeff": [[0, 1]]},
    "float coefficient": lambda label: {"label": label, "coeff": {"0": 1.5}},
    "bool coefficient": lambda label: {"label": label, "coeff": {"0": True}},
    "foreign-digit exponent": lambda label: {"label": label, "coeff": {"\u0663": 1}},
    "underscore exponent": lambda label: {"label": label, "coeff": {"1_0": 1}},
    "bad exponent": lambda label: {"label": label, "coeff": {"q": 1}},
    "padded exponent": lambda label: {"label": label, "coeff": {" 1 ": 3}},
    "padded coefficient": lambda label: {"label": label, "coeff": {"0": "7 "}},
}


def _element(surface: str, term) -> dict:
    module, label = LOADERS[surface]
    good = {"label": label, "coeff": {"-2": 3, "1": "-12345678901234567890"}}
    return {"surface": module.SURFACE, "basis": "that", "terms": [good, term]}


def _assert_refuses_term_1(surface: str, term):
    with pytest.raises(ValueError) as info:
        LOADERS[surface][0].element_from_json(_element(surface, term))
    message = str(info.value)
    assert message.startswith("term 1: ") and "\n" not in message, message


@pytest.mark.parametrize("surface", sorted(LOADERS))
@pytest.mark.parametrize("case", sorted(BAD_TERMS))
def test_loaders_refuse_malformed_terms(surface, case):
    _assert_refuses_term_1(surface, BAD_TERMS[case](LOADERS[surface][1]))


@pytest.mark.parametrize("surface", sorted(LOADERS))
def test_loaders_refuse_a_slope_that_is_not_a_string(surface):
    _assert_refuses_term_1(surface, {"label": NOT_A_SLOPE[surface], "coeff": {"0": 1}})


def test_sphere_loader_refuses_exponents_that_are_not_a_list():
    # A string of digits would otherwise be read one character per exponent.
    label = {"slope": None, "g": "0102"}
    _assert_refuses_term_1("sphere", {"label": label, "coeff": {"0": 1}})


# A misspelt key, or the other punctured surface's key, is not dropped.
UNKNOWN_KEYS = [
    ("punctured-torus", {"slop": "(1,0)"}, "slop"),
    ("punctured-torus", {"slope": "(1,0)", "g": [1, 0, 0, 0]}, "g"),
    ("sphere", {"slop": "(1,0)"}, "slop"),
    ("sphere", {"slope": "(1,0)", "u": 1}, "u"),
]


@pytest.mark.parametrize("surface,label,key", UNKNOWN_KEYS)
def test_loaders_refuse_unknown_label_keys(surface, label, key):
    with pytest.raises(ValueError, match=f"^term 1: unknown label key '{key}'"):
        LOADERS[surface][0].element_from_json(
            _element(surface, {"label": label, "coeff": {"0": 1}})
        )


@pytest.mark.parametrize("surface", sorted(LOADERS))
def test_loaders_refuse_a_malformed_envelope(surface):
    module = LOADERS[surface][0]
    for obj in ([], {"surface": module.SURFACE, "terms": {"label": "1"}}):
        with pytest.raises(ValueError):
            module.element_from_json(obj)
    for basis in (None, 5, [1], {}):
        obj = {"surface": module.SURFACE, "basis": basis, "terms": []}
        with pytest.raises(ValueError, match="^'basis' is not a string: "):
            module.element_from_json(obj)


@pytest.mark.parametrize("surface", sorted(LOADERS))
def test_loaders_read_a_well_formed_term(surface):
    module, label = LOADERS[surface]
    term = {"label": label, "coeff": {"0": 1}}
    elem = module.element_from_json(_element(surface, term))
    assert module.element_from_json(elem.to_json_obj()) == elem


@pytest.mark.parametrize(
    "value", [1.5, 2.0, True, False, None, [1], "1.5", "1_0", "\u0663", " 3", "7 "]
)
def test_laurent_json_coefficients_are_integers(value):
    with pytest.raises(ValueError):
        Laurent.from_json_obj({"0": value})


json_keys = st.sampled_from(["slope", "u", "g", "0", "1", "label", "coeff"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(alphabet="(),0123456789-q_ g\u0663", max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=3),
    max_leaves=8,
)
laurent_objects = st.dictionaries(st.text(max_size=3), json_values, max_size=3)
terms = st.one_of(
    json_values,
    st.fixed_dictionaries({"label": json_values, "coeff": json_values}),
    st.fixed_dictionaries({"label": json_values, "coeff": laurent_objects}),
)


@pytest.mark.parametrize("surface", sorted(LOADERS))
@given(term=terms)
def test_loaders_raise_only_value_error(surface, term):
    try:
        LOADERS[surface][0].element_from_json(_element(surface, term))
    except ValueError as exc:
        message = str(exc)
        assert message.startswith("term 1: ") and "\n" not in message, message


# -- the CLI answers bad input with one error line and exit 1 ------------------

BAD_LABELS = [
    ("tor", "(1,", "(0,1)"),
    ("tor", "(0,0)", "(0,1)"),
    ("tor", "(1,x)", "1"),
    ("ptor", "T(1,x)", "U"),
    ("ptor", "U^0", "U"),
    ("ptor", "(1,0)", "U"),
    ("s04", "g5", "S(1,0)"),
    ("s04", "g1^-1", "S(0,1)"),
    ("s04", "S(1,0", "S(0,1)"),
    ("s04", "X(1,0)", "S(0,1)"),
    ("tor", "(\u0661,\u0662)", "(0,1)"),
    ("tor", "(1_0,2)", "(0,1)"),
    ("ptor", "U^\u00b2", "U"),
    ("s04", "g1^\u0663", "S(0,1)"),
]

BAD_FILES = {
    "not-monic": b"0: 1\n1: 0 2\n",
    "missing-index": b"0: 1\n2: 0 0 1\n",
    "bad-index": b"x: 1\n",
    "bad-literal": b"0: 1\n1: q^ 1\n",
    "empty": b"",
    "duplicate": b"0: 1\n0: 1\n",
    "too-short": b"0: 1\n1: 0 1\n",
    "not-utf8": b"0: 1\n1: 0 \xff\n",
    "foreign-digit": "0: 1\n1: 0 1\n2: \u0662 0 1\n".encode(),
    "underscore-index": b"0: 1\n1: 0 1\n0_2: -2 0 1\n",
}


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("surface,a,b", BAD_LABELS)
def test_cli_bad_label(surface, a, b):
    _assert_one_error_line(*_run(surface, "mul", a, b))


@pytest.mark.parametrize("surface,a,b", [("ptor", "T (1,x)", "U"), ("s04", "S (1,x)", "g1")])
def test_cli_error_position_counts_leading_spaces(surface, a, b):
    # The slope after the letter is " (1,x)", whose index 4 is the x.
    code, out, err = _run(surface, "mul", a, b)
    assert (code, out) == (1, "")
    assert err == "error: bad integer 'x' at position 4 in ' (1,x)'\n"


@pytest.mark.parametrize("surface", ["punctured-torus", "sphere"])
def test_json_slope_error_position_counts_leading_spaces(surface):
    with pytest.raises(ValueError, match=r"at position 4 in ' \(1,x\)'$"):
        LOADERS[surface][0].element_from_json(
            _element(surface, {"label": {"slope": " (1,x)"}, "coeff": {"0": 1}})
        )


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_cli_bad_sequence_file(tmp_path, name):
    path = tmp_path / "seq.txt"
    path.write_bytes(BAD_FILES[name])
    argv = ["tor", "mul", "(2,1)", "(0,1)", "--basis", f"file:{path}"]
    code, out, err = _run(*argv)
    _assert_one_error_line(code, out, err)
    if name == "bad-literal":
        assert f"file:{path}, line 2: " in err, err


def test_cli_unreadable_sequence_file(tmp_path):
    _assert_one_error_line(*_run("order", "leq", f"file:{tmp_path}", "s"))
    _assert_one_error_line(*_run("order", "leq", f"file:{tmp_path / 'none'}", "s"))
