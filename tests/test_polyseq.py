import doctest
import random

import pytest

from skeinalg import polyseq
from skeinalg.laurent import Laurent, ONE, ZERO, const, parse_laurent, q_power
from skeinalg.polyseq import (
    CHEB_S,
    MONOMIAL,
    THAT,
    Poly1,
    PolySeq,
    X,
    chebyshev,
    expand_in,
    parse_sequence_table,
    seq_leq,
    substitute_t,
)
from skeinalg.positivity import perturbed_that


def test_doctests():
    failures, _ = doctest.testmod(polyseq)
    assert failures == 0


def test_chebyshev_values():
    assert chebyshev("T_hat", 2) == Poly1([-2, 0, 1])
    assert chebyshev("S", 2) == Poly1([-1, 0, 1])
    assert chebyshev("T_hat", 0) == Poly1([1])
    assert chebyshev("T", 0) == Poly1([2])
    assert chebyshev("T", 2) == chebyshev("T_hat", 2)
    assert chebyshev("T", 5) == chebyshev("T_hat", 5)


def test_substitute_t_characterization():
    for n in range(65):
        t_val = substitute_t(chebyshev("T", n))
        expected = Laurent({n: 1, -n: 1}) if n else const(2)
        assert t_val == expected
        s_val = substitute_t(chebyshev("S", n))
        assert s_val == Laurent({n - 2 * i: 1 for i in range(n + 1)})


def test_substitute_t_constant():
    assert substitute_t(Poly1([1])) == ONE


def test_substitute_t_rejects_q_dependence():
    with pytest.raises(ValueError):
        substitute_t(Poly1([q_power(2), ONE, ONE]))


def test_chebyshev_nesting():
    for m in range(1, 9):
        tm = THAT.poly(m)
        for n in range(1, 9):
            assert tm.compose(THAT.poly(n)) == THAT.poly(m * n)


def test_s_recurrence_consistency():
    for n in range(2, 65):
        assert CHEB_S.poly(n) - CHEB_S.poly(n - 2) == THAT.poly(n)


def test_expand_in_examples():
    assert expand_in(CHEB_S.poly(4), THAT) == [ONE, ZERO, ONE, ZERO, ONE]
    assert expand_in(THAT.poly(2), CHEB_S) == [const(-1), ZERO, ONE]
    assert expand_in(CHEB_S.poly(5), CHEB_S) == [ZERO] * 5 + [ONE]


def test_expand_in_round_trip():
    rng = random.Random(7)
    for basis in (THAT, CHEB_S, MONOMIAL):
        for _ in range(20):
            deg = rng.randrange(0, 8)
            coeffs = [
                Laurent({rng.randrange(-2, 3): rng.randrange(-4, 5)})
                for _ in range(deg)
            ] + [ONE]
            p = Poly1(coeffs)
            exp = expand_in(p, basis)
            rebuilt = Poly1()
            for k, c in enumerate(exp):
                rebuilt = rebuilt + basis.poly(k).scaled(c)
            assert rebuilt == p


@pytest.mark.parametrize(
    "bad,k",
    [(Poly1([0, 0, 2]), 2), (Poly1([0, 1]), 2), (Poly1.monomial(3), 2), (Poly1([2]), 0)],
    ids=["non-monic", "low-degree", "high-degree", "plain-T0"],
)
def test_unnormalized_entry_is_refused_on_first_read(bad, k):
    polys = [bad if n == k else Poly1.monomial(n) for n in range(4)]
    message = f"sequence 'bad' is not normalized at n = {k}: got {bad}"
    lazy = PolySeq("bad", lambda n, prev: polys[n])
    for n in range(k):
        assert lazy.poly(n) == polys[n]
    with pytest.raises(ValueError) as err:
        lazy.poly(3)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        PolySeq.from_polys("bad", polys)
    assert str(err.value) == message


def test_reading_past_the_top_entry():
    for seq, top in (
        (PolySeq.from_polys("table", [Poly1.monomial(n) for n in range(3)]), 2),
        (parse_sequence_table("0: 1\n1: 0 1\n", "file:x"), 1),
        (perturbed_that(3, (1, 0, -1)), 3),
    ):
        assert seq.max_n == top
        seq.poly(top)
        with pytest.raises(ValueError) as err:
            seq.poly(top + 1)
        assert str(err.value) == f"sequence {seq.name!r} is only defined up to n = {top}"


def test_poly_mul():
    assert X * X == Poly1.monomial(2)
    assert expand_in(THAT.poly(1) * THAT.poly(1), THAT) == [
        const(2),
        ZERO,
        ONE,
    ]
    p = Poly1([parse_laurent("q^2"), ONE])
    assert p * Poly1([1]) == p


def test_seq_leq_examples():
    assert seq_leq(THAT, CHEB_S, 20).holds
    res = seq_leq(CHEB_S, THAT, 20)
    assert not res.holds
    assert res.witness == (2, 0, const(-1))
    assert seq_leq(MONOMIAL, MONOMIAL, 20).holds


def test_seq_leq_coefficient_pattern():
    # Type two over type one: ones at the same-parity indices.
    for n in range(65):
        coeffs = expand_in(CHEB_S.poly(n), THAT)
        for k, c in enumerate(coeffs):
            assert c == (ONE if (n - k) % 2 == 0 and k <= n else ZERO)


def _random_normalized(rng, deg):
    polys = []
    for n in range(deg + 1):
        coeffs = [const(rng.randrange(-3, 4)) for _ in range(n)] + [ONE]
        polys.append(Poly1(coeffs))
    return PolySeq.from_polys(f"rand{rng.random()}", polys)


def test_seq_leq_antisymmetry_randomized():
    rng = random.Random(2024)
    deg = 6
    for trial in range(100):
        P = _random_normalized(rng, deg)
        if trial % 3 == 0:
            Q = PolySeq.from_polys("copy", [P.poly(n) for n in range(deg + 1)])
        elif trial % 3 == 1:
            polys = []
            for n in range(deg + 1):
                p = P.poly(n)
                for i in range(n):
                    bump = rng.randrange(0, 3)
                    if bump:
                        p = p + P.poly(i).scaled(bump)
                polys.append(p)
            Q = PolySeq.from_polys("bumped", polys)
        else:
            Q = _random_normalized(rng, deg)
        if seq_leq(P, Q, deg).holds and seq_leq(Q, P, deg).holds:
            for n in range(deg + 1):
                assert P.poly(n) == Q.poly(n)


def test_poly_str():
    assert str(THAT.poly(5)) == "x^5 - 5*x^3 + 5*x"
    assert str(Poly1()) == "0"
    assert str(Poly1([parse_laurent("q^2+q^-2"), ONE])) == "x + (q^-2 + q^2)"
    # A coefficient of more than one term, above degree 0, is bracketed.
    assert str(Poly1([ZERO, parse_laurent("1 + q")])) == "(1 + q)*x"


def test_sequence_table_parsing():
    seq = parse_sequence_table("0: 1\n1: 0 1\n2: -2 0 1\n", "demo")
    assert seq.poly(2) == THAT.poly(2)
    assert seq.max_n == 2
    with pytest.raises(ValueError):
        seq.poly(3)


def test_sequence_table_accepts_laurent_literals():
    seq = parse_sequence_table("0: 1\n1: 0 1\n2: 3q^-2+1 0 1\n", "demo")
    assert seq.poly(2).coeff(0) == parse_laurent("3q^-2+1")


def test_sequence_table_load_errors():
    with pytest.raises(ValueError):
        parse_sequence_table("0: 1\n2: -2 0 1\n", "gap")  # missing n = 1
    with pytest.raises(ValueError):
        parse_sequence_table("0: 1\n1: 0 2\n", "nonmonic")
    with pytest.raises(ValueError):
        parse_sequence_table("0: 1\n1: 0 1\n1: 0 1\n", "dup")
    with pytest.raises(ValueError):
        parse_sequence_table("", "empty")
    with pytest.raises(ValueError):
        parse_sequence_table("1: 1\n", "wrong-arity")


@pytest.mark.parametrize(
    "text,line",
    [("0: 1\n1: 0 1\n-1:\n", 3), ("-1:\n", 1)],
    ids=["after-entries", "only-line"],
)
def test_sequence_table_rejects_negative_index(text, line):
    # A "-1:" line has the zero coefficients its index asks for; it must
    # not be dropped silently, nor fail only when the sequence is used.
    with pytest.raises(ValueError, match=f"neg, line {line}: negative index -1"):
        parse_sequence_table(text, "neg")


def test_builtin_lookup():
    assert polyseq.builtin_sequence("that") is THAT
    with pytest.raises(ValueError):
        polyseq.builtin_sequence("nope")
