import doctest

import pytest
from hypothesis import given, strategies as st

from skeinalg import laurent
from skeinalg.laurent import (
    Laurent,
    LaurentSyntaxError,
    ONE,
    Q,
    QINV,
    ZERO,
    const,
    parse_laurent,
    q_power,
    quantum_int,
)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(Laurent)


def test_doctests():
    failures, _ = doctest.testmod(laurent)
    assert failures == 0


def test_add_cancellation():
    assert (Q + QINV) + (-QINV) == Q


def test_add_identity():
    p = parse_laurent("3q^2-1")
    assert p + ZERO == p


def test_add_like_terms():
    assert parse_laurent("q^2+1") + parse_laurent("q^2-1") == Laurent({2: 2})


def test_mul_square():
    assert (Q + QINV) * (Q + QINV) == parse_laurent("q^2+2+q^-2")


def test_mul_unit_pair():
    assert Q * QINV == ONE


def test_mul_annihilator():
    assert parse_laurent("q^2+q^-2") * ZERO == ZERO


def test_quantum_int_values():
    assert quantum_int(1) == ONE
    assert quantum_int(2) == parse_laurent("q^2+q^-2")
    assert quantum_int(3) == parse_laurent("q^4+1+q^-4")
    with pytest.raises(ValueError):
        quantum_int(0)


def test_is_positive():
    assert parse_laurent("q^2+q^-2").is_positive()
    assert not parse_laurent("-q^2-q^-2").is_positive()
    assert ZERO.is_positive()


def test_q_degree_range():
    assert parse_laurent("q^3+q^-1").q_degree_range() == (-1, 3)
    assert const(5).q_degree_range() == (0, 0)
    assert ZERO.q_degree_range() is None


def test_specialize_q1():
    assert parse_laurent("q^2+q^-2").specialize_q1() == 2
    assert parse_laurent("q-q^-1").specialize_q1() == 0
    assert ZERO.specialize_q1() == 0


def test_is_positive_at_q1():
    # With q1 the predicate reads the value at q = 1, not the signs.
    assert parse_laurent("2q-q^-1").is_positive(q1=True)
    assert not parse_laurent("2q-q^-1").is_positive()
    assert not parse_laurent("q-2").is_positive(q1=True)
    assert ZERO.is_positive(q1=True)


def test_invert_q():
    assert parse_laurent("2q^3-q^-1").invert_q() == parse_laurent("2q^-3-q")


def test_pow():
    assert (Q + QINV) ** 0 == ONE
    assert Q**-3 == q_power(-3)
    with pytest.raises(ValueError):
        (Q + QINV) ** -1


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurents, laurents)
def test_positive_part_closed(a, b):
    if a.is_positive() and b.is_positive():
        assert (a + b).is_positive()
        assert (a * b).is_positive()


@given(laurents)
def test_positive_cone_is_pointed(a):
    if a.is_positive() and (-a).is_positive():
        assert a == ZERO


@given(laurents, laurents)
def test_specialize_q1_is_ring_hom(a, b):
    assert (a + b).specialize_q1() == a.specialize_q1() + b.specialize_q1()
    assert (a * b).specialize_q1() == a.specialize_q1() * b.specialize_q1()


@given(st.one_of(laurents, st.integers().map(const)), st.integers())
def test_equal_to_an_int_means_same_hash(p, n):
    # Constants are drawn often enough that p == n is tried both ways.
    for m in (n, p.specialize_q1()):
        if p == m:
            assert hash(p) == hash(m)
            assert p in {m} and m in {p}


def test_constants_and_ints_share_set_and_dict_slots():
    assert len({0, ZERO}) == 1
    assert {0: "x"}.get(ZERO) == "x"
    assert hash(const(3)) == hash(3) and const(3) == 3
    assert hash(const(-(10**40))) == hash(-(10**40))
    assert Q != 1 and ONE + Q != 2


def test_json_round_trip():
    p = parse_laurent("q^2+q^-2")
    assert p.to_json_obj() == {"-2": 1, "2": 1}
    assert Laurent.from_json_obj(p.to_json_obj()) == p


def test_json_big_coefficients_as_strings():
    big = 2**60 + 7
    p = Laurent({0: big, 1: -3})
    obj = p.to_json_obj()
    assert obj["0"] == str(big)
    assert obj["1"] == -3
    assert Laurent.from_json_obj(obj) == p


def test_parse_literals():
    assert parse_laurent("3q^-2+1") == Laurent({-2: 3, 0: 1})
    assert parse_laurent("-q^2-q^-2") == Laurent({2: -1, -2: -1})
    assert parse_laurent("q") == Q
    assert parse_laurent("-7") == const(-7)
    assert parse_laurent("0") == ZERO
    assert parse_laurent(" 2q ^ 3 + 1 ") == Laurent({3: 2, 0: 1})


def test_parse_errors_carry_position():
    with pytest.raises(LaurentSyntaxError) as info:
        parse_laurent("3q^")
    assert info.value.position == 3
    with pytest.raises(LaurentSyntaxError):
        parse_laurent("")
    with pytest.raises(LaurentSyntaxError):
        parse_laurent("q2")  # missing '+' between terms


def test_str_ascending_exponents():
    assert str(parse_laurent("q^2+q^-2+2")) == "q^-2 + 2 + q^2"
    assert str(ZERO) == "0"
    assert str(parse_laurent("-q^2-3")) == "-3 - q^2"


def test_operators_defer_to_the_other_operand():
    from skeinalg.elements import single
    from skeinalg.skein_torus import tlabel

    elem = single("t10", "that", tlabel(1, 0), 3)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(Q, op)(elem) is NotImplemented
        assert getattr(Q, op)(1.5) is NotImplemented
    assert q_power(1) * elem == elem.scaled(Q)
    assert Q * elem == single("t10", "that", tlabel(1, 0), Laurent({1: 3}))
    with pytest.raises(TypeError, match="unsupported operand"):
        Q + elem
    with pytest.raises(TypeError, match="unsupported operand"):
        Q * 1.5
    with pytest.raises(TypeError, match="cannot interpret"):
        Laurent.coerce(1.5)
