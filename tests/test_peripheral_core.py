"""Refusals of the shared element core: left multiplication by (1,0) and
the JSON envelope of an element, on each surface."""

import pytest

from skeinalg import skein_ptorus, skein_s04, skein_torus
from skeinalg.curves import curve
from skeinalg.elements import single
from skeinalg.skein_ptorus import PTorusLabel, plabel
from skeinalg.skein_s04 import S04Label, slabel
from skeinalg.skein_torus import tlabel


_FOREIGN = {
    "t10": single(skein_torus.SURFACE, "that", tlabel(1, 0)),
    "t11": single(skein_ptorus.SURFACE, "that", plabel(1, 0)),
    "t11-s": single(skein_ptorus.SURFACE, "s", plabel(1, 0)),
    "s04-s": single(skein_s04.SURFACE, "s", slabel(1, 0)),
    "s04-that": single(skein_s04.SURFACE, "that", slabel(1, 0)),
}

_LEFT = [
    (skein_ptorus.mul_by_t10, "mul_by_t10 expects a 'that'-flavor element", "t11"),
    (skein_s04.mul_by_a, "mul_by_a expects a 'that'-flavor element", "s04-that"),
    (skein_s04.mul_by_s10, "mul_by_s10 expects a 's'-flavor element", "s04-s"),
]


@pytest.mark.parametrize("mul,message,own", _LEFT, ids=[m[1].split()[0] for m in _LEFT])
def test_left_multiplication_refuses_other_elements(mul, message, own):
    for key, elem in _FOREIGN.items():
        if key == own:
            assert mul(elem).surface == elem.surface
            continue
        with pytest.raises(ValueError) as err:
            mul(elem)
        assert str(err.value) == message


_JSON = [
    (skein_torus, tlabel(2, 1), "that"),
    (skein_ptorus, PTorusLabel(curve(2, 1), (2,)), "that"),
    (skein_s04, S04Label(curve(2, 1), (0, 1, 0, 2)), "s"),
]


@pytest.mark.parametrize("module,label,default", _JSON, ids=["t10", "t11", "s04"])
def test_element_json_without_basis_loads_in_default_flavor(module, label, default):
    obj = single(module.SURFACE, "monomial", label, 3).to_json_obj()
    del obj["basis"]
    assert module.element_from_json(obj) == single(module.SURFACE, default, label, 3)


@pytest.mark.parametrize("module", [m for m, _, _ in _JSON], ids=["t10", "t11", "s04"])
def test_element_json_refuses_other_surfaces(module):
    for other, label, default in _JSON:
        if other is module:
            continue
        obj = single(other.SURFACE, default, label).to_json_obj()
        with pytest.raises(ValueError) as err:
            module.element_from_json(obj)
        message = str(err.value)
        assert "\n" not in message
        assert repr(module.SURFACE) in message and repr(other.SURFACE) in message
