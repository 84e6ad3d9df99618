"""Each library refusal raises its own exception type with its own message.

The CLI turns these into one ``error:`` line; here they are checked at the
call that raises them.
"""

import pytest

from skeinalg import curves, positivity, skein_ptorus, skein_s04, skein_torus
from skeinalg.elements import convert, single
from skeinalg.laurent import Laurent
from skeinalg.polyseq import CHEB_S, THAT, chebyshev
from skeinalg.skein_ptorus import PTorusLabel
from skeinalg.skein_s04 import S04Label
from skeinalg.skein_torus import tlabel

_TORUS = single("t10", "that", tlabel(1, 0))
_SPHERE = single("s04", "that", S04Label(curves.curve(1, 0)))

_REFUSALS = [
    ("add-surfaces", lambda: _TORUS + _SPHERE, ValueError,
     "surface mismatch: 't10' vs 's04'"),
    ("add-flavors", lambda: _TORUS + single("t10", "s", tlabel(1, 0)), ValueError,
     "basis flavor mismatch: 'that' vs 's'"),
    ("convert-source", lambda: convert(single("t10", "s", tlabel(1, 0)), CHEB_S, THAT),
     ValueError, "element flavor 's' does not match source 'that'"),
    ("lower-bound-n-max", lambda: positivity.lower_bound_certify(THAT, 1), ValueError,
     "n_max must be at least 2, got 1"),
    ("torus-mul-sphere", lambda: skein_torus.mul(_SPHERE, _SPHERE), ValueError,
     "torus multiplication needs torus elements"),
    ("ptorus-label", lambda: PTorusLabel(None, (-1,)), ValueError,
     "expected a nonnegative exponent for each peripheral curve (U), got (-1,)"),
    ("s04-label", lambda: S04Label(None, (1, 2, 3)), ValueError,
     "expected a nonnegative exponent for each peripheral curve (g1, g2, g3, g4), "
     "got (1, 2, 3)"),
    ("g_closed", lambda: skein_ptorus.g_closed(-1), ValueError,
     "index must be nonnegative"),
    ("g_recursive", lambda: skein_ptorus.g_recursive(-1), ValueError,
     "index must be nonnegative"),
    ("mul_tna_b", lambda: skein_s04.mul_tna_b(-1), ValueError,
     "index must be nonnegative"),
    ("tna_b_by_recurrence", lambda: skein_s04.tna_b_by_recurrence(-1), ValueError,
     "index must be nonnegative"),
    ("g_s04_closed", lambda: skein_s04.g_s04_closed(-1), ValueError,
     "index must be nonnegative"),
    ("mul_sn1_s01", lambda: skein_s04.mul_sn1_s01(-1), ValueError,
     "index must be nonnegative"),
    ("two_way_expansion", lambda: skein_ptorus.two_way_expansion(0), ValueError,
     "need n >= 1"),
    ("poly-index", lambda: THAT.poly(-1), ValueError,
     "sequence index must be nonnegative, got -1"),
    ("chebyshev-kind", lambda: chebyshev("x", 1), ValueError,
     "unknown Chebyshev kind 'x'"),
    ("curve-scale", lambda: curves.curve(1, 0).scaled(0), ValueError,
     "scale factor must be positive"),
    ("laurent-coerce", lambda: Laurent.coerce(1.5), TypeError,
     "cannot interpret 1.5 as a Laurent polynomial"),
    ("json-key", lambda: Laurent.from_json_obj({1: 1}), ValueError,
     "exponent key is not a string: 1"),
    ("json-duplicate", lambda: Laurent.from_json_obj({"1": 1, "01": 2}), ValueError,
     "exponent 1 appears twice"),
]


@pytest.mark.parametrize(
    "call,exc,message",
    [pytest.param(call, exc, msg, id=name) for name, call, exc, msg in _REFUSALS],
)
def test_refusal_type_and_message(call, exc, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message
