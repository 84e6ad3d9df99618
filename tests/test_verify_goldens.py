"""Byte-level goldens for ``ptor verify``, ``s04 verify``, the two
``extract`` commands and ``s04 force-p1``.

Each case pins the exit code and the SHA-256 of stdout, in text and in
JSON.  Every check is pinned on its pass path and on a failure path, made
by patching one rule the check reaches by module name to be wrong at one
index (``h-positive`` never fails, so its patched case flips one
observation).  Moving the checks between modules cannot change what users
see, including the failure records.
"""

import contextlib
import hashlib
import io

import pytest

from skeinalg import skein_ptorus, skein_s04
from skeinalg.cli import main
from skeinalg.curves import curve
from skeinalg.elements import single
from skeinalg.laurent import q_power
from skeinalg.polyseq import Poly1


def _s04_term(r, s, e):
    return single(skein_s04.SURFACE, "s", skein_s04.S04Label(curve(r, s)), q_power(e))


# Patches: (module, rule name, index, term added to the rule's value there).
PATCHES = {
    "g_closed@3": (skein_ptorus, "g_closed", 3, Poly1.const(1)),
    "mul_t10_tn2@3": (
        skein_ptorus,
        "mul_t10_tn2",
        3,
        single(skein_ptorus.SURFACE, "that", skein_ptorus.PT_EMPTY),
    ),
    "mul_tna_b@2": (
        skein_s04,
        "mul_tna_b",
        2,
        single(skein_s04.SURFACE, "that", skein_s04.S04_EMPTY),
    ),
    "mul_a_bn@-3": (
        skein_s04,
        "mul_a_bn",
        -3,
        single(skein_s04.SURFACE, "s", skein_s04.S04_EMPTY),
    ),
    "mul_a_bn@1": (
        skein_s04,
        "mul_a_bn",
        1,
        single(skein_s04.SURFACE, "s", skein_s04.S04_EMPTY, q_power(-30)),
    ),
    "g_s04_closed@3": (skein_s04, "g_s04_closed", 3, _s04_term(2, 1, 20)),
    "g_s04_closed@1": (skein_s04, "g_s04_closed", 1, _s04_term(1, 1, 0)),
}

# (id, argv, patch or None, exit code, text SHA-256, JSON SHA-256)
GOLDENS = [
    ("ptor-g-closed", ["ptor", "verify", "g-closed", "--n-max", "10"], None, 0,
     "3e751a8a066b1df857e052149588273dfebc58847f345ae22cb8ad886e3c9784",
     "6c03d40d83d479326beffc716654c02607ba5a4a1c53ba7ff7eb75959fde7aac"),
    ("ptor-g-closed-fails", ["ptor", "verify", "g-closed", "--n-max", "10"], "g_closed@3", 2,
     "6b4450a7b92b3adc26d43c873a78037a24928301edc4c60a6bfe86855f9b8159",
     "125004478b6a9a273196c41241f525e32d1d5e0e51fa9cf757137560316d2928"),
    ("ptor-consistency", ["ptor", "verify", "consistency", "--n-max", "8"], None, 0,
     "89988b4113dd4a513bf8ce98bd0194281e93543ccd6d4b9a87dc420855a6be1e",
     "3ff336debee04968aa505ac698d6379a9421bb1daf0e6a4d9daa31ba41c64a4f"),
    ("ptor-consistency-fails", ["ptor", "verify", "consistency", "--n-max", "8"], "mul_t10_tn2@3", 2,
     "ccf2de3407329a46c496d7f58211aa426f112f8265b55397d0a6606ff2024c33",
     "13088be3fce02b83a333bcc8d3007ff89b244454253c8e9f38bd52977f2003f0"),
    ("s04-h-bounds", ["s04", "verify", "h-bounds", "--n-max", "6"], None, 0,
     "e2f238c00f7de7da9541f483eea5bf2c339f53ce982f91cb770a95ccc2503097",
     "54e814176e7cff47749fae914815d9d54036f3780787207870af9264db7ab7a5"),
    ("s04-h-bounds-fails", ["s04", "verify", "h-bounds", "--n-max", "6"], "g_s04_closed@3", 2,
     "7e7496a179de2671386bde51eacc9ed6170d6489bc9f29a6718cba51887ff75e",
     "2197dbb56f6ffd3f47d9abe07348c64319cb4c5b3ec5f6873edffdad0f070705"),
    ("s04-tna-b", ["s04", "verify", "tna-b", "--n-max", "8"], None, 0,
     "7c5377b85f388bea95cbe6c9ce74b8bea9856f24e67f604cf52a15860d59fed3",
     "c8f3ed2994e3dfff354d2889a4620b555e831a98187edf02b713243ecd9a4798"),
    ("s04-tna-b-fails", ["s04", "verify", "tna-b", "--n-max", "8"], "mul_tna_b@2", 2,
     "ec5a7f57adbebf152f7a37ca8ff22086304ffa957211e65604809af0bca3b952",
     "947eb719ddcda4a3b45e09c3b7f63c521b89f5749cd6486b2297b5e8993bbb54"),
    ("s04-sigma", ["s04", "verify", "sigma", "--n-max", "5"], None, 0,
     "bf7ad58bbc0fc97eec8d28a35c977b091df934a6527da1b2fa82fc8f65a002b0",
     "674f150cd476d506b3bdf7f948e7368fe8091b4f21bd6bd1b602f46fba33e5fc"),
    ("s04-sigma-fails", ["s04", "verify", "sigma", "--n-max", "5"], "mul_a_bn@-3", 2,
     "21fdc29dcb002f0bc3cb2d2fbbbbe627fc3156da5059a3d7bc42fbfa953ec5d3",
     "da66107a8164416e96706b5bf772cc8a1e4eb17734c74e665388c3a234b6bd44"),
    ("s04-h-positive", ["s04", "verify", "h-positive", "--n-max", "6"], None, 0,
     "b5f53f5f4ab76fab3fdd323042dbd0a2e10be8ff2d205cf41836d8e361e15e17",
     "10d82f60560094566ea7c0cbfe10816c6ca98785f13674b371b8bb1633a46d31"),
    ("s04-h-positive-changed", ["s04", "verify", "h-positive", "--n-max", "6"], "g_s04_closed@1", 0,
     "68613e40f9dcbe1a40a815beac8e8b7649efd54b7e4f4cf15e857f147a661a1f",
     "b8efc0aef1aa6bccd2481858baee7da9ef679a0e565ff674bc8094ff056556c9"),
    ("ptor-extract", ["ptor", "extract", "--seq", "s", "--n", "6"], None, 0,
     "d1dcec7498d45971d1c15601c2a67f322b3af7bd5f0be1e4795b5952e90bf58b",
     "fbd0567dd781e37dda8932b9384adf03a1153d7795a4c417ef00a0687c3bac5e"),
    ("s04-extract", ["s04", "extract", "--n", "5"], None, 0,
     "8073a24b35e642e854161398d9f45f688d47d155cc239c6143790ddd26bef87b",
     "ce0ed8f7a7ed35a13351964b108a968293523a9201ff41d00cca23e4e641f867"),
    ("s04-extract-fails", ["s04", "extract", "--n", "5"], "mul_a_bn@1", 2,
     "c492cb392cf58d9990994cdd41634104d4b3f434f50b461c046591a3b76523b7",
     "2e619d6018dfc35410fa771554376fe558534310bebd105e0d52d78e50661f76"),
    ("ptor-extract-monomial", ["ptor", "extract", "--seq", "monomial", "--n", "9"], None, 0,
     "0c3c801ac42c3c0c4a02650c674a3e2c4c686fa75c573d122a8342344b9fe33a",
     "191e9db766f9e5fd09894ddd1b51ab9cba0e24d3239dc26d635c5428fc853637"),
    ("s04-force-p1-d-3", ["s04", "force-p1", "--delta=-3"], None, 2,
     "e06e14e9ff6e67ce0b0f9d86dae148fc0b68d5994ef54d4864f839f7269384d3",
     "a952e6766531a514105643d39f30421503393f96b84e73e914f177d960005e6d"),
    ("s04-force-p1-d-1", ["s04", "force-p1", "--delta=-1"], None, 2,
     "62546e6c468e2cb79422debdb7c4d231a7fe5e304a9bb10c044284365ddd6c7f",
     "9b4f5d518c651e2619043d32658fa94f20425a9ac1da6ca1ec8706af28ed1a5d"),
    ("s04-force-p1-d1", ["s04", "force-p1", "--delta=1"], None, 2,
     "d751f5fa913226816b95cb3652d5d49ca31bf77470e4202cedf4a01d909c6507",
     "3d3df059f7a72cca4903eac67bc566da48fc6792d1e5496bdb2da54823b31c0c"),
    ("s04-force-p1-d2", ["s04", "force-p1", "--delta=2"], None, 2,
     "b23e99e9ec77fcff8e6e623ff7806749680f3ada24d43312d72063ce26af7f79",
     "e49d10b9c0c3c022503fff503a4031dfd961dd6d77c8bb51736c6dc022832042"),
    ("s04-force-p1-d5", ["s04", "force-p1", "--delta=5"], None, 2,
     "7b92b5d30fc6703a8bf144379ee0f56889e154c36b35bc70bb2c7e0830ee8110",
     "8c8d6e4dde7ca4d9f29b1ed89348697666c33cc76a5a313a67a3df9a6984ce1e"),
]


def _stdout(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _apply(monkeypatch, patch):
    if patch is None:
        return
    module, name, index, bump = PATCHES[patch]
    original = getattr(module, name)

    def wrong(n, *rest):
        value = original(n, *rest)
        return value + bump if n == index else value

    monkeypatch.setattr(module, name, wrong)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv,patch,code,text_sha,json_sha",
    [pytest.param(*case[1:], id=case[0]) for case in GOLDENS],
)
def test_verify_stdout_golden(monkeypatch, argv, patch, code, text_sha, json_sha):
    _apply(monkeypatch, patch)
    for extra, want in (((), text_sha), (("--json",), json_sha)):
        got_code, out = _stdout(*argv, *extra)
        assert (got_code, _sha(out)) == (code, want)
