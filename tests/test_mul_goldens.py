"""Byte-level goldens for ``ptor mul``, ``s04 mul`` and ``tor mul``.

Each routed product's stdout is pinned by SHA-256, in text and in JSON,
so moving the routing between modules cannot change what users see.  The
``tor mul`` rows read one product in bases other than the type-one one,
so they pin the change of basis both ways.
"""

import contextlib
import hashlib
import io

import pytest

from skeinalg.cli import main

GOLDENS = [
    ("ptor", "T(3,1)", "T(0,1)",
     "47ae3c0c8eb4b4704b171e0de28a8e5ed55e7d6370e59c9fd426f0481e1ecce9",
     "6f66dd601054fc0cdd6a6c51f28cd91b9ada17b97410bd1c4b714dc88016c4f3"),
    ("ptor", "T(0,1)", "T(0,1)",
     "b242dc79dbd92ea00e5abebcb20f7b593d77f44d1c44c972f451d6a512421c21",
     "bdd438eac15006f06e158137d596ac070eca0ef74bd11b3a07ceb2778634f6c1"),
    ("ptor", "T(1,0)", "T(2,2)",
     "b6724b57465d43edb2100f0893629eefd43bc86eaacda85c3676e5011caf2474",
     "fa99f501c10d1efd782a26b3e1323dd1a0cba2810a39ff01ff74360cc8742c37"),
    ("ptor", "T(1,0)", "T(3,2)",
     "e6d4621109ece3e47073acb1cb8da6dd0a7a33a781945dc029ed244f081e2599",
     "a763de0917a181a148888605e30d67ed7816f6163ff4d9a7f4af56c38be0de09"),
    ("ptor", "T(2,1)", "T(1,0)",
     "f4959e0ab3a980c8159c7f57f91e59cfddbc6f74a707dca684d5263a2c302b10",
     "d403e4a4c94a0265bd743f52b289cf4c20e1f5b9cbe11a1fab936d3712d87b55"),
    ("ptor", "U", "T(2,1)",
     "73c41c74f32632cf904d27e82740fd102f05de6a1a5ea70969cae179f60a7f46",
     "19c1c6b53636b12b6d19e680b4a1556d44dfccf6d56d2e16abde85fcb4112a08"),
    ("ptor", "U^2", "U^3",
     "4f704709376910f20e52030a13439083cc77d511ceb6c88e6d6127d54f2aff18",
     "6559b13a9b3a8453438559b0bf17888fca23f8bd57f174b8ce53a96cf0dc90c1"),
    ("s04", "S(2,1)", "S(0,1)",
     "4407056f07ae22c57915de4a286ed3705bf53adaac0e6d57c307c915c225aefd",
     "7b0c53b4709f3ca66108d8a0993bd1474178a42d3e7adc0eada3e70eadcb3db9"),
    ("s04", "S(1,0)", "S(4,2)",
     "1ae4971752eb454da5a241fee2a514591a0c11e2639290f17cdcea14f21b452a",
     "1b13b91e1e52b4d685d79ad9be38241f20d92bd5d2df40e34c9c0ed6efaa8316"),
    ("s04", "S(1,0)", "S(3,2)",
     "d4d4ea7cfe709f2825cd30c63331e5655a597b5eeb2fd6cb9cacd59045c7ef12",
     "e5713adda826720b589a18e924842520d5f74fca16b551ddea976ea3a43eb7d6"),
    ("s04", "S(1,0)", "S(2,1)",
     "b1f3531d0263932ebcdf5c915e8005ac38e94ac7139d19e0246a8809ee9f99cb",
     "db880958de68fb7bcb06ab13f4bda43bc6246560610695d752e21542f3cc163b"),
    ("s04", "S(1,0)", "S(2,0)",
     "6f2f7066ca32475871414d69d2b4f312db4436dbffa61c7ccbe9b2944f252612",
     "f82a3f6cd2293df9cca491759b25a3bd1ee49e52b7a9fb7fad3d590cee529d61"),
    ("s04", "T(1,0)", "T(-2,1)",
     "cf9b8a84744a56e93194d77120221c36b78d171dbc164222e591a64aeba79b4c",
     "fb7b5302db3d957c1bd1c11957551d8eaef677855e90fb1e92b157e271f293ed"),
    ("s04", "T(3,0)", "T(0,1)",
     "b0ac15055d75efcce8940981e713728ffaa159b2a3468fddfaabaa6642df3740",
     "a4e5c394640a76e007303fe5c3724ccf09b265cbe479d48073f4f688be88de23"),
    ("s04", "g1", "S(2,1)",
     "69918dbb52e4203e652381bbd1ed264357f4f1b21bcf46ea4872424574620546",
     "1394ce41c9bb33d6797d9806f9e7f9f9314a2ba2c7e5016075cbf95ab4a55ddf"),
    ("s04", "g2^2", "g3",
     "399272d90ca188bed6e4025cdf05b13e9be65b42c28ffd53a4bbc3b4248e94ca",
     "fffb2e7f632828316dedf40ca3228350ad290cabb5cc790fa3625dc0fc6ab4bc"),
]

# `tor mul "(3,1)" "(2,2)" --basis B`: (basis, exit code, text SHA-256, JSON
# SHA-256).  The file basis is named by a relative path, because the JSON
# carries the basis name.
SEQUENCE_FILE = "0: 1\n1: 0 1\n2: 3q^-2+1 0 1\n3: 0 2q^2-1 0 1\n4: q^-4 0 q^-2+2 0 1\n"
TOR_GOLDENS = [
    ("s", 0,
     "5412b81fa791716aa85169f5a32089e700c37a41255c5b2274082d061e5a7ad7",
     "e414ae42a0b6152cef68c6c20afba828dfc7eaabe84223a8ccd99cd007f47758"),
    ("monomial", 0,
     "704c1348dd2a94acefd5a365193b9da29a920074a0ddf21713423a884d665ad5",
     "44fad3ed121ca4d7ce1455f34426320ef3fca30a778a565bec077d068e6bb178"),
    ("file:seq.txt", 0,
     "764524a56a21faf4c813aa8c9701e5391fb0f3ffd12bcb5f11696c3ba35d50f8",
     "de5e5c4706382df0743fa5f09244f3dbe3947340679f237835e64bf6d38dcb5d"),
]


def _stdout(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("surface,a,b,text_sha,json_sha", GOLDENS)
def test_mul_stdout_golden(surface, a, b, text_sha, json_sha):
    for extra, want in (((), text_sha), (("--json",), json_sha)):
        code, out = _stdout(surface, "mul", a, b, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("surface", ["ptor", "s04"])
def test_mul_type_one_power_of_10(surface):
    # T̂_1 T̂_2 = T̂_3 + T̂_1 on the (1,0) curve.
    assert _stdout(surface, "mul", "T(1,0)", "T(2,0)") == (0, "(1,0) + (3,0)\n")


@pytest.mark.parametrize("basis,code,text_sha,json_sha", TOR_GOLDENS)
def test_tor_mul_basis_golden(tmp_path, monkeypatch, basis, code, text_sha, json_sha):
    (tmp_path / "seq.txt").write_text(SEQUENCE_FILE)
    monkeypatch.chdir(tmp_path)
    argv = ["tor", "mul", "(3,1)", "(2,2)", "--basis", basis]
    for extra, want in (((), text_sha), (("--json",), json_sha)):
        got_code, out = _stdout(*argv, *extra)
        assert (got_code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, want)
