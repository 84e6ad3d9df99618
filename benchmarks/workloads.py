"""The benchmark's workloads: the CLI calls each one makes, and its size.

Each workload is a list of ``skein`` argument lists run in one cold worker
process, in order.  Sizes are chosen so that one worker takes a few seconds;
README.md gives the reasons for each choice.
"""

from __future__ import annotations

import itertools

TORUS_BOUND = 9
UNIQUE_N_MAX, UNIQUE_BOX = 5, 3
SPHERE_N_MAX = 40
PTOR_CONSISTENCY_N_MAX, PTOR_GCLOSED_N_MAX = 70, 80


def torus_label_count(bound: int) -> int:
    """Canonical slopes with |r|, |s| <= bound: (r,0) for r > 0, then every
    r for each s > 0."""
    return bound + bound * (2 * bound + 1)


def perturbation_count(n_max: int, box: int) -> int:
    """Nonzero perturbation vectors the uniqueness enumeration checks."""
    return sum((2 * box + 1) ** level - 1 for level in range(2, n_max + 1))


def _scan(basis: str) -> list[str]:
    return ["tor", "scan", "--basis", basis, "--bound", str(TORUS_BOUND), "--json"]


WORKLOADS: dict[str, dict] = {
    "torus-scan": {
        "calls": [_scan("s"), _scan("that")],
        "work": 2 * torus_label_count(TORUS_BOUND) ** 2,
        "work_unit": "ordered label pairs",
        # The scan multiplies once per ordered pair.
        "work_counter": "skein_torus.mul",
    },
    "torus-unique": {
        "calls": [
            [
                "certify", "torus-unique",
                "--n-max", str(UNIQUE_N_MAX), "--box", str(UNIQUE_BOX), "--json",
            ]
        ],
        "work": perturbation_count(UNIQUE_N_MAX, UNIQUE_BOX),
        "work_unit": "perturbations",
        "work_counter": "positivity.perturbations",
    },
    "sphere-tower": {
        "calls": [
            ["s04", "verify", "h-bounds", "--n-max", str(SPHERE_N_MAX), "--json"],
            ["s04", "verify", "tna-b", "--n-max", str(SPHERE_N_MAX), "--json"],
        ],
        # h-bounds checks n = 1..n_max, tna-b checks n = 0..n_max.
        "work": SPHERE_N_MAX + (SPHERE_N_MAX + 1),
        "work_unit": "tower indices",
    },
    "ptorus-tower": {
        "calls": [
            [
                "ptor", "verify", "consistency",
                "--n-max", str(PTOR_CONSISTENCY_N_MAX), "--json",
            ],
            ["ptor", "verify", "g-closed", "--n-max", str(PTOR_GCLOSED_N_MAX), "--json"],
        ],
        # consistency checks n = 2..n_max, g-closed checks n = 0..n_max.
        "work": (PTOR_CONSISTENCY_N_MAX - 1) + (PTOR_GCLOSED_N_MAX + 1),
        "work_unit": "tower indices",
    },
}

# Per-layer metrics that a traced run of each workload must read nonzero:
# the layers the workload was chosen to exercise.  skein_ptorus.mul_once is
# absent: neither ptor verify path reaches it.
EXERCISED: dict[str, list[str]] = {
    "torus-scan": [
        "laurent.ops", "laurent.self_s", "curves.hashes", "curves.self_s",
        "polyseq.coeff_hits", "elements.built", "elements.label_hashes",
        "elements.self_s", "skein_torus.fg_mul", "skein_torus.mul",
        "skein_torus.convert", "skein_torus.self_s", "reports.witnesses",
        "cli.out_bytes", "cli.self_s",
    ],
    "torus-unique": [
        "laurent.ops", "laurent.self_s", "polyseq.expand_calls",
        "polyseq.coeff_misses", "polyseq.seqs_built", "polyseq.self_s",
        "elements.built", "skein_torus.fg_mul", "skein_torus.convert",
        "skein_torus.self_s", "positivity.perturbations", "positivity.self_s",
    ],
    "sphere-tower": [
        "laurent.ops", "laurent.self_s", "elements.built", "elements.label_hashes",
        "elements.self_s", "polyseq.expand_calls", "skein_s04.mul_a_bn",
        "skein_s04.mul_tna_b", "skein_s04.mul_by_a", "skein_s04.mul_by_s10",
        "skein_s04.mul_sn1_s01", "skein_s04.g_s04_closed", "skein_s04.self_s",
    ],
    "ptorus-tower": [
        "laurent.ops", "laurent.self_s", "polyseq.self_s", "elements.built",
        "skein_ptorus.mul_t10_tn2", "skein_ptorus.mul_tn1_t01",
        "skein_ptorus.mul_by_t10", "skein_ptorus.g_closed",
        "skein_ptorus.g_recursive", "skein_ptorus.self_s",
    ],
}


def torus_slopes(bound: int) -> list[tuple[int, int]]:
    """The canonical slopes of the scan box, in scan order (s, then r)."""
    box = itertools.product(range(-bound, bound + 1), range(0, bound + 1))
    return sorted(((r, s) for r, s in box if s > 0 or r > 0), key=lambda rs: (rs[1], rs[0]))
