"""An independent sympy check of closed-torus structure constants.

For a label pair (a, b) read in flavor P, the oracle writes each P-entry as
a sympy polynomial (P_n(x) = U_n(x/2) for the type-two flavor, the
normalized 2 T_n(x/2) for the type-one flavor), expands it over the
type-one basis, multiplies with the Frohman-Gelca two-term rule, and
expands every type-one entry back over P.  It shares no code with
skeinalg; only the comparison at the end calls the library.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import sympy as sp

X, Q = sp.symbols("x q")


@lru_cache(maxsize=None)
def entry(flavor: str, n: int) -> sp.Poly:
    if flavor == "s":
        expr = sp.chebyshevu(n, X / 2)
    elif flavor == "that":
        expr = sp.Integer(1) if n == 0 else 2 * sp.chebyshevt(n, X / 2)
    else:
        raise ValueError(f"no oracle for flavor {flavor!r}")
    return sp.Poly(sp.expand(expr), X)


@lru_cache(maxsize=None)
def expand_over(flavor_from: str, flavor_to: str, n: int) -> tuple[int, ...]:
    """Integer coefficients c_k with entry(from, n) = sum c_k entry(to, k)."""
    work = entry(flavor_from, n)
    out = [0] * (n + 1)
    for k in range(n, -1, -1):
        c = work.coeff_monomial(X**k)
        if c:
            out[k] = int(c)
            work = work - entry(flavor_to, k) * c
    if not work.is_zero:
        raise AssertionError("elimination left a remainder")
    return tuple(out)


def _canon(r: int, s: int) -> tuple[int, int]:
    return (-r, -s) if s < 0 or (s == 0 and r < 0) else (r, s)


def _add(acc: dict, label, coeff) -> None:
    acc[label] = acc.get(label, 0) + coeff


def _flavor_to_that(label, flavor: str) -> dict:
    if label is None:
        return {None: sp.Integer(1)}
    d = math.gcd(*label)
    pr, ps = label[0] // d, label[1] // d
    out: dict = {}
    for k, c in enumerate(expand_over(flavor, "that", d)):
        if c:
            _add(out, None if k == 0 else (k * pr, k * ps), sp.Integer(c))
    return out


def _two_term(a, b) -> dict:
    if a is None:
        return {b: sp.Integer(1)}
    if b is None:
        return {a: sp.Integer(1)}
    (r, s), (u, v) = a, b
    det = r * v - u * s
    out: dict = {}
    for sign, (x, y) in ((1, (r + u, s + v)), (-1, (r - u, s - v))):
        if x == 0 and y == 0:
            _add(out, None, 2 * Q ** (sign * det))
        else:
            _add(out, _canon(x, y), Q ** (sign * det))
    return out


def product(flavor: str, a, b) -> dict:
    """The structure constants of a * b in the given flavor, as
    {label or None: sympy expression in q}, zero coefficients dropped."""
    left, right = _flavor_to_that(a, flavor), _flavor_to_that(b, flavor)
    in_that: dict = {}
    for la, ca in left.items():
        for lb, cb in right.items():
            for lab, c in _two_term(la, lb).items():
                _add(in_that, lab, ca * cb * c)
    out: dict = {}
    for lab, c in in_that.items():
        if lab is None:
            _add(out, None, c)
            continue
        d = math.gcd(*lab)
        pr, ps = lab[0] // d, lab[1] // d
        for k, ck in enumerate(expand_over("that", flavor, d)):
            if ck:
                _add(out, None if k == 0 else (k * pr, k * ps), ck * c)
    out = {lab: sp.expand(c) for lab, c in out.items()}
    return {lab: c for lab, c in out.items() if c != 0}


def sample_pairs(slopes: list[tuple[int, int]], count: int, seed: int) -> list[tuple]:
    """``count`` ordered pairs drawn by the seed, plus one square (a, a),
    whose second term degenerates to the empty label."""
    rng = random.Random(seed)
    pairs = [(rng.choice(slopes), rng.choice(slopes)) for _ in range(count)]
    a = rng.choice(slopes)
    return pairs + [(a, a)]


def check_torus_sample(flavors: list[str], bound: int, count: int, seed: int) -> dict:
    """Compare skeinalg's structure constants with the oracle on a seeded
    sample of the scan box; returns the pairs checked and any mismatches."""
    from skeinalg import polyseq, skein_torus

    from workloads import torus_slopes

    slopes = torus_slopes(bound)
    mismatches = []
    checked = 0
    for i, flavor in enumerate(flavors):
        seq = polyseq.builtin_sequence(flavor)
        for a, b in sample_pairs(slopes, count, seed * len(flavors) + i):
            got = skein_torus.structure_constants(
                seq, skein_torus.tlabel(*a), skein_torus.tlabel(*b)
            )
            got_map = {
                None if lab.slope is None else (lab.slope.r, lab.slope.s):
                    sp.expand(sum(c * Q**e for e, c in coeff.items()))
                for lab, coeff in got.items()
            }
            want = product(flavor, a, b)
            checked += 1
            if got_map.keys() != want.keys() or any(
                sp.expand(got_map[k] - want[k]) != 0 for k in want
            ):
                mismatches.append({"flavor": flavor, "a": list(a), "b": list(b)})
    return {"pairs_checked": checked, "mismatches": mismatches}
