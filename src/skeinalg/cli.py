"""Command line front end: one table, one output path.

Each subcommand is one row of ``COMMANDS``: its help string, its arguments
as ``(name, add_argument kwargs)`` pairs, and ``run(args)``, which returns
``(passed, json_obj, text_lines)``, the verdict and one thunk per rendering.
``build_parser`` adds the rows, each with ``--json``; ``main`` prints one
rendering and exits 0 if the verdict passed, else 2.  The JSON thunk may
leave objects in its tree, which the encoder writes one at a time through
their own ``to_json_obj``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from . import positivity, skein_ptorus, skein_s04, skein_torus
from .elements import label_from_text
from .polyseq import (
    PolySeq,
    builtin_sequence,
    chebyshev,
    load_sequence_file,
    seq_leq,
    substitute_t,
)
from .reports import run_check

# What -h prints, as one paragraph: argparse refills the text.
DESCRIPTION = """Command line front end. Exit codes: 0 for a successful check or computation,
2 when a requested certification finds a genuine positivity violation (a successful
computation with a negative answer), 1 for usage or parse errors. Output is deterministic:
labels are sorted, Laurent exponents ascend, and JSON is emitted compactly with a fixed key
order."""

_DISPLAY = {"that": "That", "s": "S", "monomial": "Monomial"}


def resolve_sequence(spec: str) -> PolySeq:
    if spec.startswith("file:"):
        return load_sequence_file(spec[len("file:"):])
    return builtin_sequence(spec)


def _element(elem):
    return True, elem.to_json_obj, lambda: [elem.text()]


def _operands(args, kind, letters=None):
    """The (flavor, label) pairs of the operands ``a`` and ``b``."""
    return [label_from_text(kind, x, letters) for x in (args.a, args.b)]


def _tor_mul(args):
    P = resolve_sequence(args.basis)
    (_, a), (_, b) = _operands(args, skein_torus.TorusLabel)
    return _element(skein_torus.structure_constants(P, a, b))


def _tor_scan(args):
    P = resolve_sequence(args.basis)
    report = skein_torus.positivity_scan(P, args.bound, q1=args.q1)

    def text():
        yield f"torus scan: basis={P.name} bound={report.bound} q1={report.q1}"
        yield f"verdict: {report.verdict}"
        if report.witnesses:
            w = report.first_witness()
            yield f"violations: {len(report.witnesses)}"
            yield (f"first witness: {w.inputs[0]} * {w.inputs[1]} -> "
                   f"label {w.label}, coefficient {w.coeff}")

    return report.passed, report.json_tree, text


def _ptor_mul(args):
    (_, a), (_, b) = _operands(args, skein_ptorus.PTorusLabel, {"T": "that"})
    return _element(skein_ptorus.product(a, b))


def _ptor_extract(args):
    P = resolve_sequence(args.seq)
    low, elem = skein_ptorus.upper_bound_extract(P, args.n)
    head = {"n": args.n, "lowest_exponent": low}
    return True, lambda: {**head, "element": elem.to_json_obj()}, lambda: [
        f"lowest q-exponent of ({args.n},1)*(0,1) in basis {P.name}: {low}",
        f"element: {elem.text()}",
    ]


def _s04_mul(args):
    (fa, a), (fb, b) = _operands(args, skein_s04.S04Label, {"T": "that", "S": "s"})
    if fa and fb and fa != fb:
        raise ValueError("both labels must use the same basis letter")
    return _element(skein_s04.product(a, b, fa or fb or "s"))


def _s04_extract(args):
    n = args.n
    low, elem, matches = skein_s04.extract_lowest_s04(n)

    def obj():
        return {"n": n, "lowest_exponent": low, "element": elem.to_json_obj(),
                "matches_expected": matches}

    return matches, obj, lambda: [
        f"lowest q-exponent of ({n},1)*(0,1): {low}",
        f"element: {elem.text()}",
        f"matches q^{-2*n} * ({n},0): {'yes' if matches else 'no'}",
    ]


def _s04_force_p1(args):
    r = skein_s04.p1_forcing_witness(args.delta)
    return False, r.to_json_obj, lambda: [
        f"perturbing the linear entry by {r.delta}:",
        f"  peripheral witness {r.gamma_label.text()}: coefficient {r.gamma_coeff}",
        f"  curve witness {r.slope_label.text()}: coefficient {r.slope_coeff}",
        f"  non-positive labels: {len(r.violations)}",
    ]


def _certify_torus_unique(args):
    report = positivity.torus_uniqueness(args.n_max, args.box, q1=args.q1)

    def text():
        yield (f"torus uniqueness: levels 2..{report.n_max}, "
               f"box {report.coeff_box}, q1={report.q1}")
        for lv in report.levels:
            fate = "all violated" if lv.all_killed else f"{len(lv.unkilled)} survived"
            yield f"level {lv.level}: {lv.n_perturbations} perturbations, {fate}"
        yield f"unperturbed sequence clean: {report.t_hat_clean}"
        yield f"verdict: {report.verdict}"

    return report.certified, report.to_json_obj, text


def _fails(result) -> str:
    n, k, c = result.witness
    return f"fails at n={n}: coefficient {c} on index {k}"


def _certify_sandwich(args):
    P = resolve_sequence(args.seq)
    report = positivity.sandwich_check(P, args.n_max, q1=args.q1)
    shown = _DISPLAY.get(P.name, P.name)

    def verdict(result):
        return "holds" if result.holds else _fails(result)

    return report.passed, report.to_json_obj, lambda: [
        f"sandwich check: sequence={P.name} n_max={report.n_max}",
        f"(That) <= ({shown}): {verdict(report.lower)}",
        f"({shown}) <= (S): {verdict(report.upper)}",
        f"passed: {report.passed}",
    ]


def _cheb(args):
    p = chebyshev(args.kind, args.n)
    head = {"kind": args.kind, "n": args.n}
    if args.subst_t:
        value = substitute_t(p)
        return True, lambda: {**head, "t_value": value.to_json_obj()}, lambda: [str(value)]
    return (True, lambda: {**head, "coeffs": [c.to_json_obj() for c in p.coeffs]},
            lambda: [str(p)])


def _order(args):
    P = resolve_sequence(args.left)
    Q = resolve_sequence(args.right)
    result = seq_leq(P, Q, args.n_max, q1=args.q1)
    relation = f"({_DISPLAY.get(P.name, P.name)}) <= ({_DISPLAY.get(Q.name, Q.name)})"
    outcome = f"certified to n={args.n_max}" if result.holds else _fails(result)
    line = f"{relation} {outcome}"
    head = {"relation": "leq", "left": P.name, "right": Q.name, "n_max": args.n_max}
    return result.holds, lambda: {**head, **result.to_json_obj()}, lambda: [line]


class Command(NamedTuple):
    help: str
    args: tuple
    run: Callable


def _int(default):
    return {"type": int, "default": default}


# Shared argument specs.
N_MAX = ("--n-max", _int(20))
N = ("--n", _int(20))
Q1 = ("--q1", {"action": "store_true"})
OPERANDS = (("a", {}), ("b", {}))
BASIS = ("--basis", {"default": "that"})


def _verify(table) -> Command:
    def run(args):
        report = run_check(table, args.check, args.n_max)
        return report.passed, report.to_json_obj, lambda: [report.summary]

    args = (("check", {"choices": list(table)}), N_MAX)
    return Command("mechanized identity checks", args, run)


# Help strings of the commands that group subcommands.
GROUPS = {
    "tor": "closed torus", "ptor": "once-punctured torus", "s04": "four-punctured sphere",
    "certify": "bounded positivity certifications", "order": "bounded sequence order",
}

# Keyed by (command, subcommand), with None for a command without one.
# build_parser adds the rows in this order, which is the order -h lists.
COMMANDS = {
    ("tor", "mul"): Command("product of two basis labels", (*OPERANDS, BASIS), _tor_mul),
    ("tor", "scan"): Command(
        "positivity scan over a slope box", (BASIS, ("--bound", _int(3)), Q1), _tor_scan
    ),
    ("ptor", "mul"): Command("product of two supported labels", OPERANDS, _ptor_mul),
    ("ptor", "verify"): _verify(skein_ptorus.CHECKS),
    ("ptor", "extract"): Command(
        "lowest q-layer of (n,1)*(0,1)", (("--seq", {"default": "s"}), N), _ptor_extract
    ),
    ("s04", "mul"): Command("product of two supported labels", OPERANDS, _s04_mul),
    ("s04", "verify"): _verify(skein_s04.CHECKS),
    ("s04", "extract"): Command("lowest q-layer of (n,1)*(0,1)", (N,), _s04_extract),
    ("s04", "force-p1"): Command(
        "perturb the linear entry", (("--delta", {"type": int, "required": True}),),
        _s04_force_p1,
    ),
    ("certify", "torus-unique"): Command(
        "perturbation enumeration",
        (("--n-max", _int(3)), ("--box", _int(2)), Q1),
        _certify_torus_unique,
    ),
    ("certify", "sandwich"): Command(
        "necessary order condition", (("--seq", {"required": True}), N_MAX, Q1),
        _certify_sandwich,
    ),
    ("cheb", None): Command(
        "Chebyshev-type polynomials",
        (("kind", {"choices": ["t", "that", "s"]}), ("n", {"type": int}),
         ("--subst-t", {"action": "store_true"})),
        _cheb,
    ),
    ("order", "leq"): Command(
        "check (left) <= (right)", (("left", {}), ("right", {}), N_MAX, Q1), _order
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skein", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for (command, subcommand), row in COMMANDS.items():
        if subcommand is None:
            p = sub.add_parser(command, help=row.help)
        else:
            if command not in groups:
                group = sub.add_parser(command, help=GROUPS[command])
                groups[command] = group.add_subparsers(dest="subcommand", required=True)
            p = groups[command].add_parser(subcommand, help=row.help)
        for name, kwargs in row.args:
            p.add_argument(name, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(run=row.run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # Usage errors exit 1; exit 2 is reserved for certified violations.
        return 0 if exc.code in (0, None) else 1
    try:
        passed, json_obj, text_lines = args.run(args)
        if args.json:
            print(json.dumps(json_obj(), separators=(",", ":"),
                             default=lambda obj: obj.to_json_obj()))
        else:
            print("\n".join(text_lines()))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
