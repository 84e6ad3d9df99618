"""Command line front end.

Exit codes: 0 for a successful check or computation, 2 when a requested
certification finds a genuine positivity violation (a successful
computation with a negative answer), 1 for usage or parse errors.

Output is deterministic: labels are sorted, Laurent exponents ascend, and
JSON is emitted compactly with a fixed key order.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import positivity, skein_ptorus, skein_s04, skein_torus
from .polyseq import (
    PolySeq,
    builtin_sequence,
    chebyshev,
    load_sequence_file,
    seq_leq,
    substitute_t,
)
from .reports import run_check

_DISPLAY = {"that": "That", "s": "S", "t": "T", "monomial": "Monomial"}


def _display(name: str) -> str:
    return _DISPLAY.get(name, name)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def resolve_sequence(spec: str) -> PolySeq:
    if spec.startswith("file:"):
        return load_sequence_file(spec[len("file:"):])
    return builtin_sequence(spec)


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1; exit 2 is reserved for certified violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _print_element(elem, as_json: bool) -> int:
    print(_dump(elem.to_json_obj()) if as_json else elem.text())
    return 0


def _cmd_verify(args) -> int:
    report = run_check(args.checks, args.check, args.n_max)
    print(_dump(report.to_json_obj()) if args.json else report.summary)
    return 0 if report.passed else 2


# -- tor -----------------------------------------------------------------------


def _cmd_tor_mul(args) -> int:
    P = resolve_sequence(args.basis)
    a = skein_torus.label_from_text(args.a)
    b = skein_torus.label_from_text(args.b)
    return _print_element(skein_torus.structure_constants(P, a, b), args.json)


def _cmd_tor_scan(args) -> int:
    P = resolve_sequence(args.basis)
    report = skein_torus.positivity_scan(P, args.bound, q1=args.q1)
    if args.json:
        print(_dump(report.to_json_obj()))
    else:
        print(
            f"torus scan: basis={P.name} bound={report.bound} q1={report.q1}"
        )
        print(f"verdict: {report.verdict}")
        if report.witnesses:
            print(f"violations: {len(report.witnesses)}")
            w = report.first_witness()
            print(
                f"first witness: {w.inputs[0]} * {w.inputs[1]} -> "
                f"label {w.label}, coefficient {w.coeff}"
            )
    return 0 if report.passed else 2


# -- ptor ----------------------------------------------------------------------


def _cmd_ptor_mul(args) -> int:
    a = skein_ptorus.label_from_text(args.a)
    b = skein_ptorus.label_from_text(args.b)
    return _print_element(skein_ptorus.product(a, b), args.json)


def _cmd_ptor_extract(args) -> int:
    P = resolve_sequence(args.seq)
    low, elem = skein_ptorus.upper_bound_extract(P, args.n)
    if args.json:
        print(
            _dump(
                {"n": args.n, "lowest_exponent": low, "element": elem.to_json_obj()}
            )
        )
    else:
        print(f"lowest q-exponent of ({args.n},1)*(0,1) in basis {P.name}: {low}")
        print(f"element: {elem.text()}")
    return 0


# -- s04 -----------------------------------------------------------------------


def _cmd_s04_mul(args) -> int:
    fa, a = skein_s04.operand_from_text(args.a)
    fb, b = skein_s04.operand_from_text(args.b)
    if fa and fb and fa != fb:
        raise ValueError("both labels must use the same basis letter")
    return _print_element(skein_s04.product(a, b, fa or fb or "s"), args.json)


def _cmd_s04_extract(args) -> int:
    n = args.n
    low, elem, matches = skein_s04.extract_lowest_s04(n)
    if args.json:
        print(
            _dump(
                {
                    "n": n,
                    "lowest_exponent": low,
                    "element": elem.to_json_obj(),
                    "matches_expected": matches,
                }
            )
        )
    else:
        print(f"lowest q-exponent of ({n},1)*(0,1): {low}")
        print(f"element: {elem.text()}")
        print(f"matches q^{-2*n} * ({n},0): {'yes' if matches else 'no'}")
    return 0 if matches else 2


def _cmd_s04_force_p1(args) -> int:
    report = skein_s04.p1_forcing_witness(args.delta)
    if args.json:
        print(_dump(report.to_json_obj()))
    else:
        print(f"perturbing the linear entry by {report.delta}:")
        print(
            f"  peripheral witness {report.gamma_label.text()}: "
            f"coefficient {report.gamma_coeff}"
        )
        print(
            f"  curve witness {report.slope_label.text()}: "
            f"coefficient {report.slope_coeff}"
        )
        print(f"  non-positive labels: {len(report.violations)}")
    return 2


# -- certify ---------------------------------------------------------------------


def _cmd_certify_torus_unique(args) -> int:
    report = positivity.torus_uniqueness(args.n_max, args.box, q1=args.q1)
    if args.json:
        print(_dump(report.to_json_obj()))
    else:
        print(
            f"torus uniqueness: levels 2..{report.n_max}, "
            f"box {report.coeff_box}, q1={report.q1}"
        )
        for lv in report.levels:
            print(
                f"level {lv.level}: {lv.n_perturbations} perturbations, "
                f"{'all violated' if lv.all_killed else f'{len(lv.unkilled)} survived'}"
            )
        print(f"unperturbed sequence clean: {report.t_hat_clean}")
        print(f"verdict: {report.verdict}")
    return 0 if report.certified else 2


def _cmd_certify_sandwich(args) -> int:
    P = resolve_sequence(args.seq)
    report = positivity.sandwich_check(P, args.n_max, q1=args.q1)
    if args.json:
        print(_dump(report.to_json_obj()))
    else:
        print(f"sandwich check: sequence={P.name} n_max={report.n_max}")
        lo, up = report.lower, report.upper
        print(
            f"(That) <= ({_display(P.name)}): "
            + ("holds" if lo.holds else f"fails, witness {lo.witness}")
        )
        print(
            f"({_display(P.name)}) <= (S): "
            + ("holds" if up.holds else f"fails, witness {up.witness}")
        )
        print(f"passed: {report.passed}")
    return 0 if report.passed else 2


# -- cheb / order -----------------------------------------------------------------


def _cmd_cheb(args) -> int:
    p = chebyshev(args.kind, args.n)
    if args.subst_t:
        value = substitute_t(p)
        if args.json:
            print(_dump({"kind": args.kind, "n": args.n, "t_value": value.to_json_obj()}))
        else:
            print(str(value))
        return 0
    if args.json:
        print(
            _dump(
                {
                    "kind": args.kind,
                    "n": args.n,
                    "coeffs": [c.to_json_obj() for c in p.coeffs],
                }
            )
        )
    else:
        print(str(p))
    return 0


def _cmd_order(args) -> int:
    P = resolve_sequence(args.left)
    Q = resolve_sequence(args.right)
    result = seq_leq(P, Q, args.n_max, q1=args.q1)
    if args.json:
        obj = {
            "relation": "leq",
            "left": P.name,
            "right": Q.name,
            "n_max": args.n_max,
        }
        obj.update(result.to_json_obj())
        print(_dump(obj))
    else:
        if result.holds:
            print(
                f"({_display(P.name)}) <= ({_display(Q.name)}) "
                f"certified to n={args.n_max}"
            )
        else:
            n, k, c = result.witness
            print(
                f"({_display(P.name)}) <= ({_display(Q.name)}) fails at "
                f"n={n}: coefficient {c} on index {k}"
            )
    return 0 if result.holds else 2


# -- wiring -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="skein", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    tor = sub.add_parser("tor", help="closed torus")
    tor_sub = tor.add_subparsers(dest="subcommand", required=True)
    p = tor_sub.add_parser("mul", help="product of two basis labels")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--basis", default="that")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tor_mul)
    p = tor_sub.add_parser("scan", help="positivity scan over a slope box")
    p.add_argument("--basis", default="that")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--q1", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tor_scan)

    ptor = sub.add_parser("ptor", help="once-punctured torus")
    ptor_sub = ptor.add_subparsers(dest="subcommand", required=True)
    p = ptor_sub.add_parser("mul", help="product of two supported labels")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ptor_mul)
    p = ptor_sub.add_parser("verify", help="mechanized identity checks")
    p.add_argument("check", choices=list(skein_ptorus.CHECKS))
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify, checks=skein_ptorus.CHECKS)
    p = ptor_sub.add_parser("extract", help="lowest q-layer of (n,1)*(0,1)")
    p.add_argument("--seq", default="s")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ptor_extract)

    s04 = sub.add_parser("s04", help="four-punctured sphere")
    s04_sub = s04.add_subparsers(dest="subcommand", required=True)
    p = s04_sub.add_parser("mul", help="product of two supported labels")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_s04_mul)
    p = s04_sub.add_parser("verify", help="mechanized identity checks")
    p.add_argument("check", choices=list(skein_s04.CHECKS))
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify, checks=skein_s04.CHECKS)
    p = s04_sub.add_parser("extract", help="lowest q-layer of (n,1)*(0,1)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_s04_extract)
    p = s04_sub.add_parser("force-p1", help="perturb the linear entry")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_s04_force_p1)

    certify = sub.add_parser("certify", help="bounded positivity certifications")
    certify_sub = certify.add_subparsers(dest="subcommand", required=True)
    p = certify_sub.add_parser("torus-unique", help="perturbation enumeration")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--box", type=int, default=2)
    p.add_argument("--q1", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify_torus_unique)
    p = certify_sub.add_parser("sandwich", help="necessary order condition")
    p.add_argument("--seq", required=True)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--q1", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify_sandwich)

    p = sub.add_parser("cheb", help="Chebyshev-type polynomials")
    p.add_argument("kind", choices=["t", "that", "s"])
    p.add_argument("n", type=int)
    p.add_argument("--subst-t", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cheb)

    p = sub.add_parser("order", help="bounded sequence order")
    order_sub = p.add_subparsers(dest="subcommand", required=True)
    q = order_sub.add_parser("leq", help="check (left) <= (right)")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--n-max", type=int, default=20)
    q.add_argument("--q1", action="store_true")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_order)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
