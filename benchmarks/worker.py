"""One cold worker: a fresh interpreter runs one workload's CLI calls once.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 benchmarks/worker.py --workload NAME [--trace] [--setup-only]

The worker imports skeinalg, checks that no memo table is filled yet and
prints ``ready``; the parent takes set-up time from that line.  It then runs
each call through ``skeinalg.cli.main`` with stdout captured, and prints one
JSON line: exit code, stdout SHA-256 and time per call, process CPU time and
peak RSS, and with ``--trace`` the per-layer counters from ``layertrace``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from skeinalg import cli, polyseq, skein_s04

from workloads import WORKLOADS


def cold_state_errors() -> list[str]:
    """Module-level memo tables that are already filled at start-up."""
    errors = []
    if polyseq.expansion_coeffs.cache_info().currsize != 0:
        errors.append("expansion_coeffs cache is not empty")
    if getattr(skein_s04, "_SN1_CACHE", None):
        errors.append("skein_s04._SN1_CACHE is not empty")
    if len(getattr(polyseq, "_T_POWERS", ())) > 1:
        errors.append("polyseq._T_POWERS is not empty")
    for name, seq in getattr(polyseq, "_BUILTINS", {}).items():
        if getattr(seq, "_polys", None):
            errors.append(f"builtin sequence {name!r} already has entries")
    return errors


def run_call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # a crash is a measured failure, not a harness error
        rc = None
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    data = out.getvalue().encode("utf-8")
    return {
        "argv": list(argv),
        "rc": rc,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "wall_s": wall,
        "cpu_s": cpu,
        "error": error,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    channel = sys.stdout

    guard = cold_state_errors()
    print("ready", file=channel, flush=True)
    if args.setup_only:
        return 0

    # Read before tracing, which rebinds the name to a wrapper.
    coeff_cache = polyseq.expansion_coeffs
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    info0 = coeff_cache.cache_info()

    calls = [run_call(argv) for argv in WORKLOADS[args.workload]["calls"]]

    info1 = coeff_cache.cache_info()
    record = {
        "guard_errors": guard,
        "calls": calls,
        "run_s": sum(c["wall_s"] for c in calls),
        "cpu_s": sum(c["cpu_s"] for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": None,
    }
    if tracer is not None:
        layers = tracer.results()
        hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
        layers.update({
            "polyseq.coeff_hits": hits,
            "polyseq.coeff_misses": misses,
            "polyseq.coeff_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "polyseq.cache_entries": info1.currsize,
            "cli.out_bytes": sum(c["bytes"] for c in calls),
        })
        record["trace"] = layers
    print(json.dumps(record), file=channel, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
