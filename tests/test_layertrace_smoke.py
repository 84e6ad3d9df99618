"""The benchmark's per-layer tracer still sees every product rule.

A table row that held a rule captured at import would bypass the tracer's
module rebinding, and its counter would read zero; this catches that in
the test suite rather than only in a benchmark run.  One traced process per
workload also checks, at small sizes, the gates a traced benchmark run
applies to it: the worker's cold-start guard, the work counter where the
workload has one, and every exercised counter.  The tracer patches the
three label classes by name, so they must stay three classes: patching one
class three times would count each label hash three times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNIQUE_SCRIPT = r"""
import contextlib, io, json
import skeinalg.cli
import worker
cold = worker.cold_state_errors()
import layertrace
from workloads import EXERCISED, perturbation_count
from skeinalg import cli, polyseq

# As the worker does: read the cache before tracing rebinds its name.
cache = polyseq.expansion_coeffs
tracer = layertrace.Tracer()
layertrace.install(tracer)
misses = cache.cache_info().misses
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["certify", "torus-unique", "--n-max", "3", "--box", "1"])
results = tracer.results()
results["polyseq.coeff_misses"] = cache.cache_info().misses - misses
print(json.dumps({
    "cold": cold, "code": code, "count": perturbation_count(3, 1),
    "watched": EXERCISED["torus-unique"], "results": results,
}))
"""


SCAN_SCRIPT = r"""
import contextlib, io, json
import skeinalg.cli
import worker
cold = worker.cold_state_errors()
import layertrace
from workloads import EXERCISED, torus_label_count
from skeinalg import cli, polyseq

# As the worker does: read the cache before tracing rebinds its name.
cache = polyseq.expansion_coeffs
tracer = layertrace.Tracer()
layertrace.install(tracer)
hits = cache.cache_info().hits
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["tor", "scan", "--basis", basis, "--bound", "2", "--json"])
        for basis in ("s", "that")
    ]
results = tracer.results()
results["polyseq.coeff_hits"] = cache.cache_info().hits - hits
# cli.out_bytes is the worker's own count of the bytes it captured.
watched = [name for name in EXERCISED["torus-scan"] if name != "cli.out_bytes"]
print(json.dumps({
    "cold": cold, "codes": codes, "pairs": 2 * torus_label_count(2) ** 2,
    "watched": watched, "results": results,
}))
"""


TOWER_SCRIPT = r"""
import contextlib, io, json, sys
import skeinalg.cli
import worker
cold = worker.cold_state_errors()
import layertrace
from workloads import EXERCISED
from skeinalg import cli

workload, calls = sys.argv[1], json.loads(sys.argv[2])
tracer = layertrace.Tracer()
layertrace.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
print(json.dumps({
    "cold": cold, "codes": codes, "watched": EXERCISED[workload],
    "results": tracer.results(),
}))
"""


LABEL_SCRIPT = r"""
import json
import layertrace
from skeinalg import skein_ptorus, skein_s04, skein_torus
from skeinalg.curves import curve

tracer = layertrace.Tracer()
layertrace.install(tracer)
hashes = tracer.counter("elements.label_hashes")
kinds = [skein_torus.TorusLabel, skein_ptorus.PTorusLabel, skein_s04.S04Label]
steps = []
for kind in kinds:
    label = kind(curve(1, 0))
    before = hashes[0]
    hash(label)
    steps.append(hashes[0] - before)
print(json.dumps({"steps": steps, "classes": len(set(map(id, kinds)))}))
"""


def _run_traced(script: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_torus_unique_passes_the_benchmark_gates():
    out = _run_traced(UNIQUE_SCRIPT)
    assert out["cold"] == []
    assert out["code"] == 0
    assert out["count"] == 34
    assert out["results"]["positivity.perturbations"] == out["count"]
    zero = [name for name in out["watched"] if not out["results"].get(name)]
    assert zero == []


def test_torus_scan_passes_the_benchmark_gates():
    out = _run_traced(SCAN_SCRIPT)
    assert out["cold"] == []
    assert out["codes"] == [2, 0]
    assert out["pairs"] == 288
    assert out["results"]["skein_torus.mul"] == out["pairs"]
    zero = [name for name in out["watched"] if not out["results"].get(name)]
    assert zero == []


def _tower_gates(workload: str, surface: str, checks: tuple[str, str]):
    calls = [[surface, "verify", name, "--n-max", "6"] for name in checks]
    out = _run_traced(TOWER_SCRIPT, workload, json.dumps(calls))
    assert out["cold"] == []
    assert out["codes"] == [0, 0]
    assert out["watched"]
    zero = [name for name in out["watched"] if not out["results"].get(name)]
    assert zero == []


def test_sphere_tower_passes_the_benchmark_gates():
    _tower_gates("sphere-tower", "s04", ("h-bounds", "tna-b"))


def test_ptorus_tower_passes_the_benchmark_gates():
    _tower_gates("ptorus-tower", "ptor", ("consistency", "g-closed"))


def test_each_label_hash_counts_once():
    out = _run_traced(LABEL_SCRIPT)
    assert out == {"steps": [1, 1, 1], "classes": 3}
