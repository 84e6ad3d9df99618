"""The benchmark's per-layer tracer still sees every product rule.

A table row that held a rule captured at import would bypass the tracer's
module rebinding, and its counter would read zero; this catches that in
the test suite rather than only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, io, json
import layertrace
from workloads import EXERCISED
from skeinalg import cli

tracer = layertrace.Tracer()
layertrace.install(tracer)
codes = []
for argv in (
    ["ptor", "verify", "consistency", "--n-max", "6"],
    ["ptor", "verify", "g-closed", "--n-max", "6"],
    ["s04", "verify", "tna-b", "--n-max", "6"],
    ["s04", "verify", "h-bounds", "--n-max", "6"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
watched = [
    name
    for workload in ("ptorus-tower", "sphere-tower")
    for name in EXERCISED[workload]
    if name.startswith(("skein_ptorus.", "skein_s04."))
]
print(json.dumps({"codes": codes, "watched": watched, "results": tracer.results()}))
"""


def test_tracer_counts_every_exercised_rule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0]
    assert out["watched"]
    zero = [name for name in out["watched"] if not out["results"].get(name)]
    assert zero == []
