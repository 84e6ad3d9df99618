"""Cold-process CLI benchmark for skeinalg.

Run from the repository root:

    python3 benchmarks/run.py --workload torus-scan --seed 1 --seconds 20 --trace 0

Each sample is a fresh worker process (``worker.py``) that imports
skeinalg and runs the workload's CLI calls once, so module-level memo
tables start empty as they do for a user.  Workers run one at a time, in a
closed loop, until ``--seconds`` have passed.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` one untraced
and two traced workers give the per-layer metrics and the tracing overhead.
Every call's exit code and stdout SHA-256 are compared with
``expected.json``; a sample that differs or raises counts as failed and its
timings are dropped.  A JSON run record with every sample is written under
``benchmarks/runs/``.

``--record`` rewrites ``expected.json`` from the current source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
RUNS = os.path.join(HERE, "runs")

sys.path.insert(0, HERE)

from workloads import EXERCISED, TORUS_BOUND, WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
# A run gives up on its minimum sample count after this long, so that a much
# slower program still finishes in about two minutes.
MAX_MEASURE_S = 100
MIN_SETUP_SAMPLES = 30
WORKER_TIMEOUT_S = 150
ORACLE_PAIRS_PER_FLAVOR = 24


def _worker_env() -> dict:
    env = dict(os.environ)
    # Set-up time should not depend on the caller's environment: workers
    # always use and write bytecode caches, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(workload: str, *, trace: bool = False, setup_only: bool = False) -> dict:
    """Start one worker and wait for it; set-up time runs from the spawn
    to the worker's ``ready`` line."""
    cmd = [sys.executable, WORKER, "--workload", workload]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        first = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if first.strip() != "ready":
            return {"error": "worker did not get ready"}
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S - setup_s)
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if setup_only:
        return {"setup_s": setup_s}
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with code {proc.returncode}", "setup_s": setup_s}
    sample = json.loads(lines[-1])
    sample["setup_s"] = setup_s
    return sample


def gate(sample: dict, expected: list[dict]) -> list[str]:
    """Problems that make a sample count as failed."""
    if "error" in sample:
        return [sample["error"]]
    problems = list(sample["guard_errors"])
    if len(sample["calls"]) != len(expected):
        problems.append(f"{len(sample['calls'])} calls, expected {len(expected)}")
    for call, want in zip(sample["calls"], expected):
        name = " ".join(call["argv"])
        if call["argv"] != want["argv"]:
            problems.append(f"{name}: not the recorded call {' '.join(want['argv'])}")
        elif call["error"]:
            problems.append(f"{name}: raised {call['error']}")
        elif call["rc"] != want["rc"]:
            problems.append(f"{name}: exit code {call['rc']}, expected {want['rc']}")
        elif call["sha256"] != want["sha256"]:
            problems.append(f"{name}: stdout digest differs from the recorded one")
    return problems


def summary(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, min=min(values), max=max(values))
    return out


def git_revision() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
    }


def run_oracle(seed: int) -> dict:
    sys.path.insert(0, SRC)
    import oracle

    return oracle.check_torus_sample(["s", "that"], TORUS_BOUND, ORACLE_PAIRS_PER_FLAVOR, seed)


def measure(workload: str, seconds: float, expected: list[dict]) -> dict:
    """Closed loop of cold workers for ``seconds``; one extra set-up-only
    worker after each sample gives set-up time more samples."""
    samples, setups = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(samples) >= MIN_SAMPLES or elapsed >= MAX_MEASURE_S):
            break
        sample = spawn(workload)
        sample["problems"] = gate(sample, expected)
        samples.append(sample)
        setups.append(spawn(workload, setup_only=True))
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(workload, setup_only=True))
    good = [s for s in samples if not s["problems"]]
    setup_values = [s["setup_s"] for s in setups if "setup_s" in s]
    setup_values += [s["setup_s"] for s in good]
    metrics = {}
    if good:
        metrics = {
            "setup_s": summary(setup_values),
            "run_s": summary([s["run_s"] for s in good]),
            "cpu_s": summary([s["cpu_s"] for s in good]),
            "peak_rss_mb": summary([s["peak_rss_mb"] for s in good]),
        }
    return {
        "samples": samples,
        "setup_samples": setup_values,
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "summary": metrics,
    }


def measure_traced(workload: str, expected: list[dict]) -> dict:
    """One untraced and two traced workers; the traced runs must produce
    the same stdout and the same counts."""
    samples = [spawn(workload)] + [spawn(workload, trace=True) for _ in range(2)]
    for sample in samples:
        sample["problems"] = gate(sample, expected)
    failed = sum(1 for s in samples if s["problems"])
    checks = []
    layers = {}
    if not failed:
        base, t1, t2 = samples
        a, b = t1["trace"], t2["trace"]
        for name in sorted(a):
            if not name.endswith("_s") and a[name] != b[name]:
                checks.append(f"{name} differs between traced runs: {a[name]} vs {b[name]}")
        for name in EXERCISED[workload]:
            if not a.get(name):
                checks.append(f"{name} reads zero on the workload meant to exercise it")
        counter = WORKLOADS[workload].get("work_counter")
        if counter and a.get(counter) != WORKLOADS[workload]["work"]:
            checks.append(f"{counter} is {a.get(counter)}, the inputs give {WORKLOADS[workload]['work']}")
        layers = {
            name: statistics.median([a[name], b[name]]) if name.endswith("_s") else a[name]
            for name in a
        }
        layers["trace.run_s"] = statistics.median([t1["run_s"], t2["run_s"]])
        layers["trace.overhead_s"] = layers["trace.run_s"] - base["run_s"]
    return {
        "samples": samples,
        "attempted": len(samples),
        "failed": failed,
        "trace_checks": checks,
        "layers": layers,
    }


def record_expected() -> int:
    """Run each workload once in a cold worker and store its outputs."""
    expected = {}
    for name in WORKLOADS:
        sample = spawn(name)
        if "error" in sample or sample["guard_errors"]:
            print(f"{name}: {sample.get('error') or sample['guard_errors']}", file=sys.stderr)
            return 1
        for call in sample["calls"]:
            if call["error"]:
                print(f"{name}: {' '.join(call['argv'])} raised {call['error']}", file=sys.stderr)
                return 1
        expected[name] = [
            {key: call[key] for key in ("argv", "rc", "sha256", "bytes")}
            for call in sample["calls"]
        ]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    print(f"wrote {EXPECTED}", file=sys.stderr)
    return 0


def write_record(record: dict, workload: str, seed: int, trace: int) -> None:
    path = os.path.join(RUNS, f"BENCH_{workload}_seed{seed}_trace{trace}.json")
    try:
        os.makedirs(RUNS, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        print(f"could not write the run record: {exc}", file=sys.stderr)
        return
    print(f"run record: {os.path.relpath(path, ROOT)}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skeinalg", "cli.py")):
        print(f"skeinalg sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record_expected()
    if args.workload is None:
        ap.error("--workload is required")
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    # Untimed: byte-compiles the sources on a fresh checkout, which a user
    # pays once per install, not once per call.
    warm = spawn(args.workload, setup_only=True)
    if "error" in warm:
        print(f"warm-up worker failed: {warm['error']}", file=sys.stderr)
        return 1

    oracle = run_oracle(args.seed) if args.workload == "torus-scan" else None
    problems = [f"oracle disagrees on {m}" for m in oracle["mismatches"]] if oracle else []

    metrics = {}
    if args.trace:
        result = measure_traced(args.workload, expected)
        problems += result["trace_checks"]
        layers = result["layers"]
        if layers:
            for m in spec["per_layer"]:
                if m["name"] not in layers:
                    problems.append(f"per-layer metric {m['name']} was not reported")
                metrics[m["name"]] = {"value": layers.get(m["name"], 0), "unit": m["unit"]}
    else:
        result = measure(args.workload, seconds, expected)
        if result["summary"]:
            values = {name: s["median"] for name, s in result["summary"].items()}
            values["pass_ratio"] = (result["attempted"] - result["failed"]) / result["attempted"]
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }

    for sample in result["samples"]:
        for problem in sample["problems"]:
            print(f"failed sample: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    workload = WORKLOADS[args.workload]
    record = {
        "machine": machine(),
        "workload": {"name": args.workload, **workload},
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "oracle": oracle,
        "checks_failed": problems,
        **result,
    }
    write_record(record, args.workload, args.seed, args.trace)
    if not metrics:
        print("no sample passed the output gate; no metrics to report", file=sys.stderr)
        return 1
    out = {
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(f"work: {workload['work']} {workload['work_unit']} per sample", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
