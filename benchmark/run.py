"""rankwin benchmark: run workloads and print every metric by name and unit.

Usage, from the repository root:

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh process with one BLAS and one OpenMP thread.
With ``--trace 0`` the result carries the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of a
traced pass and the tracing overhead.  Standard output ends with one JSON
line per workload run, so with ``--workload NAME`` the last line is its
result.  Details (environment, sample counts, artifact digests, spans) land
in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 170
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """Run one workload in a child process and return its result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    result_path = os.path.join(OUT_DIR, stem + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    work_dir = tempfile.mkdtemp(prefix=stem + "-", dir=OUT_DIR)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--work-dir", work_dir, "--result", result_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                            stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0:
        raise SystemExit(f"{workload}: workload process exited with code {code}")
    with open(result_path) as fh:
        return json.load(fh)


def report(result: dict, wanted: list[dict]) -> dict:
    """The result object printed as the last line; exits if a named metric is missing."""
    values = result["per_layer"] if result["trace"] else result["metrics"]
    metrics = {}
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            raise SystemExit(f"{result['workload']}: metric {spec['name']} missing or not finite")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    samples = result["samples"]
    print(f"# {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(failed_share {result['failed'] / result['attempted']:.4f}); samples "
          + ", ".join(f"{k}={v}" for k, v in sorted(samples.items()))
          + f"; query tail p{result['query_tail_percentile']:g}")
    for problem in result["problems"]:
        print(f"#   problem: {problem}")
    for name, m in metrics.items():
        print(f"{result['workload']:12s} {name:36s} {m['value']:14.6g} {m['unit']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    # turn SIGTERM into SystemExit so the workload process is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="rankwin benchmark")
    ap.add_argument("--workload", choices=(*names, "all"), default="all")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is n=600, ranks 1..40, for the smoke test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rankwin", "__init__.py")):
        print(f"no rankwin sources under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    lines = [report(run_workload(args, w), wanted) for w in workloads]
    for line in lines:
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
