"""One benchmark workload, run in a process of its own by ``run.py``.

A workload is the full rankwin pipeline on one synthetic dataset: ``train``,
``build-refdb``, ``eval`` with the ``min`` and the ``random`` scheme, one
``estimate_rank`` call per val and test instance, and the noisy-oracle
``simulate``.  The untraced run follows ``SCHEDULE``: ``train`` twice,
``build-refdb`` three times and the serving stages (both evals, the queries
and the simulation) twice, spread over the run, and then more serving rounds
while ``--seconds`` allows.  With ``--trace 1`` the pipeline runs once
untraced and once under the span recorder instead.

The workload seed reaches ``generate_synthetic`` only; the program sees the
generated CSV file.  Results go to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

IMPORT_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rankwin import engine, experiments  # noqa: E402
from rankwin.data import SyntheticSpec, generate_synthetic, save_dataset  # noqa: E402
from rankwin.windows import RankRange  # noqa: E402

from spans import SpanRecorder  # noqa: E402

SETUP_REPEATS = 3
# The untraced run's fixed order of stages.  The machine's speed drifts in
# phases of seconds to minutes, so each stage's samples are spread over the
# run: build-refdb, the longest stage, runs at its start, middle and end, and
# the median of the three drops one caught in a slow phase.  Serving rounds
# fill the gaps and, while --seconds allows, the end.
SCHEDULE = ("train", "refdb", "serve", "refdb", "serve", "train", "refdb")
ORACLE_NOISE_STD = 0.15  # as in the acceptance suite's convergence gate


@dataclass(frozen=True)
class Workload:
    hetero: bool
    scale_kind: str
    tau: float


# why each workload exists: see README.md beside this file
WORKLOADS = {
    "pinned-ari": Workload(hetero=False, scale_kind="ari", tau=3.0),
    "geo-serve": Workload(hetero=True, scale_kind="geo", tau=0.1),
}


@dataclass(frozen=True)
class Size:
    n: int
    domain_hi: int
    epochs: int


SIZES = {"full": Size(n=4000, domain_hi=80, epochs=1),
         "tiny": Size(n=600, domain_hi=40, epochs=1)}


def manifest_for(workload: Workload, size: Size, digest: str) -> experiments.ExperimentManifest:
    """The acceptance suite's pinned manifest, with the workload's scale."""
    return experiments.ExperimentManifest(
        dataset_digest=digest, domain_lo=1, domain_hi=size.domain_hi,
        scale_kind=workload.scale_kind, tau=workload.tau, partition="golden5",
        alpha=6, epochs=size.epochs, batch_size=18, lr=1e-4,
        triplets_per_instance=8, seed=0, encoder_hidden=(32,), encoded_dim=16,
        head_dims=(256, 64, 1), scheme="min", scheme_seed=0, k=5, max_iter=10,
        pool_cap=256, pair_cap=64)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """Counts attempted and failed operations and keeps the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, list[str]] = {}
        self.mean_iters: dict[str, float] = {}  # work per instance, per stage

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{op}: {p}" for p in problems)


def check_eval(out_dir: str, prefix: str, values: dict, n_split: int,
               domain: RankRange) -> tuple[list[str], list[dict]]:
    """One trace row per split instance, estimates in the domain, finite metrics."""
    with open(os.path.join(out_dir, f"{prefix}traces.jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    problems = []
    if len(rows) != n_split:
        problems.append(f"{len(rows)} trace rows for {n_split} instances")
    outside = sum(1 for r in rows if r["final_local"] not in domain)
    if outside:
        problems.append(f"{outside} estimates outside [{domain.lo}, {domain.hi}]")
    bad = [k for k, v in values.items() if v is None or not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite metrics {bad}")
    return problems, rows


def halt_reason(start: int, estimates: list[int]) -> str:
    """Why one phase stopped, from the estimates its iterations produced."""
    seq = [start] + estimates
    if seq[-1] == seq[-2]:
        return "fixed_point"
    if len(seq) >= 3 and seq[-1] == seq[-3]:
        return "two_cycle"
    return "max_iter"


def iteration_stats(rows: list[dict]) -> dict[str, float]:
    """Mean iterations per phase and halt shares over all phases, from traces."""
    iters = {"global": 0, "local": 0}
    halts = {"fixed_point": 0, "two_cycle": 0, "max_iter": 0}
    for row in rows:
        for phase, start in (("global", row["initial"]), ("local", row["final_global"])):
            estimates = [it["estimate"] for it in row["iterations"] if it["phase"] == phase]
            if estimates:
                iters[phase] += len(estimates)
                halts[halt_reason(start, estimates)] += 1
    n_phases = max(1, sum(halts.values()))
    out = {f"engine.iters_{p}": iters[p] / len(rows) for p in iters}
    out.update({f"engine.halt.{k}": v / n_phases for k, v in halts.items()})
    return out


class Pipeline:
    """The workload's stages against one dataset file and run directory."""

    def __init__(self, run: Run, csv_path: str, manifest, out_dir: str) -> None:
        self.run = run
        self.csv = csv_path
        self.manifest = manifest
        self.out = out_dir
        test = experiments.load_dataset(csv_path).subset("test")
        self.n_test = len(test)
        self.eval_rows: list[dict] = []

    def _digest(self, key: str, directory: str, prefix: str) -> None:
        for name in ("metrics.csv", "traces.jsonl"):
            self.run.digests.setdefault(f"{key}/{name}", []).append(
                sha256(os.path.join(directory, prefix + name)))

    def train(self) -> float:
        t0 = time.perf_counter()
        experiments.run_train(self.csv, self.manifest, self.out)
        elapsed = time.perf_counter() - t0
        with open(os.path.join(self.out, "train_log.csv")) as fh:
            losses = [float(line.rsplit(",", 1)[1]) for line in fh.read().splitlines()[1:]]
        n_models = 1 + len(self.manifest.make_groups() or [])
        problems = []
        if len(losses) != n_models * self.manifest.epochs:
            problems.append(f"{len(losses)} epoch losses for {n_models} models")
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite training loss")
        self.run.record("train", problems)
        return elapsed

    def refdb(self) -> float:
        t0 = time.perf_counter()
        path = experiments.run_build_refdb(self.csv, self.out)
        elapsed = time.perf_counter() - t0
        self.run.record("refdb", [] if os.path.getsize(path) > 0 else ["empty refdb.npz"])
        return elapsed

    def evaluate(self, scheme: str) -> tuple[float, float]:
        """Seconds for one run_eval over the test split, and its MAE."""
        prefix = "" if scheme == "min" else f"{scheme}_"
        t0 = time.perf_counter()
        values = experiments.run_eval(self.csv, self.out, scheme=scheme,
                                      scheme_seed=0, prefix=prefix)
        elapsed = time.perf_counter() - t0
        problems, rows = check_eval(self.out, prefix, values, self.n_test,
                                    self.manifest.domain)
        self.run.record(f"eval-{scheme}", problems)
        self._digest(f"eval-{scheme}", self.out, prefix)
        self.run.mean_iters[f"eval-{scheme}"] = values["mean_iters"]
        if scheme == "min":
            self.eval_rows = rows
        return elapsed, values["mae"]

    def simulate(self) -> tuple[float, float]:
        sim_dir = os.path.join(self.out, "sim")
        manifest = dataclasses.replace(self.manifest, oracle_noise_std=ORACLE_NOISE_STD)
        t0 = time.perf_counter()
        values = experiments.run_simulate(self.csv, manifest, sim_dir)
        elapsed = time.perf_counter() - t0
        problems, _ = check_eval(sim_dir, "", values, self.n_test, manifest.domain)
        self.run.record("simulate", problems)
        self._digest("simulate", sim_dir, "")
        self.run.mean_iters["simulate"] = values["mean_iters"]
        return elapsed, values["mae"]

    def queries(self, recorder: SpanRecorder) -> list[float]:
        """One closed-loop client: one estimate_rank call per val and test instance."""
        m = self.manifest
        recorder.trace_id = "query-setup"
        data = experiments.load_dataset(self.csv)
        global_model, local_models = experiments.load_models(self.out, m)
        db = experiments.load_database(os.path.join(self.out, experiments.REFDB_NAME))
        groups = m.make_groups()
        latencies = []
        for split in ("val", "test"):
            ds = data.subset(split)
            for i in range(len(ds)):
                recorder.trace_id = f"query-{ds.ids[i]}"
                problems = []
                t0 = time.perf_counter()
                try:
                    trace = engine.estimate_rank(
                        ds.features[i], db=db, scale=m.scale, scheme=m.selection,
                        domain=m.domain, global_model=global_model,
                        local_models=local_models, groups=groups, k=m.k,
                        max_iter=m.max_iter)
                except Exception as exc:  # a failed query is counted, not fatal
                    problems.append(f"{type(exc).__name__}: {exc}")
                else:
                    if trace.final not in m.domain:
                        problems.append(f"estimate {trace.final} outside the domain")
                latencies.append(time.perf_counter() - t0)
                self.run.record("query", problems)
        return latencies


def set_up(workload: Workload, size: Size, seed: int, directory: str) -> tuple[str, object]:
    data = generate_synthetic(SyntheticSpec(n=size.n, rank_domain=RankRange(1, size.domain_hi),
                                            hetero=workload.hetero, seed=seed))
    csv_path = os.path.join(directory, "data.csv")
    save_dataset(data, csv_path)
    return csv_path, manifest_for(workload, size, experiments.file_digest(csv_path))


def warm_up(work_dir: str) -> None:
    """Imports, the first BLAS call and every code path, on a tiny run."""
    np.dot(np.ones((64, 64)), np.ones((64, 64)))
    tiny = Size(n=300, domain_hi=20, epochs=1)
    csv_path, manifest = set_up(WORKLOADS["pinned-ari"], tiny, 0, work_dir)
    pipe = Pipeline(Run(), csv_path, manifest, os.path.join(work_dir, "warm"))
    pipe.train()
    pipe.refdb()
    pipe.evaluate("min")
    pipe.simulate()


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def tail_percentile(n: int) -> float:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for q in (90.0, 99.0, 99.9):
        if n * (1 - q / 100) >= 10:
            best = q
    return best


def pipeline_pass(pipe: Pipeline, samples: dict, recorder: SpanRecorder) -> None:
    """Every stage once, in pipeline order.  ``recorder`` only names the stage
    for spans; it records nothing unless its patches are installed."""
    for step in ("train", "refdb", "serve"):
        STEPS[step](pipe, samples, recorder)


def train_step(pipe: Pipeline, samples: dict, recorder: SpanRecorder) -> None:
    recorder.trace_id = "train"
    samples["train_s"].append(pipe.train())


def refdb_step(pipe: Pipeline, samples: dict, recorder: SpanRecorder) -> None:
    recorder.trace_id = "refdb"
    samples["refdb_s"].append(pipe.refdb())


def serving_round(pipe: Pipeline, samples: dict, recorder: SpanRecorder) -> None:
    for scheme, key in (("min", "eval_s"), ("random", "eval_random_s")):
        recorder.trace_id = f"eval-{scheme}"
        elapsed, err = pipe.evaluate(scheme)
        samples[key].append(elapsed)
        if scheme == "min":
            samples["mae"].append(err)
    samples["query_s"].extend(pipe.queries(recorder))
    recorder.trace_id = "simulate"
    elapsed, _ = pipe.simulate()
    samples["sim_s"].append(elapsed)


STEPS = {"train": train_step, "refdb": refdb_step, "serve": serving_round}


def new_samples() -> dict[str, list[float]]:
    return {k: [] for k in ("train_s", "refdb_s", "eval_s", "eval_random_s",
                            "query_s", "sim_s", "mae")}


def end_to_end(samples: dict, n_test: int) -> dict[str, float]:
    """Stage times are medians; throughputs are all instances over all seconds
    (the machine flips between fast and slow states every few seconds, and a
    median of a few samples flips with it); query percentiles pool every query."""
    def per_s(key: str) -> float:
        return n_test * len(samples[key]) / sum(samples[key])

    return {
        "train_s": statistics.median(samples["train_s"]),
        "refdb_s": statistics.median(samples["refdb_s"]),
        "eval_inst_per_s": per_s("eval_s"),
        "eval_random_inst_per_s": per_s("eval_random_s"),
        "query_p50_ms": percentile_ms(samples["query_s"], 50),
        "query_p99_ms": percentile_ms(samples["query_s"], 99),
        "sim_inst_per_s": per_s("sim_s"),
        "mae": samples["mae"][0],
    }


def sample_counts(samples: dict) -> dict[str, int]:
    return {k: len(v) for k, v in samples.items()}


LOW_RANK, HIGH_RANK = 3, 4  # columns of the tab__<tag>__ints arrays in refdb.npz


def refdb_windows(path: str) -> dict[str, int]:
    """Tabled windows, and distinct (low, high) endpoint pairs per model tag."""
    tabled = distinct = 0
    with np.load(path) as data:
        for key in data.files:
            if key.endswith("__ints"):
                ints = data[key]
                tabled += len(ints)
                distinct += len({(int(r[LOW_RANK]), int(r[HIGH_RANK])) for r in ints})
    return {"refdb.windows_tabled": tabled, "refdb.windows_distinct": distinct}


def per_layer(recorder: SpanRecorder, pipe: Pipeline) -> dict[str, float]:
    s = recorder.summary()

    def get(name: str, field: str) -> float:
        return s.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for name, fields in (
            ("training.sample_triplets", ("s", "calls")),
            ("nets.loss_and_gradients", ("s", "calls")),
            ("nets.adam_step", ("s", "calls")),
            ("nets.regress_grid", ("s", "calls")),
            ("nets.encode", ("s",)),
            ("nets.regress", ("s", "calls")),
            ("refdb.build_database", ("self_s",)),
            ("refdb.select_references", ("s", "calls")),
            ("refdb.knn_ranks", ("s", "calls")),
            ("refdb.load_database", ("s",)),
            ("engine.estimate_rank", ("self_s", "calls")),
            ("engine.mwr_step", ("s", "calls")),
            ("windows.make_window", ("s", "calls")),
            ("windows.reconstruct_rank", ("calls",)),
            ("data.load_dataset", ("s",)),
            ("experiments.file_digest", ("s",)),
            ("experiments.run_eval", ("self_s",))):
        for field in fields:
            out[f"{name}.{field}"] = get(name, field)
    out["training.triplets"] = get("training.sample_triplets", "count")
    out["nets.loss_and_gradients.rows"] = get("nets.loss_and_gradients", "count")
    out["nets.regress_grid.cells"] = get("nets.regress_grid", "count")
    out["nets.encode.rows"] = get("nets.encode", "count")
    out["nets.regress.rows"] = get("nets.regress", "count")
    out["nets.checkpoint_io.s"] = (get("nets.save_checkpoint", "s")
                                   + get("nets.load_checkpoint", "s"))
    out.update(refdb_windows(os.path.join(pipe.out, experiments.REFDB_NAME)))
    out.update(iteration_stats(pipe.eval_rows))
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "env_threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it exports the call."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    workload, size = WORKLOADS[args.workload], SIZES[args.size]
    # one CPU for the whole run, the highest-numbered: CPU 0 takes the interrupts
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    warm_up(tempfile.mkdtemp(dir=args.work_dir))
    warm_s = time.perf_counter() - IMPORT_START
    setups = []
    for _ in range(SETUP_REPEATS):
        directory = tempfile.mkdtemp(dir=args.work_dir)
        t0 = time.perf_counter()
        csv_path, manifest = set_up(workload, size, args.seed, directory)
        setups.append(time.perf_counter() - t0)

    run = Run()
    pipe = Pipeline(run, csv_path, manifest, os.path.join(args.work_dir, "run"))
    samples = new_samples()
    result: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                    "trace": args.trace, "environment": environment(),
                    "warmup_s": warm_s, "setup_samples_s": setups}
    start = time.perf_counter()
    recorder = SpanRecorder()
    traced_maes: list[float] = []
    if args.trace:
        pipeline_pass(pipe, samples, recorder)
        traced = new_samples()
        with recorder.patched():
            pipeline_pass(pipe, traced, recorder)
        untraced_e2e, traced_e2e = end_to_end(samples, pipe.n_test), end_to_end(traced, pipe.n_test)
        layers = per_layer(recorder, pipe)
        for key in ("train_s", "refdb_s", "eval_s", "eval_random_s", "sim_s"):
            layers[f"trace_overhead.{key}"] = traced[key][0] - samples[key][0]
        layers["trace_overhead.query_p50_ms"] = (traced_e2e["query_p50_ms"]
                                                 - untraced_e2e["query_p50_ms"])
        traced_maes = traced["mae"]
        result["per_layer"] = layers
        result["module_self_s"] = recorder.module_self_seconds()
        result["spans"] = len(recorder.spans)
        recorder.write_csv(os.path.splitext(args.result)[0] + ".spans.csv")
    else:
        step_s = {}
        for step in SCHEDULE:
            t0 = time.perf_counter()
            STEPS[step](pipe, samples, recorder)
            step_s[step] = time.perf_counter() - t0
        while time.perf_counter() - start + step_s["serve"] <= args.seconds:
            serving_round(pipe, samples, recorder)
    result["measured_s"] = time.perf_counter() - start
    metrics = end_to_end(samples, pipe.n_test)
    metrics["setup_s"] = warm_s + statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the same manifest must give the same MAE on every repeat
    maes = samples["mae"] + traced_maes
    run.record("eval-repeats", [] if len(set(maes)) == 1
               else [f"mae differs between repeats: {maes}"])
    result.update(metrics=metrics, samples=sample_counts(samples),
                  sample_values={k: v for k, v in samples.items() if k != "query_s"},
                  query_tail_percentile=tail_percentile(len(samples["query_s"])),
                  attempted=run.attempted, failed=run.failed, problems=run.problems,
                  digests=run.digests, mean_iters=run.mean_iters)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
