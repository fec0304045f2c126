"""Acceptance gates for the whole package.

Each test is one gate: it prints a single PASS/FAIL line with the measured
quantities (run with ``-s`` to see them all; a failing gate shows its line
in the failure message either way) and asserts both the quality bar and a
wall-clock budget.  The two trained runs are shared fixtures; their build
time is charged to the end-to-end gate, which pays for the training.

Run as: pytest tests/test_acceptance.py -v -s
"""

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gradcheck_utils import run_gradient_checks
from rankwin.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from rankwin.engine import OracleRegressor, estimate_rank, oracle_regress, run_global
from rankwin.experiments import (ExperimentManifest, file_digest,
                                 run_build_refdb, run_eval, run_simulate,
                                 run_train)
from rankwin.metrics import accuracy, cumulative_score, epsilon_error
from rankwin.nets import load_checkpoint
from rankwin.partition import partition_golden
from rankwin.refdb import load_database
from rankwin.windows import (RankRange, RankScale, make_window,
                             reconstruct_rank, relative_rank)

DOMAIN = RankRange(1, 80)


def report(ok: bool, gate: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {gate}: {detail}"
    print("\n" + line)
    assert ok, line


@dataclass(frozen=True)
class TrainedRun:
    out_dir: str
    dataset_path: str
    manifest: ExperimentManifest
    seconds: float


def pinned_manifest(digest: str, **overrides) -> ExperimentManifest:
    base = dict(dataset_digest=digest, domain_lo=1, domain_hi=80,
                scale_kind="ari", tau=3.0, partition="golden5", alpha=6,
                epochs=30, batch_size=18, lr=1e-4, triplets_per_instance=8,
                seed=0, encoder_hidden=(32,), encoded_dim=16,
                head_dims=(256, 64, 1), scheme="min", scheme_seed=0, k=5,
                max_iter=10, pool_cap=256, pair_cap=64)
    base.update(overrides)
    return ExperimentManifest(**base)


def _write_default_dataset(tmp_path_factory, name: str, hetero: bool) -> str:
    ds = generate_synthetic(SyntheticSpec(hetero=hetero, seed=7))
    path = str(tmp_path_factory.mktemp(name) / f"{name}.csv")
    save_dataset(ds, path)
    return path


def _train_and_table(dataset_path: str, tmp_path_factory, name: str) -> TrainedRun:
    out = str(tmp_path_factory.mktemp(name))
    manifest = pinned_manifest(file_digest(dataset_path))
    t0 = time.perf_counter()
    run_train(dataset_path, manifest, out)
    run_build_refdb(dataset_path, out)
    return TrainedRun(out, dataset_path, manifest, time.perf_counter() - t0)


@pytest.fixture(scope="module")
def main_dataset(tmp_path_factory):
    return _write_default_dataset(tmp_path_factory, "main", hetero=False)


@pytest.fixture(scope="module")
def hetero_dataset(tmp_path_factory):
    return _write_default_dataset(tmp_path_factory, "hetero", hetero=True)


@pytest.fixture(scope="module")
def main_run(main_dataset, tmp_path_factory):
    return _train_and_table(main_dataset, tmp_path_factory, "run_main")


@pytest.fixture(scope="module")
def hetero_run(hetero_dataset, tmp_path_factory):
    return _train_and_table(hetero_dataset, tmp_path_factory, "run_hetero")


def _knn_init_mae(run_dir: str) -> float:
    with open(os.path.join(run_dir, "traces.jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    return float(np.mean([abs(r["initial"] - r["truth"]) for r in rows]))


def _global_only_mae(run: TrainedRun) -> float:
    """MAE of the global phase alone, no local refinement."""
    manifest = run.manifest
    test_ds = load_dataset(run.dataset_path).subset("test")
    model, _ = load_checkpoint(os.path.join(run.out_dir, "global.npz"))
    db = load_database(os.path.join(run.out_dir, "refdb.npz"))
    errs = []
    for i in range(len(test_ds)):
        trace = estimate_rank(
            test_ds.features[i], db=db, scale=manifest.scale,
            scheme=manifest.selection, domain=manifest.domain,
            global_model=model, k=manifest.k, max_iter=manifest.max_iter)
        errs.append(abs(trace.final - int(test_ds.ranks[i])))
    return float(np.mean(errs))


def test_golden_partition_of_3_85():
    partition_golden(RankRange(1, 40))  # warm the code path before timing
    t0 = time.perf_counter()
    groups = partition_golden(RankRange(3, 85))
    ms = 1000 * (time.perf_counter() - t0)
    cores = [(g.theta_min, g.theta_max) for g in groups]
    expected = [(3, 18), (10, 29), (19, 44), (30, 62), (45, 85)]
    report(cores == expected and ms < 1.0,
           "golden partition of [3, 85]",
           f"cores {cores} ({ms:.3f} ms < 1 ms)")


def test_geometric_window_span_at_60():
    make_window(50, RankScale.geometric(0.1), DOMAIN)  # warm-up
    t0 = time.perf_counter()
    window = make_window(60, RankScale.geometric(0.1), DOMAIN)
    ms = 1000 * (time.perf_counter() - t0)
    span = window.high - window.low
    report(span == 12 and ms < 1.0,
           "geometric window at rank 60, tau 0.1",
           f"[{window.low}, {window.high}] span {span} ({ms:.3f} ms < 1 ms)")


def test_relative_rank_round_trip_identity():
    n = 100_000
    rng = np.random.default_rng(3)
    y1s = rng.uniform(1.0, 79.0, n).tolist()
    gaps = rng.uniform(0.5, 20.0, n).tolist()
    us = rng.uniform(0.0, 1.0, n).tolist()
    worst = 0.0
    t0 = time.perf_counter()
    for scale in (RankScale.arithmetic(3), RankScale.geometric(0.1)):
        for y1, gap, u in zip(y1s, gaps, us):
            y2 = y1 + gap
            theta = y1 + gap * u
            rec = reconstruct_rank(relative_rank(theta, y1, y2, scale),
                                   y1, y2, scale)
            err = abs(rec - theta) / theta
            if err > worst:
                worst = err
    elapsed = time.perf_counter() - t0
    report(worst < 1e-12 and elapsed < 1.0,
           "rank -> relative -> rank round trip, 1e5 triples per scale",
           f"worst relative error {worst:.2e} < 1e-12 ({elapsed:.2f} s < 1 s)")


def test_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = run_gradient_checks(n_models=50, seed=29)
    elapsed = time.perf_counter() - t0
    report(worst < 1e-4 and elapsed < 30.0,
           "analytic vs central-difference gradients, 50 random models",
           f"max relative error {worst:.2e} < 1e-4 ({elapsed:.1f} s < 30 s)")


def test_noiseless_oracle_always_converges_within_bound():
    oracle = OracleRegressor()
    rng = np.random.default_rng(17)
    pairs = rng.integers(1, 81, size=(1000, 2))
    failures = 0
    t0 = time.perf_counter()
    for tau in (2, 3, 5):
        scale = RankScale.arithmetic(tau)
        cap = int(np.ceil(79 / tau)) + 1
        for truth, init in pairs:
            final, trace = run_global(oracle_regress(oracle, int(truth), scale), scale,
                                      DOMAIN, init=int(init), max_iter=cap)
            bound = int(np.ceil(abs(int(init) - int(truth)) / tau)) + 1
            if final != truth or not trace.converged or trace.iterations > bound:
                failures += 1
    elapsed = time.perf_counter() - t0
    report(failures == 0 and elapsed < 5.0,
           "noiseless oracle, 1000 (truth, init) pairs, tau in {2, 3, 5}",
           f"{failures} bound violations of 3000 ({elapsed:.2f} s < 5 s)")


def test_noisy_oracle_mostly_converges_within_six_iterations(
        main_dataset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sim"))
    manifest = pinned_manifest(file_digest(main_dataset), oracle_noise_std=0.15)
    t0 = time.perf_counter()
    run_simulate(main_dataset, manifest, out)
    elapsed = time.perf_counter() - t0
    with open(os.path.join(out, "convergence.csv")) as fh:
        lines = fh.read().strip().splitlines()
    pct_at_6 = next(float(line.split(",")[4]) for line in lines[1:]
                    if line.split(",")[1] == "global" and line.split(",")[2] == "6")
    report(pct_at_6 >= 90.0 and elapsed < 30.0,
           "noisy oracle with kNN start, share converged by iteration 6",
           f"{pct_at_6:.1f}% >= 90% ({elapsed:.1f} s < 30 s)")


def test_trained_model_lifts_knn_and_locals_hold(main_run, hetero_run):
    t0 = time.perf_counter()
    full_mae = run_eval(main_run.dataset_path, main_run.out_dir)["mae"]
    knn_mae = _knn_init_mae(main_run.out_dir)
    global_mae = _global_only_mae(main_run)
    hetero_full = run_eval(hetero_run.dataset_path, hetero_run.out_dir)["mae"]
    hetero_global = _global_only_mae(hetero_run)
    elapsed = (time.perf_counter() - t0) + main_run.seconds + hetero_run.seconds
    lift = (knn_mae - global_mae) / knn_mae
    local_ratio = full_mae / global_mae
    ok = (lift >= 0.10
          and local_ratio <= 1.02
          and hetero_full < hetero_global
          and elapsed < 600.0)
    report(ok, "trained model vs kNN start, local refinement effect",
           f"global {global_mae:.4f} vs kNN {knn_mae:.4f} (lift {100*lift:.1f}%"
           f" >= 10%), with locals {full_mae:.4f} (ratio {local_ratio:.4f}"
           f" <= 1.02), heteroscedastic {hetero_full:.4f} < {hetero_global:.4f}"
           f" ({elapsed:.0f} s < 600 s incl. training)")


def test_reference_selection_scheme_ordering(main_run):
    t0 = time.perf_counter()
    csv, out = main_run.dataset_path, main_run.out_dir
    low = run_eval(csv, out, prefix="pick_low_")["mae"]
    high = run_eval(csv, out, scheme="max", prefix="pick_high_")["mae"]
    random5 = [run_eval(csv, out, scheme="random", scheme_seed=s,
                        prefix=f"pick_rnd{s}_")["mae"] for s in range(5)]
    elapsed = time.perf_counter() - t0
    mid = float(np.mean(random5))
    ok = low <= mid <= high and low < high and elapsed < 300.0
    report(ok, "reference pair selection, least error <= random <= most error",
           f"{low:.4f} <= {mid:.4f} (5-seed mean) <= {high:.4f}"
           f" ({elapsed:.0f} s < 300 s)")


def test_metric_unit_values():
    t0 = time.perf_counter()
    unit = epsilon_error([10], [12], [2.0])
    unit_gap = abs(unit - (1.0 - np.exp(-0.5)))
    rng = np.random.default_rng(5)
    truth, pred = rng.integers(1, 81, size=(1000, 2)).T
    same = accuracy(truth, pred) == cumulative_score(truth, pred, 0)
    elapsed = time.perf_counter() - t0
    report(unit_gap < 1e-12 and same and elapsed < 1.0,
           "soft-error unit point and exact-hit identity",
           f"|error|=sigma scores off by {unit_gap:.1e} < 1e-12; accuracy =="
           f" within-0 score on 1000 records ({elapsed:.2f} s < 1 s)")


def test_one_manifest_reproduces_identical_metrics_bytes(tmp_path_factory):
    t0 = time.perf_counter()
    ds = generate_synthetic(SyntheticSpec(n=600, rank_domain=RankRange(1, 40),
                                          seed=3))
    base = tmp_path_factory.mktemp("repro")
    csv = str(base / "small.csv")
    save_dataset(ds, csv)
    manifest = pinned_manifest(file_digest(csv), domain_lo=1, domain_hi=40,
                               epochs=3, triplets_per_instance=2, seed=3)
    outputs = []
    for name in ("a", "b"):
        out = str(base / name)
        run_train(csv, manifest, out)
        run_build_refdb(csv, out)
        run_eval(csv, out)
        with open(os.path.join(out, "metrics.csv"), "rb") as fh:
            outputs.append(fh.read())
    elapsed = time.perf_counter() - t0
    report(outputs[0] == outputs[1] and elapsed < 600.0,
           "two train+eval runs from one manifest",
           f"metrics bytes identical: {outputs[0] == outputs[1]}"
           f" ({elapsed:.0f} s < 600 s)")
