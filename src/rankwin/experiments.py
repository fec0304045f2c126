"""Experiment manifests and run orchestration behind the command line.

A manifest pins everything that determines a run: dataset digest, scale,
partition, model dimensions, training settings, selection scheme, and seeds.
Rerunning any command from the same manifest against the same dataset file
reproduces outputs byte for byte.  Every artifact lands in the run's output
directory next to the manifest that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rankwin.data import Dataset, load_dataset
from rankwin.engine import InferenceTrace, OracleRegressor, estimate_rank
from rankwin.errors import ConfigError, DigestMismatchError
from rankwin.fileio import atomic_open
from rankwin.metrics import (accuracy, cumulative_score, epsilon_error,
                             format_report, mae)
from rankwin.nets import (EncoderSpec, HeadSpec, RelativeRegressor,
                          load_checkpoint, model_digest, save_checkpoint)
from rankwin.partition import RankGroup, partition_equal, partition_golden
from rankwin.refdb import (TABLE_COLUMNS, SelectionKind, SelectionScheme,
                           TAG_GLOBAL, TAG_RAW, build_database, load_database,
                           local_tag, save_database)
from rankwin.training import TrainConfig, train
from rankwin.windows import RankRange, RankScale, ScaleKind

__all__ = [
    "ExperimentManifest",
    "file_digest",
    "atomic_write_text",
    "run_train",
    "run_build_refdb",
    "run_eval",
    "run_simulate",
    "run_sweep",
    "inspect_run",
    "METRICS_COLUMNS",
]

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
REFDB_NAME = "refdb.npz"
METRICS_COLUMNS = ("run_id", "split", "mae", "cs5", "eps_error", "accuracy",
                   "mean_iters", "converged_pct")
PARTITIONS = ("golden5", "equal3", "none")
SCALES = tuple(k.value for k in ScaleKind)
SCHEMES = tuple(k.value for k in SelectionKind)

log = logging.getLogger(__name__)


def _fits(annotation: str, value) -> bool:
    """Whether ``value`` fits a manifest field's annotation: a bool is no int, an
    int is a float, and a tuple holds ints (``from_json`` turns lists into tuples)."""
    if annotation.startswith("tuple"):
        return isinstance(value, tuple) and all(_fits("int", v) for v in value)
    kinds = {"str": str, "int": int, "float": (int, float), "int | None": (int, type(None))}
    return isinstance(value, kinds[annotation]) and not isinstance(value, bool)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


@dataclass(frozen=True)
class ExperimentManifest:
    """Everything that determines a run's outputs, in plain JSON types."""

    dataset_digest: str
    domain_lo: int
    domain_hi: int
    scale_kind: str = "geo"
    tau: float = 0.1
    partition: str = "golden5"
    alpha: int = 6
    epochs: int = 30
    batch_size: int = 18
    lr: float = 1e-4
    triplets_per_instance: int = 4
    seed: int = 0
    encoder_hidden: tuple[int, ...] = (32,)
    encoded_dim: int = 16
    head_dims: tuple[int, int, int] = (256, 64, 1)
    scheme: str = "min"
    scheme_seed: int = 0
    k: int = 5
    max_iter: int = 10
    pool_cap: int | None = 256
    pair_cap: int | None = 64
    oracle_noise_std: float = 0.0
    format_version: int = MANIFEST_VERSION

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not _fits(field.type, value):
                raise ConfigError(f"manifest field {field.name} must be {field.type}, "
                                  f"got {value!r}")
        for name, choices in (("partition", PARTITIONS), ("scheme", SCHEMES),
                              ("scale_kind", SCALES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.k < 1 or self.max_iter < 1:
            raise ConfigError(f"k and max_iter must be >= 1, got {self.k} and {self.max_iter}")
        if any(cap is not None and cap < 1 for cap in (self.pool_cap, self.pair_cap)):
            raise ConfigError(f"pool_cap and pair_cap must be null or >= 1, "
                              f"got {self.pool_cap} and {self.pair_cap}")
        # the objects built from these fields own their checks (tau, domain, scheme_seed, lr, ...)
        self.scale, self.domain, self.selection, self.train_config()

    @property
    def scale(self) -> RankScale:
        return RankScale(ScaleKind(self.scale_kind), self.tau)

    @property
    def domain(self) -> RankRange:
        return RankRange(self.domain_lo, self.domain_hi)

    @property
    def selection(self) -> SelectionScheme:
        return SelectionScheme(SelectionKind(self.scheme), self.scheme_seed)

    def make_groups(self) -> list[RankGroup] | None:
        if self.partition == "none":
            return None
        if self.partition == "golden5":
            return partition_golden(self.domain, self.alpha)
        return partition_equal(self.domain, 3, self.alpha)

    def train_config(self) -> TrainConfig:
        return TrainConfig(scale=self.scale, epochs=self.epochs,
                           batch_size=self.batch_size, lr=self.lr,
                           alpha=self.alpha, seed=self.seed,
                           triplets_per_instance=self.triplets_per_instance)

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["encoder_hidden"] = list(self.encoder_hidden)
        d["head_dims"] = list(self.head_dims)
        return json.dumps(d, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentManifest":
        try:
            d = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(d, dict):
            raise ConfigError("manifest must be a JSON object")
        if d.get("format_version") != MANIFEST_VERSION:
            raise ConfigError(f"unsupported manifest version {d.get('format_version')}")
        known = {f.name for f in dataclasses.fields(cls)}
        extra, missing = set(d) - known, known - set(d)
        if extra:
            raise ConfigError(f"unknown manifest fields: {sorted(extra)}")
        if missing:
            raise ConfigError(f"missing manifest fields: {sorted(missing)}")
        for name in ("encoder_hidden", "head_dims"):
            if isinstance(d[name], list):
                d[name] = tuple(d[name])
        return cls(**d)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @property
    def run_id(self) -> str:
        return self.digest()[:12]


def write_manifest(manifest: ExperimentManifest, out_dir: str) -> str:
    path = os.path.join(out_dir, MANIFEST_NAME)
    atomic_write_text(path, manifest.to_json())
    return path


def read_manifest(out_dir: str) -> ExperimentManifest:
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ConfigError(f"no {MANIFEST_NAME} in {out_dir}; run train first")
    with open(path) as fh:
        return ExperimentManifest.from_json(fh.read())


def _check_dataset(manifest: ExperimentManifest, dataset_path: str) -> Dataset:
    digest = file_digest(dataset_path)
    if digest != manifest.dataset_digest:
        raise DigestMismatchError(
            f"dataset {dataset_path} digest {digest[:12]}... does not match "
            f"manifest {manifest.dataset_digest[:12]}...")
    return load_dataset(dataset_path)


def _instance_key(instance_id: str) -> int:
    return zlib.crc32(instance_id.encode())


def run_train(dataset_path: str, manifest: ExperimentManifest, out_dir: str) -> None:
    """Train the global model (plus locals under a partition) and save them."""
    os.makedirs(out_dir, exist_ok=True)
    dataset = _check_dataset(manifest, dataset_path)
    train_ds = dataset.subset("train")
    if len(train_ds) == 0:
        raise ConfigError("dataset has no train split")
    groups = manifest.make_groups()
    encoder = EncoderSpec(train_ds.feature_dim, manifest.encoder_hidden, manifest.encoded_dim)
    head = HeadSpec(manifest.head_dims)
    run_id = manifest.run_id
    log_rows: list[str] = ["run_id,model_key,epoch,mean_loss"]
    last = time.perf_counter()

    def on_epoch(key: int, epoch: int, loss: float) -> None:
        nonlocal last
        now = time.perf_counter()
        log_rows.append(f"{run_id},{key},{epoch},{loss:.8f}")
        log.info("train model %d epoch %d: mean loss %.6f, %.2f s", key, epoch, loss, now - last)
        last = now

    global_model, local_models = train(
        train_ds, manifest.train_config(), groups, encoder=encoder, head=head,
        on_epoch=on_epoch)
    write_manifest(manifest, out_dir)
    save_checkpoint(global_model, os.path.join(out_dir, "global.npz"), run_id=run_id)
    for i, model in enumerate(local_models):
        save_checkpoint(model, os.path.join(out_dir, f"local{i}.npz"), run_id=run_id)
    atomic_write_text(os.path.join(out_dir, "train_log.csv"), "\n".join(log_rows) + "\n")


def load_models(out_dir: str, manifest: ExperimentManifest,
                ) -> tuple[RelativeRegressor, list[RelativeRegressor]]:
    """The run's checkpoints; each must carry ``manifest.run_id``."""
    run_id = manifest.run_id
    global_model, _ = load_checkpoint(os.path.join(out_dir, "global.npz"), run_id)
    local_models = [load_checkpoint(os.path.join(out_dir, f"local{i}.npz"), run_id)[0]
                    for i in range(len(manifest.make_groups() or ()))]
    return global_model, local_models


def run_build_refdb(dataset_path: str, out_dir: str) -> str:
    """Embed the train split under every saved model and table its windows."""
    manifest = read_manifest(out_dir)
    dataset = _check_dataset(manifest, dataset_path)
    train_ds = dataset.subset("train")
    global_model, local_models = load_models(out_dir, manifest)
    models = {TAG_GLOBAL: global_model, **{local_tag(i): m for i, m in enumerate(local_models)}}
    db = build_database(train_ds, models, manifest.scale, manifest.domain,
                        groups=manifest.make_groups(), alpha=manifest.alpha,
                        pool_cap=manifest.pool_cap, pair_cap=manifest.pair_cap,
                        seed=manifest.seed)
    path = os.path.join(out_dir, REFDB_NAME)
    save_database(db, path, run_id=manifest.run_id)
    return path


def _phase_iteration_table(truth, traces, phase: str, max_iter: int):
    """Per-iteration mean |error| and cumulative converged %, one phase of ``traces``."""
    series = []
    for rank, trace in zip(truth, traces):
        records = [r for r in trace.records if r["phase"] == phase]
        if not records:
            continue
        # the first window is built around the estimate entering the phase; a
        # fixed point (an estimate equal to its predecessor) ends the phase
        path = [records[0]["steps"][0]["center"]] + [r["estimate"] for r in records]
        series.append((rank, path[1:], len(records) if path[-1] == path[-2] else None))
    rows = []
    for t in range(1, max_iter + 1) if series else ():
        errs = [abs(est[min(t, len(est)) - 1] - rank) for rank, est, _ in series]
        conv = sum(1 for _, _, c in series if c is not None and c <= t)
        rows.append((phase, t, float(np.mean(errs)), 100.0 * conv / len(series)))
    return rows


def _metric_cells(values: dict[str, float | None]) -> list[str]:
    return ["" if values[c] is None else f"{values[c]:.6f}" for c in METRICS_COLUMNS[2:]]


def _score_split(out_dir: str, manifest: ExperimentManifest, split: str, eval_ds: Dataset,
                 estimate: Callable[[int], InferenceTrace],
                 prefix: str = "") -> dict[str, float | None]:
    """Score instance ``i`` of ``eval_ds`` with ``estimate(i)`` and write the split's outputs."""
    run_id = manifest.run_id
    traces = [estimate(i) for i in range(len(eval_ds))]
    truth, pred = eval_ds.ranks, np.array([trace.final for trace in traces])
    values: dict[str, float | None] = {
        "mae": mae(truth, pred),
        "cs5": cumulative_score(truth, pred, 5),
        "eps_error": epsilon_error(truth, pred, eval_ds.sigmas) if eval_ds.has_sigma else None,
        "accuracy": accuracy(truth, pred),
        "mean_iters": float(np.mean([t.iterations for t in traces])),
        "converged_pct": float(100.0 * np.mean([t.converged for t in traces])),
    }
    atomic_write_text(os.path.join(out_dir, f"{prefix}metrics.csv"),
                      ",".join(METRICS_COLUMNS) + "\n"
                      + ",".join([run_id, split, *_metric_cells(values)]) + "\n")
    report = {"run_id": run_id, "split": split}
    report.update({k: ("" if v is None else v) for k, v in values.items()})
    atomic_write_text(os.path.join(out_dir, f"{prefix}metrics.txt"), format_report(report))
    trace_lines = [json.dumps({"run_id": run_id, "id": instance_id, "truth": rank,
                               **trace.to_dict()}, sort_keys=True)
                   for instance_id, rank, trace in zip(eval_ds.ids, truth.tolist(), traces)]
    atomic_write_text(os.path.join(out_dir, f"{prefix}traces.jsonl"),
                      "\n".join(trace_lines) + "\n")
    conv_rows = ["run_id,phase,iteration,mean_abs_error,converged_cum_pct"]
    for phase in ("global", "local"):
        for ph, t, err, pct in _phase_iteration_table(truth, traces, phase, manifest.max_iter):
            conv_rows.append(f"{run_id},{ph},{t},{err:.6f},{pct:.6f}")
    atomic_write_text(os.path.join(out_dir, f"{prefix}convergence.csv"),
                      "\n".join(conv_rows) + "\n")
    return values


def run_eval(dataset_path: str, out_dir: str, split: str = "test",
             scheme: str | None = None, scheme_seed: int | None = None,
             prefix: str = "") -> dict[str, float | None]:
    """Run inference over a split with the stored models and database.

    Artifacts are checked against the stored manifest's run_id; a scheme
    override only changes the run_id written to the outputs.
    """
    stored = read_manifest(out_dir)
    overrides = {"scheme": scheme, "scheme_seed": scheme_seed}
    manifest = dataclasses.replace(stored, **{k: v for k, v in overrides.items() if v is not None})
    dataset = _check_dataset(manifest, dataset_path)
    eval_ds = dataset.subset(split)
    if len(eval_ds) == 0:
        raise ConfigError(f"dataset has no {split!r} split")
    global_model, local_models = load_models(out_dir, stored)
    expected = {TAG_GLOBAL: model_digest(global_model),
                **{local_tag(i): model_digest(m) for i, m in enumerate(local_models)}}
    db = load_database(os.path.join(out_dir, REFDB_NAME), expected, run_id=stored.run_id)
    groups = manifest.make_groups()
    return _score_split(out_dir, manifest, split, eval_ds, lambda i: estimate_rank(
        eval_ds.features[i], db=db, scale=manifest.scale,
        scheme=manifest.selection, domain=manifest.domain,
        global_model=global_model, local_models=local_models or None,
        groups=groups, k=manifest.k, max_iter=manifest.max_iter), prefix=prefix)


def run_simulate(dataset_path: str, manifest: ExperimentManifest, out_dir: str,
                 split: str = "test") -> dict[str, float | None]:
    """Oracle-driven window dynamics: no models, kNN init on raw features."""
    os.makedirs(out_dir, exist_ok=True)
    dataset = _check_dataset(manifest, dataset_path)
    train_ds = dataset.subset("train")
    eval_ds = dataset.subset(split)
    if len(train_ds) == 0 or len(eval_ds) == 0:
        raise ConfigError(f"dataset needs nonempty train and {split!r} splits")
    write_manifest(manifest, out_dir)
    db = build_database(train_ds, {TAG_RAW: None}, manifest.scale, manifest.domain,
                        alpha=manifest.alpha, pool_cap=manifest.pool_cap,
                        pair_cap=manifest.pair_cap, seed=manifest.seed)
    oracle = OracleRegressor(noise_std=manifest.oracle_noise_std, seed=manifest.seed)
    return _score_split(out_dir, manifest, split, eval_ds, lambda i: estimate_rank(
        eval_ds.features[i], db=db, scale=manifest.scale,
        scheme=manifest.selection, domain=manifest.domain, oracle=oracle,
        truth=int(eval_ds.ranks[i]), k=manifest.k, max_iter=manifest.max_iter,
        instance_key=_instance_key(eval_ds.ids[i])))


def run_sweep(dataset_path: str, out_dir: str, base: ExperimentManifest,
              cells: list[tuple[str, float]], split: str = "test") -> str:
    """Train+evaluate one run per (scale, tau) cell; aggregate one CSV."""
    if not cells:
        raise ConfigError("sweep needs at least one (scale, tau) cell")
    # every cell is checked before the first one trains
    manifests = [dataclasses.replace(base, scale_kind=kind, tau=tau) for kind, tau in cells]
    os.makedirs(out_dir, exist_ok=True)
    rows = ["run_id,scale,tau,scheme," + ",".join(METRICS_COLUMNS[2:])]
    for (kind, tau), manifest in zip(cells, manifests):
        cell_dir = os.path.join(out_dir, f"cell_{kind}_{tau:g}")
        run_train(dataset_path, manifest, cell_dir)
        run_build_refdb(dataset_path, cell_dir)
        values = run_eval(dataset_path, cell_dir, split=split)
        rows.append(",".join([manifest.run_id, kind, f"{tau:g}", manifest.scheme,
                              *_metric_cells(values)]))
    path = os.path.join(out_dir, "sweep.csv")
    atomic_write_text(path, "\n".join(rows) + "\n")
    return path


def inspect_run(out_dir: str) -> str:
    """Human-readable summary of a run directory."""
    manifest = read_manifest(out_dir)
    lines = [f"run_id {manifest.run_id}", "", "manifest:"]
    lines.extend("  " + line for line in manifest.to_json().strip().splitlines())
    db_path = os.path.join(out_dir, REFDB_NAME)
    if os.path.exists(db_path):
        db = load_database(db_path)
        lines += ["", f"reference database: {len(db)} instances"]
        for tag in db.tags:
            table = db.tables.get(tag)
            n_windows = len(table) if table is not None else 0
            lines.append(f"  {tag}: digest {db.digests[tag][:12]} windows {n_windows}")
            if table is not None:
                gammas = table.gammas[:, 0]
                lines.append(f"    min-gamma range [{gammas.min():.4f}, {gammas.max():.4f}]")
                cols = dict(zip(TABLE_COLUMNS, table.ints.T.tolist()))
                endpoints = len(set(zip(cols["low_rank"], cols["high_rank"])))
                lines.append(f"    endpoint pairs {endpoints} scored cells {table.scored_cells}")
    for name in sorted(os.listdir(out_dir)):
        if name.endswith("metrics.csv"):
            with open(os.path.join(out_dir, name)) as fh:
                lines += ["", name + ":"] + ["  " + l for l in fh.read().strip().splitlines()]
    return "\n".join(lines) + "\n"
