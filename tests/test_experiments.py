"""Manifest contract and the train/build/eval/simulate/sweep pipeline.

Everything here runs on a deliberately tiny dataset (240 instances over
ranks 1..15) so the full pipeline fits in well under a second per run.
The trained-run fixture is shared module-wide; tests only read from it.
"""

import dataclasses
import json
import logging
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rankwin.data import SyntheticSpec, generate_synthetic, save_dataset
from rankwin.errors import ConfigError, DigestMismatchError
from rankwin.experiments import (METRICS_COLUMNS, ExperimentManifest,
                                 _phase_iteration_table, atomic_write_text,
                                 file_digest, inspect_run, read_manifest,
                                 run_build_refdb, run_eval, run_simulate,
                                 run_sweep, run_train)
from rankwin.fileio import atomic_open
from rankwin.nets import load_checkpoint, save_checkpoint
from rankwin.refdb import (TABLE_COLUMNS, TAG_GLOBAL, load_database, local_tag,
                           save_database)
from rankwin.windows import RankRange
from test_engine import pinned_oracle_trace, run_phase, scripted


def small_manifest(digest, **overrides):
    base = dict(dataset_digest=digest, domain_lo=1, domain_hi=15,
                scale_kind="ari", tau=2.0, alpha=3, epochs=2,
                triplets_per_instance=2, encoder_hidden=(8,), encoded_dim=6,
                head_dims=(16, 8, 1), pool_cap=64, pair_cap=16, lr=1e-3)
    base.update(overrides)
    return ExperimentManifest(**base)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    ds = generate_synthetic(SyntheticSpec(
        n=240, rank_domain=RankRange(1, 15), feature_dim=6,
        noise_std=0.05, seed=5))
    path = str(tmp_path_factory.mktemp("data") / "tiny.csv")
    save_dataset(ds, path)
    return path


@pytest.fixture(scope="module")
def trained_run(dataset_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    manifest = small_manifest(file_digest(dataset_path))
    run_train(dataset_path, manifest, out)
    run_build_refdb(dataset_path, out)
    return out, manifest


# ---------------------------------------------------------------- manifest

def test_manifest_json_round_trip(dataset_path):
    manifest = small_manifest(file_digest(dataset_path))
    again = ExperimentManifest.from_json(manifest.to_json())
    assert again == manifest
    assert again.digest() == manifest.digest()


def test_run_id_is_digest_prefix():
    manifest = small_manifest("0" * 64)
    assert manifest.run_id == manifest.digest()[:12]
    assert len(manifest.run_id) == 12


def test_any_field_change_moves_the_digest():
    manifest = small_manifest("0" * 64)
    for change in ({"tau": 3.0}, {"seed": 1}, {"k": 7}, {"scheme": "max"}):
        assert dataclasses.replace(manifest, **change).digest() != manifest.digest()


def test_manifest_rejects_unknown_fields():
    d = json.loads(small_manifest("0" * 64).to_json())
    d["window_flavor"] = "wide"
    with pytest.raises(ConfigError, match="unknown manifest fields"):
        ExperimentManifest.from_json(json.dumps(d))


def manifest_json_with(**fields):
    """The small manifest's JSON with ``fields`` set to other JSON values."""
    return json.dumps({**json.loads(small_manifest("0" * 64).to_json()), **fields})


@pytest.mark.parametrize("text, match", [
    ("{", "not valid JSON"),
    ("[1, 2]", "JSON object"),
    (json.dumps({k: v for k, v in json.loads(small_manifest("0" * 64).to_json()).items()
                 if k != "encoder_hidden"}), r"missing manifest fields: \['encoder_hidden'\]"),
    (manifest_json_with(epochs="3"), "epochs must be int"),
    (manifest_json_with(tau=None), "tau must be float"),
    (manifest_json_with(encoder_hidden=5), "encoder_hidden must be tuple"),
    (manifest_json_with(epochs=1.5), "epochs must be int"),
    (manifest_json_with(epochs=True), "epochs must be int"),
    (manifest_json_with(head_dims=[16, 8.0, 1]), "head_dims must be tuple"),
    (manifest_json_with(pool_cap="64"), "pool_cap must be int | None"),
    (manifest_json_with(pool_cap=0), "pool_cap and pair_cap"),
    (manifest_json_with(pair_cap=0), "pool_cap and pair_cap"),
    (manifest_json_with(k=0), "k and max_iter"),
    (manifest_json_with(max_iter=0), "k and max_iter"),
    (manifest_json_with(scheme_seed=-1), "scheme seed"),
], ids=["not-json", "not-an-object", "missing-field", "int-as-string", "float-as-null",
        "tuple-as-int", "int-as-float", "int-as-bool", "tuple-of-floats", "cap-as-string",
        "pool-cap-0", "pair-cap-0", "k-0", "max-iter-0", "scheme-seed-negative"])
def test_manifest_rejects_unreadable_json(text, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentManifest.from_json(text)


def test_manifest_accepts_ints_for_floats_and_null_caps():
    manifest = ExperimentManifest.from_json(manifest_json_with(tau=2, lr=1, pool_cap=None,
                                                               pair_cap=None))
    assert (manifest.tau, manifest.pool_cap, manifest.pair_cap) == (2, None, None)


def test_manifest_rejects_other_versions():
    d = json.loads(small_manifest("0" * 64).to_json())
    d["format_version"] = 99
    with pytest.raises(ConfigError, match="version"):
        ExperimentManifest.from_json(json.dumps(d))


@pytest.mark.parametrize("bad", [
    {"partition": "golden7"},
    {"scheme": "median"},
    {"scale_kind": "log"},
    {"tau": 2.5},
    {"domain_lo": 16},
    {"lr": 0.0},
    {"batch_size": 0},
    {"epochs": -1},
    {"alpha": -1},
    {"triplets_per_instance": 0},
])
def test_manifest_field_validation(bad):
    with pytest.raises(ConfigError):
        small_manifest("0" * 64, **bad)


def test_make_groups_per_partition():
    manifest = small_manifest("0" * 64)
    assert len(manifest.make_groups()) == 5
    assert len(dataclasses.replace(manifest, partition="equal3").make_groups()) == 3
    assert dataclasses.replace(manifest, partition="none").make_groups() is None


# ------------------------------------------------------------- small utils

def test_file_digest_matches_hashlib(tmp_path):
    import hashlib
    path = tmp_path / "blob.bin"
    path.write_bytes(b"abc" * 1000)
    assert file_digest(str(path)) == hashlib.sha256(b"abc" * 1000).hexdigest()


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "first\n")
    atomic_write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_open_keeps_the_old_file_on_error(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("kept\n")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["out.txt"]


# ----------------------------------------------------------------- train

def test_train_writes_manifest_and_checkpoints(trained_run):
    out, manifest = trained_run
    assert read_manifest(out) == manifest
    names = sorted(os.listdir(out))
    assert "global.npz" in names
    for i in range(5):
        assert f"local{i}.npz" in names


def test_train_log_shape_and_run_id(trained_run):
    out, manifest = trained_run
    with open(os.path.join(out, "train_log.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "run_id,model_key,epoch,mean_loss"
    # one row per (model, epoch): the global model plus five locals
    assert len(lines) - 1 == manifest.epochs * 6
    assert all(line.startswith(manifest.run_id + ",") for line in lines[1:])


def test_train_and_refdb_log_progress(dataset_path, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="rankwin")
    out = str(tmp_path)
    run_train(dataset_path, small_manifest(file_digest(dataset_path)), out)
    with open(os.path.join(out, "train_log.csv")) as fh:
        rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == len(rows) == 12
    for (_, key, epoch, loss), msg in zip(rows, messages):
        assert msg.startswith(f"train model {key} epoch {epoch}: mean loss {float(loss):.6f}, ")
        assert msg.endswith(" s")
    caplog.clear()
    run_build_refdb(dataset_path, out)
    db = load_database(os.path.join(out, "refdb.npz"))
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == len(db.tables) == 6
    for (tag, table), msg in zip(db.tables.items(), messages):
        assert msg.startswith(f"refdb {tag}: {len(table)} windows, "
                              f"{table.scored_cells} scored cells, ")


def test_library_is_silent_without_logging_config(dataset_path, tmp_path):
    code = ("import sys; from rankwin.experiments import file_digest, run_train; "
            "from test_experiments import small_manifest; "
            "run_train(sys.argv[1], small_manifest(file_digest(sys.argv[1])), sys.argv[2])")
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([here, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, dataset_path, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""


def test_checkpoints_carry_the_run_id(trained_run):
    out, manifest = trained_run
    for name in ("global.npz", "local2.npz"):
        with np.load(os.path.join(out, name)) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        assert meta["run_id"] == manifest.run_id


def test_train_refuses_wrong_dataset_digest(dataset_path, tmp_path):
    manifest = small_manifest("f" * 64)
    with pytest.raises(DigestMismatchError):
        run_train(dataset_path, manifest, str(tmp_path))


# ------------------------------------------------------------ build-refdb

def test_refdb_has_one_table_per_model(trained_run):
    out, manifest = trained_run
    db = load_database(os.path.join(out, "refdb.npz"))
    assert set(db.tags) == {TAG_GLOBAL} | {local_tag(i) for i in range(5)}
    with np.load(os.path.join(out, "refdb.npz")) as data:
        meta = json.loads(bytes(data["meta"]).decode())
    assert meta["run_id"] == manifest.run_id


def copy_of_run(trained_run, tmp_path):
    out = str(tmp_path / "run")
    shutil.copytree(trained_run[0], out)
    return out


def test_foreign_checkpoint_is_refused(trained_run, dataset_path, tmp_path):
    out = copy_of_run(trained_run, tmp_path)
    path = os.path.join(out, "local2.npz")
    model, _ = load_checkpoint(path)
    save_checkpoint(model, path, run_id="0" * 12)
    with pytest.raises(DigestMismatchError, match="local2.npz"):
        run_build_refdb(dataset_path, out)
    with pytest.raises(DigestMismatchError, match="0" * 12):
        run_eval(dataset_path, out, scheme="random")


def test_foreign_refdb_is_refused(trained_run, dataset_path, tmp_path):
    out = copy_of_run(trained_run, tmp_path)
    path = os.path.join(out, "refdb.npz")
    save_database(load_database(path), path, run_id="0" * 12)
    with pytest.raises(DigestMismatchError, match="refdb.npz"):
        run_eval(dataset_path, out)
    # loading without an expected run_id still works
    assert len(load_database(path)) > 0


def test_build_refdb_requires_a_trained_run(dataset_path, tmp_path):
    with pytest.raises(ConfigError, match="train first"):
        run_build_refdb(dataset_path, str(tmp_path))


# ------------------------------------------------------------------ eval

def test_eval_metrics_csv_contract(trained_run, dataset_path):
    out, manifest = trained_run
    values = run_eval(dataset_path, out)
    assert set(values) == set(METRICS_COLUMNS[2:])
    with open(os.path.join(out, "metrics.csv")) as fh:
        header, row = fh.read().strip().splitlines()
    assert header == ",".join(METRICS_COLUMNS)
    cells = row.split(",")
    assert cells[0] == manifest.run_id
    assert cells[1] == "test"
    assert float(cells[2]) == pytest.approx(values["mae"], abs=1e-6)


def test_eval_traces_are_json_lines_with_run_id(trained_run, dataset_path):
    out, manifest = trained_run
    run_eval(dataset_path, out)
    with open(os.path.join(out, "traces.jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    assert rows
    for row in rows:
        assert row["run_id"] == manifest.run_id
        assert {"id", "truth", "initial", "converged",
                "final_global", "final_local", "iterations"} <= set(row)
        final = row["final_local"] if row["final_local"] is not None else row["final_global"]
        assert 1 <= final <= 15


def test_eval_convergence_table_covers_both_phases(trained_run, dataset_path):
    out, manifest = trained_run
    run_eval(dataset_path, out)
    with open(os.path.join(out, "convergence.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "run_id,phase,iteration,mean_abs_error,converged_cum_pct"
    phases = {line.split(",")[1] for line in lines[1:]}
    assert phases == {"global", "local"}
    for line in lines[1:]:
        _, _, it, err, pct = line.split(",")
        assert 1 <= int(it) <= manifest.max_iter
        assert float(err) >= 0.0
        assert 0.0 <= float(pct) <= 100.0


def test_convergence_rows_of_pinned_traces():
    # the pinned oracle traces of test_engine (truth 20): the noiseless one
    # reaches a fixed point at global iteration 4 and local iteration 1; the
    # noisy one runs out of global iterations and settles at local iteration 2.
    # A scripted two-cycle (truth 30) per phase never converges.
    noiseless, _ = pinned_oracle_trace(0.0)
    noisy, _ = pinned_oracle_trace(0.2)
    cycles = {phase: run_phase(phase, scripted([0.2, -0.34]))[1]
              for phase in ("global", "local")}
    truth = np.array([20, 20, 30])
    assert _phase_iteration_table(truth, [noiseless, noisy, cycles["global"]], "global", 4) == [
        ("global", 1, (4 + 4 + 1) / 3, 0.0),
        ("global", 2, (1 + 2 + 0) / 3, 0.0),
        ("global", 3, 0.0, 0.0),
        ("global", 4, (0 + 1 + 0) / 3, 100.0 * 1 / 3),
    ]
    assert _phase_iteration_table(truth, [noiseless, noisy, cycles["local"]], "local", 4) == [
        ("local", 1, (0 + 0 + 1) / 3, 100.0 * 1 / 3),
        ("local", 2, 0.0, 100.0 * 2 / 3),
        ("local", 3, 0.0, 100.0 * 2 / 3),
        ("local", 4, 0.0, 100.0 * 2 / 3),
    ]
    # a phase that no trace ran has no rows
    assert _phase_iteration_table(truth[2:], [cycles["global"]], "local", 4) == []


def test_eval_scheme_override_with_prefix(trained_run, dataset_path):
    out, _ = trained_run
    values = run_eval(dataset_path, out, split="val", scheme="random",
                      scheme_seed=9, prefix="rnd_")
    assert os.path.exists(os.path.join(out, "rnd_metrics.csv"))
    with open(os.path.join(out, "rnd_metrics.csv")) as fh:
        assert fh.read().splitlines()[1].split(",")[1] == "val"
    assert values["mae"] >= 0.0
    # the override is per-call: the stored manifest still says "min"
    assert read_manifest(out).scheme == "min"


def test_eval_refuses_tampered_dataset(trained_run, dataset_path, tmp_path):
    out, _ = trained_run
    with open(dataset_path) as fh:
        text = fh.read()
    tampered = tmp_path / "tampered.csv"
    tampered.write_text(text + "# trailing\n")
    with pytest.raises(DigestMismatchError):
        run_eval(str(tampered), out)


def test_eval_without_a_run_directory(dataset_path, tmp_path):
    with pytest.raises(ConfigError, match="train first"):
        run_eval(dataset_path, str(tmp_path))


def test_zero_epoch_model_still_evaluates(dataset_path, tmp_path):
    manifest = small_manifest(file_digest(dataset_path), epochs=0)
    out = str(tmp_path)
    run_train(dataset_path, manifest, out)
    run_build_refdb(dataset_path, out)
    values = run_eval(dataset_path, out)
    assert np.isfinite(values["mae"])
    with open(os.path.join(out, "train_log.csv")) as fh:
        assert fh.read().strip().splitlines() == ["run_id,model_key,epoch,mean_loss"]


# -------------------------------------------------------------- simulate

def test_simulate_noiseless_oracle_is_exact(dataset_path, tmp_path):
    manifest = small_manifest(file_digest(dataset_path), tau=3.0)
    values = run_simulate(dataset_path, manifest, str(tmp_path))
    assert values["mae"] == 0.0
    assert values["converged_pct"] == 100.0


def test_simulate_writes_the_standard_outputs(dataset_path, tmp_path):
    manifest = small_manifest(file_digest(dataset_path), tau=3.0)
    run_simulate(dataset_path, manifest, str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    for expected in ("manifest.json", "metrics.csv", "metrics.txt",
                     "traces.jsonl", "convergence.csv"):
        assert expected in names


# ----------------------------------------------------------------- sweep

def test_sweep_one_row_per_cell(dataset_path, tmp_path):
    base = small_manifest(file_digest(dataset_path), epochs=1)
    path = run_sweep(dataset_path, str(tmp_path), base,
                     [("ari", 2.0), ("ari", 3.0)])
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("run_id,scale,tau,scheme,")
    assert os.path.isdir(tmp_path / "cell_ari_2")
    assert os.path.isdir(tmp_path / "cell_ari_3")
    # each row's run id belongs to that cell's own manifest
    for line, tau in zip(lines[1:], (2.0, 3.0)):
        cell = dataclasses.replace(base, scale_kind="ari", tau=tau)
        assert line.split(",")[0] == cell.run_id


def test_sweep_needs_cells(dataset_path, tmp_path):
    base = small_manifest(file_digest(dataset_path))
    with pytest.raises(ConfigError, match="at least one"):
        run_sweep(dataset_path, str(tmp_path), base, [])


# --------------------------------------------------------------- inspect

def test_inspect_summarises_a_finished_run(trained_run, dataset_path):
    out, manifest = trained_run
    run_eval(dataset_path, out)
    text = inspect_run(out)
    assert text.startswith(f"run_id {manifest.run_id}")
    assert "reference database: " in text
    assert "metrics.csv:" in text
    assert TAG_GLOBAL in text
    lines = text.splitlines()
    db = load_database(os.path.join(out, "refdb.npz"))
    for tag, table in db.tables.items():
        rows = [dict(zip(TABLE_COLUMNS, row)) for row in table.ints.tolist()]
        endpoints = len({(r["low_rank"], r["high_rank"]) for r in rows})
        cells = sum(r["n_pairs_scored"] * r["pool_size"] for r in rows)
        at = next(i for i, line in enumerate(lines) if line.startswith(f"  {tag}: "))
        assert lines[at + 2] == f"    endpoint pairs {endpoints} scored cells {cells}"
