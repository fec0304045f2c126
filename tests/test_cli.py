"""End-to-end command line runs, in process via main(argv).

Exit codes are the contract under test: 0 on success, 2 on anything a user
can fix (bad flags, missing files, stale digests).  One subprocess smoke
test proves the module entry point wires up outside pytest too.
"""

import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rankwin.cli import main
from rankwin.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from rankwin.experiments import ExperimentManifest, file_digest, read_manifest

FAST = ["--scale", "ari", "--tau", "2", "--alpha", "3",
        "--epochs", "1", "--lr", "1e-3"]


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "tiny.csv")
    code = main(["gen", "--out", path, "--n", "240", "--domain", "1:15",
                 "--feature-dim", "6", "--seed", "5"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def run_dir(dataset_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    assert main(["train", "--dataset", dataset_path, "--out-dir", out] + FAST) == 0
    assert main(["build-refdb", "--dataset", dataset_path, "--out-dir", out]) == 0
    return out


def test_gen_writes_a_loadable_dataset(dataset_path):
    ds = load_dataset(dataset_path)
    assert len(ds) == 240
    assert (ds.rank_domain.lo, ds.rank_domain.hi) == (1, 15)


def test_eval_prints_a_report(run_dir, dataset_path, capsys):
    assert main(["eval", "--dataset", dataset_path, "--out-dir", run_dir]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["run_id"] == read_manifest(run_dir).run_id
    assert lines["split"] == "test"
    assert float(lines["mae"]) >= 0.0


def test_eval_scheme_override(run_dir, dataset_path, capsys):
    assert main(["eval", "--dataset", dataset_path, "--out-dir", run_dir,
                 "--split", "val", "--scheme", "random", "--scheme-seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "split val" in out
    # the printed run_id is the one the outputs carry, not the stored run's
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    with open(os.path.join(run_dir, "metrics.csv")) as fh:
        assert lines["run_id"] == fh.read().splitlines()[1].split(",")[0]
    assert lines["run_id"] != read_manifest(run_dir).run_id


def test_inspect_prints_run_summary(run_dir, capsys):
    assert main(["inspect", "--out-dir", run_dir]) == 0
    out = capsys.readouterr().out
    assert out.startswith("run_id ")
    assert "manifest:" in out


def test_manifest_reuse_reproduces_the_run_id(run_dir, dataset_path, tmp_path):
    manifest_copy = tmp_path / "manifest.json"
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest_copy.write_text(fh.read())
    out = str(tmp_path / "again")
    assert main(["train", "--dataset", dataset_path, "--out-dir", out,
                 "--manifest", str(manifest_copy)]) == 0
    assert read_manifest(out).run_id == read_manifest(run_dir).run_id


def test_train_without_manifest_flags_takes_the_manifest_defaults(dataset_path, tmp_path):
    out = str(tmp_path / "run")
    assert main(["train", "--dataset", dataset_path, "--out-dir", out, "--epochs", "1"]) == 0
    assert read_manifest(out) == ExperimentManifest(file_digest(dataset_path), 1, 15, epochs=1)


def test_simulate_noiseless_reports_zero_error(dataset_path, tmp_path, capsys):
    assert main(["simulate", "--dataset", dataset_path, "--out-dir", str(tmp_path),
                 "--scale", "ari", "--tau", "3", "--alpha", "3",
                 "--noise-std", "0"]) == 0
    assert "mae 0.000000" in capsys.readouterr().out


def test_sweep_prints_the_grid(dataset_path, tmp_path, capsys):
    assert main(["sweep", "--dataset", dataset_path, "--out-dir", str(tmp_path),
                 "--cells", "ari:2,ari:3"] + FAST) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("run_id,scale,tau,")
    assert os.path.exists(tmp_path / "sweep.csv")


def test_sweep_refuses_a_bad_cell_before_training_any(dataset_path, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", dataset_path, "--out-dir", str(out), *FAST,
                 "--cells", "geo:0.1,ari:2.5"]) == 2
    assert not list(tmp_path.glob("sweep/cell_*"))


def test_sweep_refuses_a_bad_training_field_before_any_cell(dataset_path, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--dataset", dataset_path, "--out-dir", str(out), *FAST,
                 "--lr", "0", "--cells", "ari:2"]) == 2
    assert not list(tmp_path.glob("sweep/cell_*"))


# ------------------------------------------------------------ error paths

def test_eval_before_train_exits_2(dataset_path, tmp_path):
    assert main(["eval", "--dataset", dataset_path, "--out-dir", str(tmp_path)]) == 2


def test_missing_dataset_exits_2(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "nope.csv"),
                 "--out-dir", str(tmp_path)] + FAST) == 2


def test_tampered_dataset_exits_2(run_dir, dataset_path, tmp_path):
    with open(dataset_path) as fh:
        text = fh.read()
    tampered = tmp_path / "tampered.csv"
    tampered.write_text(text + "# extra\n")
    assert main(["eval", "--dataset", str(tampered), "--out-dir", run_dir]) == 2


def test_inverted_domain_exits_2(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "d.csv"), "--n", "10",
                 "--domain", "80:1"]) == 2


def test_unknown_flag_is_an_argparse_error(dataset_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--dataset", dataset_path, "--out-dir", str(tmp_path),
              "--window-flavor", "wide"])
    assert exc.value.code == 2


def without_field(name):
    """An edit that drops manifest field ``name``."""
    return lambda old: json.dumps({k: v for k, v in json.loads(old).items() if k != name}).encode()


def with_field(name, value):
    """An edit that sets manifest field ``name`` to the JSON ``value``."""
    return lambda old: json.dumps({**json.loads(old), name: value}).encode()


def npz_edit(name, value=None):
    """An edit that drops npz entry ``name``, or replaces it with the array ``value``
    (or with ``value(old entry)`` when ``value`` is a function)."""
    def edit(old):
        with np.load(io.BytesIO(old)) as data:
            arrays = {k: data[k] for k in data.files if k != name}
            if value is not None:
                arrays[name] = value(data[name]) if callable(value) else value
        out = io.BytesIO()
        np.savez(out, **arrays)
        return out.getvalue()
    return edit


def meta_without(key):
    """A value for ``npz_edit("meta", ...)``: the old meta without ``key``."""
    def edit(old):
        meta = json.loads(bytes(old).decode())
        del meta[key]
        return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return edit


def meta_with(key, value):
    """A value for ``npz_edit("meta", ...)``: the old meta with ``key`` set to the JSON
    ``value``; a dotted ``key`` sets a key of a nested object."""
    def edit(old):
        meta = json.loads(bytes(old).decode())
        *outer, last = key.split(".")
        inner = meta
        for name in outer:
            inner = inner[name]
        inner[last] = value
        return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return edit


REUSE = ["train", "--dataset", "{data}", "--out-dir", "{tmp}/new",
         "--manifest", "{run}/manifest.json"]


# stored meta values of the wrong JSON type, by key
CHECKPOINT_META_TYPOS = [("encoder", "x"), ("seed", "x"), ("head", [1]),
                         ("encoder.hidden_dims", 5)]
REFDB_META_TYPOS = [("scale_kind", "foo"), ("digests", [1]), ("domain", 5), ("tau", "x"),
                    ("alpha", None)]


# "{run}" is a copy of the trained run directory; each edit rewrites one file
# of the copy (or writes a new file) from its old bytes
@pytest.mark.parametrize("argv, edits", [
    (["train", "--dataset", "{data}", "--out-dir", "{tmp}/new", *FAST, "--lr", "nan"], {}),
    (["gen", "--out", "{tmp}/d.csv", "--n", "10", "--noise-std", "nan"], {}),
    (["gen", "--out", "{tmp}/d.csv", "--n", "10", "--domain", "5"], {}),
    (["sweep", "--dataset", "{data}", "--out-dir", "{tmp}/sweep", *FAST, "--cells", "geo"], {}),
    (["train", "--dataset", "{data}", "--out-dir", "{data}", *FAST], {}),
    (["train", "--dataset", "{data}", "--out-dir", "{tmp}/new", "--manifest", "{run}/manifest.json"],
     {"manifest.json": without_field("encoder_hidden")}),
    (["train", "--dataset", "{data}", "--out-dir", "{tmp}/new", "--manifest", "{run}/manifest.json"],
     {"manifest.json": lambda b: b"not json"}),
    (["inspect", "--out-dir", "{run}"], {"manifest.json": lambda b: b[:-10]}),
    (["eval", "--dataset", "{data}", "--out-dir", "{run}"], {"refdb.npz": lambda b: b"not an npz"}),
    (["eval", "--dataset", "{data}", "--out-dir", "{run}"], {"global.npz": lambda b: b[:len(b) // 2]}),
    (["train", "--dataset", "{run}/latin1.csv", "--out-dir", "{tmp}/new", *FAST],
     {"latin1.csv": lambda b: "id,rank,f0\nb\u00e9,1,0.5\n".encode("latin-1")}),
    (REUSE, {"manifest.json": with_field("epochs", "3")}),
    (REUSE, {"manifest.json": with_field("tau", None)}),
    (REUSE, {"manifest.json": with_field("encoder_hidden", 5)}),
    (REUSE, {"manifest.json": with_field("epochs", 1.5)}),
    (REUSE, {"manifest.json": with_field("epochs", True)}),
    (REUSE, {"manifest.json": with_field("pool_cap", 0)}),
    (REUSE, {"manifest.json": with_field("pair_cap", 0)}),
    (["train", "--dataset", "{data}", "--out-dir", "{tmp}/new", *FAST, "--max-iter", "0"], {}),
    (["train", "--dataset", "{data}", "--out-dir", "{tmp}/new", *FAST, "--k", "0"], {}),
    (["train", "--dataset", "{data}", "--out-dir", "{tmp}/new", *FAST, "--scheme-seed", "-1"], {}),
    (["gen", "--out", "{tmp}/nodir/x.csv", "--n", "10"], {}),
    (["build-refdb", "--dataset", "{data}", "--out-dir", "{run}"],
     {"global.npz": npz_edit("meta")}),
    (["eval", "--dataset", "{data}", "--out-dir", "{run}"],
     {"global.npz": npz_edit("param_003")}),
    (["eval", "--dataset", "{data}", "--out-dir", "{run}"], {"refdb.npz": npz_edit("ranks")}),
    (["inspect", "--out-dir", "{run}"], {"refdb.npz": npz_edit("ranks")}),
    (["eval", "--dataset", "{data}", "--out-dir", "{run}"],
     {"global.npz": npz_edit("meta", np.frombuffer(b"{not json", dtype=np.uint8))}),
    (["eval", "--dataset", "{data}", "--out-dir", "{run}"],
     {"global.npz": npz_edit("meta", meta_without("encoder"))}),
    (["eval", "--dataset", "{data}", "--out-dir", "{run}"],
     {"refdb.npz": npz_edit("meta", meta_without("digests"))}),
    *[(["eval", "--dataset", "{data}", "--out-dir", "{run}"],
       {"global.npz": npz_edit("meta", meta_with(key, value))})
      for key, value in CHECKPOINT_META_TYPOS],
    *[(["eval", "--dataset", "{data}", "--out-dir", "{run}"],
       {"refdb.npz": npz_edit("meta", meta_with(key, value))})
      for key, value in REFDB_META_TYPOS],
    (["inspect", "--out-dir", "{run}"],
     {"refdb.npz": npz_edit("meta", meta_with("tabled_tags", 5))}),
    (["simulate", "--dataset", "{data}", "--out-dir", "{tmp}/new", *FAST,
      "--epochs", "-1", "--batch-size", "0", "--lr", "0"], {}),
], ids=["lr-nan", "noise-nan", "domain-no-colon", "cells-no-tau", "out-dir-is-a-file",
        "manifest-missing-field", "manifest-not-json", "inspect-corrupt-manifest",
        "refdb-not-npz", "checkpoint-truncated", "dataset-not-utf8",
        "manifest-int-as-string", "manifest-float-as-null", "manifest-tuple-as-int",
        "manifest-int-as-float", "manifest-int-as-bool", "manifest-pool-cap-0",
        "manifest-pair-cap-0", "max-iter-0", "k-0", "scheme-seed-negative",
        "gen-into-missing-dir", "checkpoint-without-meta", "checkpoint-without-param",
        "refdb-without-ranks", "inspect-refdb-without-ranks", "checkpoint-meta-not-json",
        "checkpoint-meta-missing-key", "refdb-meta-missing-key",
        *[f"checkpoint-meta-{key}-wrong-type" for key, _ in CHECKPOINT_META_TYPOS],
        *[f"refdb-meta-{key}-wrong-type" for key, _ in REFDB_META_TYPOS],
        "inspect-refdb-meta-tabled_tags-wrong-type", "simulate-training-fields-out-of-range"])
def test_user_errors_exit_2_without_traceback(argv, edits, run_dir, dataset_path, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    for name, edit in edits.items():
        old = (run / name).read_bytes() if (run / name).exists() else b""
        (run / name).write_bytes(edit(old))
    argv = [a.format(data=dataset_path, tmp=tmp_path, run=run) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "rankwin.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(tmp_path / "d.csv")
    assert not os.path.exists(tmp_path / "new" / "global.npz")  # refused before training


def test_gen_names_the_output_path_when_its_directory_is_missing(tmp_path, caplog):
    out = str(tmp_path / "nodir" / "x.csv")
    assert main(["gen", "--out", out, "--n", "10"]) == 2
    assert out in caplog.text
    assert ".tmp" not in caplog.text


def test_gen_without_flags_writes_the_spec_defaults(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "cli.csv")]) == 0
    save_dataset(generate_synthetic(SyntheticSpec()), str(tmp_path / "spec.csv"))
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "spec.csv").read_bytes()


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "rankwin.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout
