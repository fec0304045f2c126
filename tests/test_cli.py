"""End-to-end command line runs, in process via main(argv).

Exit codes are the contract under test: 0 on success, 2 on anything a user
can fix (bad flags, missing files, stale digests).  One subprocess smoke
test proves the module entry point wires up outside pytest too.
"""

import os
import subprocess
import sys

import pytest

from rankwin.cli import main
from rankwin.data import load_dataset
from rankwin.experiments import read_manifest

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
    assert "split val" in capsys.readouterr().out


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


@pytest.mark.parametrize("argv", [
    ["train", "--dataset", "{data}", "--out-dir", "{tmp}/run", *FAST, "--lr", "nan"],
    ["gen", "--out", "{tmp}/d.csv", "--n", "10", "--noise-std", "nan"],
    ["gen", "--out", "{tmp}/d.csv", "--n", "10", "--domain", "5"],
    ["sweep", "--dataset", "{data}", "--out-dir", "{tmp}/sweep", *FAST, "--cells", "geo"],
], ids=["lr-nan", "noise-nan", "domain-no-colon", "cells-no-tau"])
def test_user_errors_exit_2_without_traceback(argv, dataset_path, tmp_path):
    argv = [a.format(data=dataset_path, tmp=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "rankwin.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(tmp_path / "d.csv")


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "rankwin.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout
