"""Dataset parsing, split assignment, and the synthetic generator."""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankwin.data import (SPLITS, Dataset, SyntheticSpec, assign_split,
                          generate_synthetic, load_dataset, save_dataset)
from rankwin.errors import ConfigError, DataError
from rankwin.windows import RankRange


def write(tmp_path, text, name="data.csv"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


GOOD = """id,rank,sigma,split,f0,f1
a,3,1.0,train,0.5,-1.5
b,4,2.0,val,1.25,0.0
c,9,0.5,test,-2.0,3.5
"""


def test_load_full_format(tmp_path):
    ds = load_dataset(write(tmp_path, GOOD))
    assert ds.ids == ("a", "b", "c")
    assert ds.feature_dim == 2
    assert ds.has_sigma
    assert list(ds.ranks) == [3, 4, 9]
    assert ds.rank_domain == RankRange(3, 9)
    assert ds.features[1, 0] == 1.25
    assert list(ds.splits) == ["train", "val", "test"]


def test_load_without_sigma_or_split(tmp_path):
    text = "id,rank,f0\nx,5,1.0\ny,6,2.0\n"
    ds = load_dataset(write(tmp_path, text), split_seed=3)
    assert not ds.has_sigma
    assert all(s in SPLITS for s in ds.splits)
    assert list(ds.splits) == [assign_split("x", 3), assign_split("y", 3)]


def test_save_load_round_trip(tmp_path):
    original = generate_synthetic(SyntheticSpec(n=50, seed=1))
    path = os.path.join(tmp_path, "ds.csv")
    save_dataset(original, path)
    loaded = load_dataset(path)
    assert loaded.ids == original.ids
    assert np.array_equal(loaded.ranks, original.ranks)
    assert np.array_equal(loaded.splits, original.splits)
    # repr-round-trip keeps float64 features and sigmas bit-exact
    assert np.array_equal(loaded.features, original.features)
    assert np.array_equal(loaded.sigmas, original.sigmas)


@pytest.mark.parametrize("text,fragment", [
    ("rank,id,f0\na,3,1\n", "header"),
    ("id,rank\na,3\n", "feature"),
    ("id,rank,f1,f0\na,3,1,2\n", "f0"),
    ("id,rank,f0\na,3,1\na,4,2\n", "row 2: duplicate"),
    ("id,rank,f0\na,3\n", "row 1: expected 3 columns"),
    ("id,rank,f0\na,x,1\n", "row 1: rank"),
    ("id,rank,f0\na,3.5,1\n", "row 1: rank"),
    ("id,rank,f0\na,3,oops\n", "row 1: non-numeric"),
    ("id,rank,f0\na,3,nan\n", "row 1: non-finite"),
    ("id,rank,f0,f1\na,3,1,2\nb,4,2,inf\n", "row 2: non-finite"),
    ("id,rank,f0\na,3,-inf\na,4,2\n", "row 1: non-finite"),  # before the duplicate id
    ("id,rank,sigma,f0\na,3,-1,1\n", "row 1: sigma"),
    ("id,rank,sigma,f0\na,3,nan,1\n", "row 1: sigma must be finite"),
    ("id,rank,sigma,f0\na,3,-inf,1\n", "row 1: sigma must be finite"),
    ("id,rank,sigma,f0\na,3,zz,1\n", "row 1: bad sigma"),
    ("id,rank,split,f0\na,3,dev,1\n", "row 1: unknown split"),
    ("id,rank,f0\n", "no data rows"),
    ("", "empty"),
])
def test_load_rejects_malformed_input(tmp_path, text, fragment):
    with pytest.raises(DataError, match=fragment):
        load_dataset(write(tmp_path, text))


def test_load_enforces_explicit_domain(tmp_path):
    path = write(tmp_path, "id,rank,f0\na,3,1\nb,90,2\n")
    with pytest.raises(DataError, match="row 2.*outside"):
        load_dataset(path, domain=RankRange(1, 80))
    ds = load_dataset(path, domain=RankRange(1, 100))
    assert ds.rank_domain == RankRange(1, 100)


def test_blank_lines_are_skipped(tmp_path):
    ds = load_dataset(write(tmp_path, "id,rank,f0\na,3,1\n\nb,4,2\n"))
    assert len(ds) == 2


def test_subset_filters_and_rejects_unknown(tmp_path):
    ds = load_dataset(write(tmp_path, GOOD))
    train = ds.subset("train")
    assert train.ids == ("a",)
    assert train.rank_domain == ds.rank_domain
    with pytest.raises(ConfigError):
        ds.subset("dev")


def test_rank_index_orders_by_id():
    ds = Dataset(ids=("b", "a", "c"),
                 features=np.zeros((3, 1)),
                 ranks=np.array([5, 5, 7]),
                 sigmas=None,
                 splits=np.array(["train"] * 3),
                 rank_domain=RankRange(5, 7))
    index = ds.rank_index()
    assert list(index[5]) == [1, 0]  # "a" before "b" despite row order
    assert list(index[7]) == [2]


@given(st.text(min_size=1, max_size=20), st.integers(0, 10))
def test_assign_split_is_deterministic(instance_id, seed):
    assert assign_split(instance_id, seed) == assign_split(instance_id, seed)
    assert assign_split(instance_id, seed) in SPLITS


def test_split_fractions_roughly_hold():
    n = 20000
    splits = [assign_split(f"{i:06d}", 0) for i in range(n)]
    frac_train = splits.count("train") / n
    frac_val = splits.count("val") / n
    assert abs(frac_train - 0.7) < 0.02
    assert abs(frac_val - 0.1) < 0.01


def test_synthetic_is_deterministic_and_shaped():
    a = generate_synthetic(SyntheticSpec(n=100, seed=5))
    b = generate_synthetic(SyntheticSpec(n=100, seed=5))
    assert a.ids == b.ids
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.ranks, b.ranks)
    assert a.features.shape == (100, 16)
    assert a.has_sigma
    assert np.all(a.ranks >= 1) and np.all(a.ranks <= 80)
    c = generate_synthetic(SyntheticSpec(n=100, seed=6))
    assert not np.array_equal(a.features, c.features)


def test_synthetic_equal_ranks_share_clean_features():
    ds = generate_synthetic(SyntheticSpec(n=300, noise_std=0.0, seed=2))
    index = ds.rank_index()
    rank, positions = next((r, p) for r, p in index.items() if len(p) > 1)
    base = ds.features[positions[0]]
    for pos in positions[1:]:
        assert np.allclose(ds.features[pos], base, atol=1e-12), rank


def test_synthetic_hetero_noise_grows_with_rank():
    spec = SyntheticSpec(n=6000, noise_std=0.5, hetero=True, seed=3)
    noisy = generate_synthetic(spec)
    clean = generate_synthetic(SyntheticSpec(n=6000, noise_std=0.0, seed=3))
    resid = np.linalg.norm(noisy.features - clean.features, axis=1)
    low = resid[noisy.ranks <= 20].mean()
    high = resid[noisy.ranks >= 60].mean()
    # noise scale rises from 0.5x to 2x across the domain
    assert high > 1.8 * low


def test_synthetic_sigma_grows_linearly():
    ds = generate_synthetic(SyntheticSpec(n=500, seed=4))
    t = (ds.ranks - 1) / 79
    assert np.allclose(ds.sigmas, 1.5 + t)


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(n=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(nonlinearity="cubic")
    with pytest.raises(ConfigError):
        SyntheticSpec(noise_std=-0.1)
    with pytest.raises(ConfigError):
        SyntheticSpec(noise_std=float("nan"))
