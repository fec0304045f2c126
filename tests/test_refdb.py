"""Reference database: gamma scoring, pair tables, kNN, persistence.

The exhaustive check rebuilds every table entry by scoring all pairs one at
a time through the scalar gamma oracle below, so the vectorized grid scoring
in the builder has an independent witness.
"""

import os

import numpy as np
import pytest

from rankwin.data import Dataset
from rankwin.errors import (ConfigError, DigestMismatchError, SelectionError,
                            ShapeError)
from rankwin.nets import EncoderSpec, HeadSpec, RelativeRegressor, model_digest
from rankwin.partition import RankGroup
from rankwin.refdb import (IDENTITY_DIGEST, TABLE_COLUMNS, TAG_GLOBAL, TAG_RAW,
                           SelectionKind, SelectionScheme, build_database,
                           knn_ranks, load_database, local_tag, save_database,
                           select_references)
from rankwin.windows import (RankRange, RankScale, SearchWindow, make_window,
                             relative_rank)

ARI2 = RankScale.arithmetic(2)


def gamma_error(model, encoded, ranks, y1, y2, pool, *, alpha, scale):
    """Mean |predicted - true| relative rank of one pair over its local pool.

    Scalar oracle for the builder's grid scoring: the pool is filtered to
    ranks within alpha of the pair's span, the references never score
    themselves, and an empty pool raises SelectionError.
    """
    r1, r2 = int(ranks[y1]), int(ranks[y2])
    if r1 >= r2:
        raise SelectionError(f"pair ranks must satisfy low < high, got ({r1}, {r2})")
    pool = [int(p) for p in pool
            if r1 - alpha <= ranks[p] <= r2 + alpha and p not in (y1, y2)]
    if not pool:
        raise SelectionError(f"empty validation pool for pair ranks ({r1}, {r2})")
    errors = [abs(float(np.atleast_1d(model.regress(encoded[[p]], encoded[[y1]],
                                                      encoded[[y2]]))[0])
                  - relative_rank(int(ranks[p]), r1, r2, scale)) for p in pool]
    return float(np.mean(errors))


def table_entries(table):
    """``{center: row}`` with each row a dict of TABLE_COLUMNS plus both gammas."""
    entries = {}
    for ints, (gmin, gmax) in zip(table.ints.tolist(), table.gammas.tolist()):
        entry = dict(zip(TABLE_COLUMNS, ints), min_gamma=gmin, max_gamma=gmax)
        entry["min_pair"] = (entry["min_i"], entry["min_j"])
        entry["max_pair"] = (entry["max_i"], entry["max_j"])
        entries[entry["center"]] = entry
    return entries


class ConstEstimator:
    """Always predicts the same relative rank; gamma is then closed-form."""

    def __init__(self, value):
        self.value = value

    def regress(self, x, y1, y2):
        return np.full(len(x), self.value)


class PerfectEstimator:
    """Reads the true rank out of feature column 0 (arithmetic scale)."""

    def regress(self, x, y1, y2):
        mid = (y1[:, 0] + y2[:, 0]) / 2.0
        half = (y2[:, 0] - y1[:, 0]) / 2.0
        return np.clip((x[:, 0] - mid) / half, -1.0, 1.0)


def rank_dataset(ranks, feature_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    ranks = np.asarray(ranks, dtype=np.int64)
    features = rng.normal(size=(len(ranks), feature_dim))
    features[:, 0] = ranks.astype(float)
    return Dataset(ids=tuple(f"i{i:03d}" for i in range(len(ranks))),
                   features=features,
                   ranks=ranks,
                   sigmas=None,
                   splits=np.array(["train"] * len(ranks)),
                   rank_domain=RankRange(int(ranks.min()), int(ranks.max())))


def real_model(dim=4, seed=1):
    return RelativeRegressor(EncoderSpec(dim, (8,), 4), HeadSpec((8, 4, 1)), seed=seed)


def test_gamma_of_constant_estimator_is_mean_abs_true_rho():
    ds = rank_dataset([10, 11, 12, 13, 14])
    encoded = ds.features
    # pair spans (10, 14); pool ranks 11/12/13 have true rho -0.5/0/0.5
    gamma = gamma_error(ConstEstimator(0.0), encoded, ds.ranks, 0, 4,
                        np.arange(5), alpha=0, scale=ARI2)
    assert gamma == pytest.approx(1 / 3, abs=1e-15)
    gamma_half = gamma_error(ConstEstimator(0.5), encoded, ds.ranks, 0, 4,
                             np.arange(5), alpha=0, scale=ARI2)
    assert gamma_half == pytest.approx(np.mean([1.0, 0.5, 0.0]), abs=1e-15)


def test_gamma_of_perfect_estimator_is_zero():
    ds = rank_dataset(list(range(5, 16)))
    gamma = gamma_error(PerfectEstimator(), ds.features, ds.ranks, 0, 10,
                        np.arange(len(ds)), alpha=3, scale=ARI2)
    assert gamma == 0.0


def test_gamma_excludes_references_and_validates():
    ds = rank_dataset([10, 12, 14])
    # the references themselves never score
    gamma = gamma_error(ConstEstimator(0.0), ds.features, ds.ranks, 0, 2,
                        np.arange(3), alpha=0, scale=ARI2)
    assert gamma == 0.0  # only rank 12 remains, true rho 0
    with pytest.raises(SelectionError, match="low < high"):
        gamma_error(ConstEstimator(0.0), ds.features, ds.ranks, 2, 0,
                    np.arange(3), alpha=0, scale=ARI2)
    with pytest.raises(SelectionError, match="empty"):
        gamma_error(ConstEstimator(0.0), ds.features, ds.ranks, 0, 1,
                    np.array([0, 1]), alpha=0, scale=ARI2)


@pytest.fixture(scope="module")
def small_db():
    ds = rank_dataset(list(range(1, 13)) * 2, seed=5)
    model = real_model(seed=3)
    db = build_database(ds, {TAG_GLOBAL: model}, ARI2, ds.rank_domain,
                        alpha=3, pool_cap=None, pair_cap=None, seed=0)
    return ds, model, db


def test_every_entry_matches_exhaustive_pair_scoring(small_db):
    ds, model, db = small_db
    encoded = db.features[TAG_GLOBAL]
    everyone = np.arange(len(ds))
    table = db.tables[TAG_GLOBAL]
    assert list(table.ints[:, 0]) == sorted(table.rows)
    for center, entry in table_entries(table).items():
        window = make_window(center, ARI2, ds.rank_domain)
        assert (entry["low"], entry["high"]) == (window.low, window.high)
        lows = db.instances_at(entry["low_rank"])
        highs = db.instances_at(entry["high_rank"])
        scores = {(int(i), int(j)): gamma_error(model, encoded, db.ranks,
                                                int(i), int(j), everyone,
                                                alpha=3, scale=ARI2)
                  for i in lows for j in highs}
        assert entry["n_pairs_scored"] == len(scores)
        best = min(scores.values())
        worst = max(scores.values())
        assert entry["min_gamma"] == pytest.approx(best, rel=1e-9, abs=1e-12)
        assert entry["max_gamma"] == pytest.approx(worst, rel=1e-9, abs=1e-12)
        assert scores[entry["min_pair"]] == pytest.approx(best, rel=1e-9, abs=1e-12)
        assert scores[entry["max_pair"]] == pytest.approx(worst, rel=1e-9, abs=1e-12)
        assert entry["min_gamma"] <= entry["max_gamma"]


def test_gammas_stay_in_absolute_error_range(small_db):
    _, _, db = small_db
    gammas = db.tables[TAG_GLOBAL].gammas
    assert np.all((0.0 <= gammas[:, 0]) & (gammas[:, 0] <= gammas[:, 1]) & (gammas[:, 1] <= 2.0))


def test_endpoint_fallback_to_nearest_populated():
    # center 7 wants (5, 9); rank 9 is missing and 6/12 tie at distance 3,
    # the high endpoint resolves upward
    ds = rank_dataset([5, 5, 6, 6, 12, 12])
    db = build_database(ds, {TAG_GLOBAL: real_model()}, ARI2,
                        RankRange(5, 12), alpha=6, seed=0)
    entry = table_entries(db.tables[TAG_GLOBAL])[7]
    assert (entry["low"], entry["high"]) == (5, 9)
    assert (entry["low_rank"], entry["high_rank"]) == (5, 12)


def test_single_rank_dataset_has_no_usable_windows():
    ds = rank_dataset([7] * 6)
    with pytest.raises(ConfigError, match="sparse"):
        build_database(ds, {TAG_GLOBAL: real_model()}, ARI2, RankRange(1, 10))


def test_raw_tag_stores_identity_features():
    ds = rank_dataset(list(range(1, 8)) * 2)
    db = build_database(ds, {TAG_RAW: None}, ARI2, ds.rank_domain)
    assert np.array_equal(db.features[TAG_RAW], ds.features)
    assert db.digests[TAG_RAW] == IDENTITY_DIGEST
    assert TAG_RAW not in db.tables


def test_local_tags_table_their_group_only():
    ds = rank_dataset(list(range(1, 25)) * 2)
    groups = [RankGroup(0, 1, 10, 1, 14), RankGroup(1, 11, 24, 7, 24)]
    db = build_database(ds, {local_tag(0): real_model(seed=4)}, ARI2,
                        ds.rank_domain, groups=groups)
    table = db.tables[local_tag(0)]
    assert list(table.ints[:, 0]) == list(range(1, 11))
    for entry in table_entries(table).values():
        assert 1 <= entry["low"] < entry["high"] <= 14  # clipped to the extension


def test_local_tag_without_groups_raises():
    ds = rank_dataset(list(range(1, 8)) * 2)
    with pytest.raises(ConfigError, match="group"):
        build_database(ds, {local_tag(0): real_model()}, ARI2, ds.rank_domain)


def test_build_rejects_wrong_feature_width():
    ds = rank_dataset(list(range(1, 8)) * 2, feature_dim=5)
    with pytest.raises(ShapeError):
        build_database(ds, {TAG_GLOBAL: real_model(dim=4)}, ARI2, ds.rank_domain)


def test_selection_schemes(small_db):
    ds, _, db = small_db
    window = make_window(6, ARI2, ds.rank_domain)
    entry = table_entries(db.tables[TAG_GLOBAL])[6]
    assert select_references(db, window, SelectionScheme(SelectionKind.MIN_ERROR)) \
        == entry["min_pair"]
    assert select_references(db, window, SelectionScheme(SelectionKind.MAX_ERROR)) \
        == entry["max_pair"]
    r1 = select_references(db, window, SelectionScheme(SelectionKind.RANDOM, seed=9))
    r2 = select_references(db, window, SelectionScheme(SelectionKind.RANDOM, seed=9))
    assert r1 == r2
    assert int(db.ranks[r1[0]]) == entry["low_rank"]
    assert int(db.ranks[r1[1]]) == entry["high_rank"]
    draws = {select_references(db, make_window(c, ARI2, ds.rank_domain),
                               SelectionScheme(SelectionKind.RANDOM, seed=0))
             for c in range(3, 11)}
    assert len(draws) > 1  # seeded, but not the same pair everywhere


def test_selection_validates_window_and_tag(small_db):
    ds, _, db = small_db
    scheme = SelectionScheme(SelectionKind.MIN_ERROR)
    with pytest.raises(ConfigError, match="tag"):
        select_references(db, make_window(6, ARI2, ds.rank_domain), scheme, tag="nope")
    with pytest.raises(SelectionError, match="center 99"):
        select_references(db, SearchWindow(97, 101, 99), scheme)
    with pytest.raises(ConfigError, match="mismatch"):
        select_references(db, SearchWindow(3, 9, 6), scheme)


def test_knn_matches_brute_force(small_db):
    ds, _, db = small_db
    encoded = db.features[TAG_GLOBAL]
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = rng.normal(size=encoded.shape[1])
        got = knn_ranks(db, q, k=5)
        d2 = ((encoded - q) ** 2).sum(axis=1)
        expect = db.ranks[np.argsort(d2, kind="stable")[:5]]
        assert sorted(got) == sorted(expect)


def test_knn_breaks_ties_by_id():
    ds = Dataset(ids=("z", "a", "m"),
                 features=np.array([[1.0, 0.0], [1.0, 0.0], [9.0, 9.0]]),
                 ranks=np.array([3, 7, 5]),
                 sigmas=None,
                 splits=np.array(["train"] * 3),
                 rank_domain=RankRange(3, 7))
    db = build_database(ds, {TAG_RAW: None}, ARI2, ds.rank_domain)
    got = knn_ranks(db, np.array([1.0, 0.0]), k=2, tag=TAG_RAW)
    assert list(got) == [7, 3]  # id "a" sorts before "z" at equal distance


def test_knn_equals_full_id_ordered_sort_for_every_k():
    """Ties straddle the k-th distance for many k: the result is still the
    first k of a full (distance, id) sort."""
    rng = np.random.default_rng(5)
    n = 60
    ids = tuple(f"i{v:03d}" for v in rng.permutation(n))
    ds = Dataset(ids=ids, features=rng.integers(0, 3, size=(n, 2)).astype(np.float64),
                 ranks=rng.integers(1, 11, size=n), sigmas=None,
                 splits=np.array(["train"] * n), rank_domain=RankRange(1, 10))
    db = build_database(ds, {TAG_RAW: None}, ARI2, ds.rank_domain)
    for q in (np.array([1.0, 1.0]), np.array([0.0, 2.0]), np.array([0.5, 0.0])):
        d2 = ((ds.features - q) ** 2).sum(axis=1)
        full = sorted(range(n), key=lambda i: (d2[i], ids[i]))
        for k in range(1, n + 1):
            got = knn_ranks(db, q, k=k, tag=TAG_RAW)
            assert got.tolist() == [int(ds.ranks[i]) for i in full[:k]]


def test_knn_validates_inputs(small_db):
    ds, _, db = small_db
    with pytest.raises(ConfigError):
        knn_ranks(db, np.zeros(4), k=0)
    with pytest.raises(ConfigError):
        knn_ranks(db, np.zeros(4), k=len(ds) + 1)
    with pytest.raises(ShapeError):
        knn_ranks(db, np.zeros(3), k=1)
    with pytest.raises(ConfigError):
        knn_ranks(db, np.zeros(4), k=1, tag="missing")


def test_capped_builds_are_deterministic():
    ds = rank_dataset(list(range(1, 13)) * 6, seed=2)
    kwargs = dict(alpha=3, pool_cap=10, pair_cap=5, seed=1)
    a = build_database(ds, {TAG_GLOBAL: real_model(seed=6)}, ARI2, ds.rank_domain, **kwargs)
    b = build_database(ds, {TAG_GLOBAL: real_model(seed=6)}, ARI2, ds.rank_domain, **kwargs)
    ta, tb = a.tables[TAG_GLOBAL], b.tables[TAG_GLOBAL]
    assert np.array_equal(ta.ints, tb.ints)
    assert np.array_equal(ta.gammas, tb.gammas)
    assert np.all(ta.ints[:, TABLE_COLUMNS.index("n_pairs_scored")] <= 5)
    assert np.all(ta.ints[:, TABLE_COLUMNS.index("pool_size")] <= 10)


def test_instances_at_and_populated_ranks(small_db):
    ds, _, db = small_db
    assert list(db.populated_ranks()) == list(range(1, 13))
    assert len(db.instances_at(5)) == 2
    with pytest.raises(SelectionError):
        db.instances_at(99)


def test_save_load_round_trip(tmp_path, small_db):
    ds, model, db = small_db
    path = os.path.join(tmp_path, "refdb.npz")
    save_database(db, path)
    loaded = load_database(path, {TAG_GLOBAL: model_digest(model)})
    assert loaded.ids == db.ids
    assert np.array_equal(loaded.ranks, db.ranks)
    assert loaded.scale == db.scale
    assert loaded.domain == db.domain
    assert loaded.alpha == db.alpha
    assert loaded.digests == db.digests
    assert np.array_equal(loaded.features[TAG_GLOBAL], db.features[TAG_GLOBAL])
    loaded_table, table = loaded.tables[TAG_GLOBAL], db.tables[TAG_GLOBAL]
    assert loaded_table.ints.dtype == np.int64 and loaded_table.ints.shape[1] == 11
    assert np.array_equal(loaded_table.ints, table.ints)
    assert np.array_equal(loaded_table.gammas, table.gammas)
    assert loaded_table.rows == table.rows


def test_load_rejects_stale_digest(tmp_path, small_db):
    _, _, db = small_db
    path = os.path.join(tmp_path, "refdb.npz")
    save_database(db, path)
    with pytest.raises(DigestMismatchError, match="global"):
        load_database(path, {TAG_GLOBAL: "0" * 64})
    with pytest.raises(DigestMismatchError):
        load_database(path, {"absent": IDENTITY_DIGEST})
