"""Reference database: cached embeddings, pair-error tables, and exact kNN.

Built offline once per trained model set.  For every window center the
builder resolves the window's endpoint ranks to populated ranks, scores
candidate reference pairs by their mean absolute relative-rank error over a
pool of nearby training instances, and stores the best and worst pairs so
inference is a table lookup.  Embeddings are cached per model and the file
records each model's parameter digest, so a stale database refuses to load.
"""

from __future__ import annotations

import enum
import logging
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from rankwin.data import Dataset, group_by_rank
from rankwin.errors import (ConfigError, DigestMismatchError, SelectionError,
                            ShapeError)
from rankwin.fileio import atomic_open, decoding_meta, pack_meta, read_npz, unpack_meta
from rankwin.nets import RelativeRegressor, model_digest
from rankwin.partition import RankGroup
from rankwin.windows import (RankRange, RankScale, ScaleKind, SearchWindow,
                             make_window, relative_rank_array)

__all__ = [
    "SelectionKind",
    "SelectionScheme",
    "PairTable",
    "TABLE_COLUMNS",
    "ReferenceDatabase",
    "build_database",
    "select_references",
    "knn_ranks",
    "save_database",
    "load_database",
    "IDENTITY_DIGEST",
    "TAG_GLOBAL",
    "TAG_RAW",
    "local_tag",
]

DB_VERSION = 1
TAG_GLOBAL = "global"
TAG_RAW = "raw"
IDENTITY_DIGEST = "identity"

_STREAM_POOL = 11
_STREAM_PAIRS = 12

log = logging.getLogger(__name__)


def local_tag(group_index: int) -> str:
    return f"local{group_index}"


def _tag_key(tag: str) -> int:
    # stable non-negative int for rng seeding
    return zlib.crc32(tag.encode())


class SelectionKind(enum.Enum):
    MIN_ERROR = "min"
    MAX_ERROR = "max"
    RANDOM = "random"


@dataclass(frozen=True)
class SelectionScheme:
    """How inference picks a reference pair for a window."""

    kind: SelectionKind
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"scheme seed must be >= 0, got {self.seed}")


TABLE_COLUMNS = ("center", "low", "high", "low_rank", "high_rank",
                 "min_i", "min_j", "max_i", "max_j", "n_pairs_scored", "pool_size")


@dataclass(eq=False)
class PairTable:
    """Precomputed pair choices for one model, one row per window center.

    ``ints`` is (n, 11) int64 in :data:`TABLE_COLUMNS` order and ``gammas``
    is (n, 2) float64 holding the min and max pair error; rows are sorted by
    center.  ``rows`` maps a center to its ints row as Python ints, so a
    lookup does no numpy work.
    """

    ints: np.ndarray
    gammas: np.ndarray
    rows: dict[int, list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rows = {row[0]: row for row in self.ints.tolist()}

    def __len__(self) -> int:
        return len(self.ints)

    @property
    def scored_cells(self) -> int:
        """(pair, pool instance) cells scored over every window."""
        pairs = self.ints[:, TABLE_COLUMNS.index("n_pairs_scored")]
        return int(pairs @ self.ints[:, TABLE_COLUMNS.index("pool_size")])


@dataclass
class ReferenceDatabase:
    """Training instances plus per-model embeddings and window tables."""

    ids: tuple[str, ...]
    ranks: np.ndarray
    scale: RankScale
    domain: RankRange
    alpha: int
    features: dict[str, np.ndarray]
    digests: dict[str, str]
    tables: dict[str, PairTable]
    pool_cap: int | None
    pair_cap: int | None
    seed: int

    def __post_init__(self) -> None:
        # positions sorted by id give deterministic tie-breaks everywhere
        order = np.lexsort((np.array(self.ids),))
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.arange(len(order))
        self._id_rank_order = inverse
        self._rank_index = group_by_rank(self.ids, self.ranks)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(self.features)

    def instances_at(self, rank: int) -> np.ndarray:
        """Positions with the given rank, ordered by instance id."""
        positions = self._rank_index.get(int(rank))
        if positions is None:
            raise SelectionError(f"no instances at rank {rank}")
        return positions

    def populated_ranks(self) -> np.ndarray:
        return np.array(sorted(self._rank_index), dtype=np.int64)


def _nearest_populated(populated: np.ndarray, value: int, prefer_lower: bool) -> int:
    """The populated rank nearest ``value``; a tie goes to the lower one if ``prefer_lower``."""
    i = int(np.searchsorted(populated, value))
    neighbours = populated[max(i - 1, 0):i + 1].tolist()
    return min(neighbours, key=lambda c: (abs(c - value), c if prefer_lower else -c))


def _resolve_endpoints(window: SearchWindow, populated: np.ndarray) -> tuple[int, int] | None:
    """Populated ranks closest to the window's ends, kept strictly ordered."""
    low = _nearest_populated(populated, window.low, prefer_lower=True)
    high = _nearest_populated(populated, window.high, prefer_lower=False)
    if low < high:
        return low, high
    below = populated[populated < high]
    if len(below):
        return int(below.max()), high
    above = populated[populated > low]
    if len(above):
        return low, int(above.min())
    return None


def _score_window(model: RelativeRegressor, encoded: np.ndarray, db: ReferenceDatabase,
                  populated: np.ndarray, window: SearchWindow,
                  tag_key: int) -> tuple[list[int], list[float]] | None:
    """One table row (ints, gammas) for a window, or None if no pair scores."""
    resolved = _resolve_endpoints(window, populated)
    if resolved is None:
        return None
    low_rank, high_rank = resolved
    lows = db.instances_at(low_rank)
    highs = db.instances_at(high_rank)
    pool = np.nonzero((db.ranks >= low_rank - db.alpha) & (db.ranks <= high_rank + db.alpha))[0]
    if db.pool_cap is not None and len(pool) > db.pool_cap:
        rng = np.random.default_rng([db.seed, _STREAM_POOL, tag_key, window.center])
        pool = np.sort(rng.choice(pool, size=db.pool_cap, replace=False))
    total_pairs = len(lows) * len(highs)
    if db.pair_cap is not None and total_pairs > db.pair_cap:
        rng = np.random.default_rng([db.seed, _STREAM_PAIRS, tag_key, window.center])
        flat = np.sort(rng.choice(total_pairs, size=db.pair_cap, replace=False))
    else:
        flat = np.arange(total_pairs)
    yi = lows[flat // len(highs)]
    yj = highs[flat % len(highs)]
    rho_hat = model.regress_grid(encoded[pool], encoded[yi], encoded[yj])
    rho_true = relative_rank_array(db.ranks[pool], low_rank, high_rank, db.scale)
    err = np.abs(rho_hat - rho_true[None, :])
    include = (pool[None, :] != yi[:, None]) & (pool[None, :] != yj[:, None])
    counts = include.sum(axis=1)
    with np.errstate(invalid="ignore"):
        gammas = np.where(counts > 0, (err * include).sum(axis=1) / np.maximum(counts, 1), np.nan)
    if np.all(np.isnan(gammas)):
        return None
    best = int(np.nanargmin(gammas))
    worst = int(np.nanargmax(gammas))
    ints = [window.center, window.low, window.high, low_rank, high_rank,
            int(yi[best]), int(yj[best]), int(yi[worst]), int(yj[worst]),
            len(flat), len(pool)]
    return ints, [float(gammas[best]), float(gammas[worst])]


def build_database(dataset: Dataset, models: dict[str, RelativeRegressor | None],
                   scale: RankScale, domain: RankRange, *,
                   groups: list[RankGroup] | None = None, alpha: int = 6,
                   pool_cap: int | None = 256, pair_cap: int | None = 64,
                   seed: int = 0) -> ReferenceDatabase:
    """Embed the dataset under every model and precompute its window tables.

    ``models`` maps tag to model; a None model stores raw features under the
    tag with no table (kNN only).  Local tags ``local{i}`` take their window
    geometry from ``groups[i]``.
    """
    if len(dataset) == 0:
        raise ConfigError("cannot build a reference database from an empty dataset")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    features: dict[str, np.ndarray] = {}
    digests: dict[str, str] = {}
    tables: dict[str, PairTable] = {}
    db = ReferenceDatabase(
        ids=tuple(dataset.ids), ranks=dataset.ranks.copy(), scale=scale,
        domain=domain, alpha=alpha, features=features, digests=digests,
        tables=tables, pool_cap=pool_cap, pair_cap=pair_cap, seed=seed)
    populated = db.populated_ranks()
    local_groups = {local_tag(i): group for i, group in enumerate(groups or ())}
    for tag, model in models.items():
        if model is None:
            features[tag] = dataset.features.copy()
            digests[tag] = IDENTITY_DIGEST
            continue
        if model.input_dim != dataset.feature_dim:
            raise ShapeError(
                f"model {tag!r} expects {model.input_dim} features, dataset has {dataset.feature_dim}")
        started = time.perf_counter()
        encoded = model.encode(dataset.features)
        features[tag] = encoded
        digests[tag] = model_digest(model)
        if tag.startswith("local"):
            group = local_groups.get(tag)
            if group is None:
                raise ConfigError(
                    f"tag {tag!r} names none of the {len(local_groups)} rank groups given")
            centers = range(group.theta_min, group.theta_max + 1)
            window_domain = group.extended_range
        else:
            centers = iter(domain)
            window_domain = domain
        tag_key = _tag_key(tag)
        scored = (_score_window(model, encoded, db, populated,
                                make_window(center, scale, window_domain), tag_key)
                  for center in centers)
        rows = [row for row in scored if row is not None]
        if not rows:
            raise ConfigError(f"no usable windows for model {tag!r}; dataset too sparse")
        ints, gammas = zip(*rows)
        table = PairTable(np.array(ints, dtype=np.int64), np.array(gammas, dtype=np.float64))
        tables[tag] = table
        log.info("refdb %s: %d windows, %d scored cells, %.2f s", tag, len(table),
                 table.scored_cells, time.perf_counter() - started)
    return db


def select_references(db: ReferenceDatabase, window: SearchWindow,
                      scheme: SelectionScheme, tag: str = TAG_GLOBAL) -> tuple[int, int]:
    """Pick the reference pair for a window; returns positions into the db."""
    if tag not in db.tables:
        raise ConfigError(f"database has no window table for tag {tag!r}")
    row = db.tables[tag].rows.get(window.center)
    if row is None:
        raise SelectionError(f"no usable reference pair for window center {window.center}")
    _, low, high, low_rank, high_rank, min_i, min_j, max_i, max_j, _, _ = row
    if (low, high) != (window.low, window.high):
        raise ConfigError(
            f"window mismatch at center {window.center}: database was built for "
            f"[{low}, {high}], got [{window.low}, {window.high}]")
    if scheme.kind is SelectionKind.MIN_ERROR:
        return min_i, min_j
    if scheme.kind is SelectionKind.MAX_ERROR:
        return max_i, max_j
    rng = np.random.default_rng([scheme.seed, _tag_key(tag), window.center])
    lows = db.instances_at(low_rank)
    highs = db.instances_at(high_rank)
    return int(lows[rng.integers(len(lows))]), int(highs[rng.integers(len(highs))])


def knn_ranks(db: ReferenceDatabase, feature: np.ndarray, k: int,
              tag: str = TAG_GLOBAL) -> np.ndarray:
    """Ranks of the k nearest stored instances (exact, id-ordered ties)."""
    if tag not in db.features:
        raise ConfigError(f"database has no features for tag {tag!r}")
    feats = db.features[tag]
    if k < 1 or k > len(feats):
        raise ConfigError(f"k must be in [1, {len(feats)}], got {k}")
    q = np.asarray(feature, dtype=np.float64)
    if q.shape != (feats.shape[1],):
        raise ShapeError(f"query must have shape ({feats.shape[1]},), got {q.shape}")
    d2 = ((feats - q) ** 2).sum(axis=1)
    # only rows not beyond the k-th smallest distance can be among the k nearest
    near = np.flatnonzero(~(d2 > np.partition(d2, k - 1)[k - 1]))
    order = near[np.lexsort((db._id_rank_order[near], d2[near]))]
    return db.ranks[order[:k]]


def _meta_dict(db: ReferenceDatabase) -> dict:
    return {
        "format_version": DB_VERSION,
        "scale_kind": db.scale.kind.value,
        "tau": db.scale.tau,
        "domain": [db.domain.lo, db.domain.hi],
        "alpha": db.alpha,
        "pool_cap": db.pool_cap,
        "pair_cap": db.pair_cap,
        "seed": db.seed,
        "tags": list(db.features),
        "digests": db.digests,
        "tabled_tags": list(db.tables),
    }


def save_database(db: ReferenceDatabase, path: str, run_id: str | None = None) -> None:
    """Single-file npz snapshot, written atomically.

    ``run_id`` stamps the file with the manifest that produced it.
    """
    arrays: dict[str, np.ndarray] = {
        "meta": pack_meta(_meta_dict(db), run_id),
        "ids": np.array(db.ids),
        "ranks": db.ranks,
    }
    for tag, feats in db.features.items():
        arrays[f"feat__{tag}"] = feats
    for tag, table in db.tables.items():
        arrays[f"tab__{tag}__ints"] = table.ints
        arrays[f"tab__{tag}__gammas"] = table.gammas
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_database(path: str, expected_digests: dict[str, str] | None = None,
                  run_id: str | None = None) -> ReferenceDatabase:
    """Load a snapshot, refusing if stored model digests do not match.

    With ``run_id`` the file must carry that run stamp too.
    """
    data = read_npz(path)
    meta = unpack_meta(data, path, DB_VERSION, run_id)
    with decoding_meta(path):
        digests = dict(meta["digests"])
        if expected_digests:
            for tag, expected in expected_digests.items():
                stored = digests.get(tag)
                if stored != expected:
                    raise DigestMismatchError(f"database entry {tag!r} was built for "
                                              f"digest {stored}, expected {expected}")
        kind = ScaleKind(meta["scale_kind"])
        features = {tag: data[f"feat__{tag}"] for tag in meta["tags"]}
        tables = {tag: PairTable(data[f"tab__{tag}__ints"], data[f"tab__{tag}__gammas"])
                  for tag in meta["tabled_tags"]}
        return ReferenceDatabase(
            ids=tuple(str(s) for s in data["ids"]),
            ranks=np.asarray(data["ranks"], dtype=np.int64),
            scale=RankScale(kind, float(meta["tau"])),
            domain=RankRange(int(meta["domain"][0]), int(meta["domain"][1])),
            alpha=int(meta["alpha"]),
            features=features,
            digests=digests,
            tables=tables,
            pool_cap=meta["pool_cap"],
            pair_cap=meta["pair_cap"],
            seed=int(meta["seed"]),
        )
