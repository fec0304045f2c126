"""Datasets: delimited-text I/O and synthetic ordinal benchmarks.

File format: a header row, then one row per instance.  Columns are ``id``,
``rank``, optional ``sigma`` (per-instance label standard deviation),
optional ``split`` (train/val/test), then ``f0..f{d-1}`` features, in that
order.  When the split column is absent, splits are assigned by hashing the
id with a seed so membership is stable under row reordering.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from rankwin.errors import ConfigError, DataError
from rankwin.fileio import atomic_open
from rankwin.windows import RankRange

__all__ = [
    "SPLITS",
    "Dataset",
    "SyntheticSpec",
    "assign_split",
    "group_by_rank",
    "load_dataset",
    "save_dataset",
    "generate_synthetic",
]

SPLITS = ("train", "val", "test")
# train/val fractions; the rest is test
SPLIT_FRACTIONS = (0.7, 0.1)
NONLINEARITIES = ("linear", "log", "smoothstep")


@dataclass
class Dataset:
    """Columnar feature-vector dataset with integer rank labels."""

    ids: tuple[str, ...]
    features: np.ndarray
    ranks: np.ndarray
    sigmas: np.ndarray | None
    splits: np.ndarray
    rank_domain: RankRange

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def has_sigma(self) -> bool:
        return self.sigmas is not None

    def subset(self, split: str) -> "Dataset":
        if split not in SPLITS:
            raise ConfigError(f"unknown split {split!r}")
        mask = self.splits == split
        return Dataset(
            ids=tuple(np.array(self.ids)[mask]),
            features=self.features[mask].copy(),
            ranks=self.ranks[mask].copy(),
            sigmas=self.sigmas[mask].copy() if self.sigmas is not None else None,
            splits=self.splits[mask].copy(),
            rank_domain=self.rank_domain,
        )

    def rank_index(self) -> dict[int, np.ndarray]:
        """Positions of instances at each populated rank, in id order."""
        return group_by_rank(self.ids, self.ranks)


def group_by_rank(ids, ranks: np.ndarray) -> dict[int, np.ndarray]:
    """``{rank: positions}`` for every populated rank, positions in id order."""
    order = np.lexsort((np.array(ids), ranks))
    cuts = np.flatnonzero(np.diff(ranks[order])) + 1
    return {int(ranks[chunk[0]]): chunk for chunk in np.split(order, cuts) if len(chunk)}


def assign_split(instance_id: str, seed: int) -> str:
    """Deterministic split from a seeded hash of the instance id."""
    digest = hashlib.sha256(f"{seed}:{instance_id}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2**64
    if u < SPLIT_FRACTIONS[0]:
        return "train"
    if u < SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1]:
        return "val"
    return "test"


def _parse_header(header: list[str]) -> tuple[bool, bool, int]:
    cols = [c.strip() for c in header]
    if cols[:2] != ["id", "rank"]:
        raise DataError(f"header must start with id,rank, got {cols[:2]}")
    pos = 2
    has_sigma = pos < len(cols) and cols[pos] == "sigma"
    pos += has_sigma
    has_split = pos < len(cols) and cols[pos] == "split"
    pos += has_split
    feature_cols = cols[pos:]
    if not feature_cols:
        raise DataError("no feature columns")
    expected = [f"f{i}" for i in range(len(feature_cols))]
    if feature_cols != expected:
        raise DataError(f"feature columns must be f0..f{len(feature_cols) - 1} in order")
    return has_sigma, has_split, len(feature_cols)


def _decoded_lines(path: str, fh):
    """The lines of text file ``fh``; bytes that do not decode raise DataError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file ({exc.encoding}: {exc.reason})") from None


def load_dataset(path: str, *, split_seed: int = 0,
                 domain: RankRange | None = None) -> Dataset:
    """Parse a dataset file; errors cite the offending 1-based data row."""
    with open(path, newline="") as fh:
        reader = csv.reader(_decoded_lines(path, fh))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        has_sigma, has_split, dim = _parse_header(header)
        width = 2 + has_sigma + has_split + dim
        ids: list[str] = []
        ranks: list[int] = []
        sigmas: list[float] = []
        splits: list[str] = []
        rows: list[list[float]] = []
        seen: set[str] = set()
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"{path} row {row_num}: expected {width} columns, got {len(row)}")
            instance_id = row[0].strip()
            if instance_id in seen:
                raise DataError(f"{path} row {row_num}: duplicate id {instance_id!r}")
            seen.add(instance_id)
            try:
                rank_value = float(row[1])
            except ValueError:
                raise DataError(f"{path} row {row_num}: rank {row[1]!r} is not a number") from None
            if not rank_value.is_integer():
                raise DataError(f"{path} row {row_num}: rank {row[1]!r} is not an integer")
            rank = int(rank_value)
            pos = 2
            if has_sigma:
                try:
                    sigma = float(row[pos])
                except ValueError:
                    raise DataError(f"{path} row {row_num}: bad sigma {row[pos]!r}") from None
                if not math.isfinite(sigma) or sigma <= 0:
                    raise DataError(f"{path} row {row_num}: sigma must be finite and > 0")
                sigmas.append(sigma)
                pos += 1
            if has_split:
                split = row[pos].strip()
                if split not in SPLITS:
                    raise DataError(f"{path} row {row_num}: unknown split {split!r}")
                splits.append(split)
                pos += 1
            else:
                splits.append(assign_split(instance_id, split_seed))
            try:
                feats = list(map(float, row[pos:]))
            except ValueError:
                raise DataError(f"{path} row {row_num}: non-numeric feature value") from None
            if not all(map(math.isfinite, feats)):
                raise DataError(f"{path} row {row_num}: non-finite feature value")
            ids.append(instance_id)
            ranks.append(rank)
            rows.append(feats)
    if not ids:
        raise DataError(f"{path}: no data rows")
    rank_arr = np.array(ranks, dtype=np.int64)
    if domain is None:
        domain = RankRange(int(rank_arr.min()), int(rank_arr.max()))
    else:
        bad = np.nonzero((rank_arr < domain.lo) | (rank_arr > domain.hi))[0]
        if len(bad):
            raise DataError(
                f"{path} row {int(bad[0]) + 1}: rank {int(rank_arr[bad[0]])} outside "
                f"domain [{domain.lo}, {domain.hi}]")
    return Dataset(
        ids=tuple(ids),
        features=np.array(rows, dtype=np.float64),
        ranks=rank_arr,
        sigmas=np.array(sigmas, dtype=np.float64) if has_sigma else None,
        splits=np.array(splits),
        rank_domain=domain,
    )


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset in the load format (split column always included)."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        header = ["id", "rank"]
        if dataset.has_sigma:
            header.append("sigma")
        header.append("split")
        header.extend(f"f{i}" for i in range(dataset.feature_dim))
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [dataset.ids[i], int(dataset.ranks[i])]
            if dataset.has_sigma:
                row.append(repr(float(dataset.sigmas[i])))
            row.append(str(dataset.splits[i]))
            row.extend(repr(float(v)) for v in dataset.features[i])
            writer.writerow(row)


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings for a synthetic ordinal benchmark."""

    n: int = 4000
    rank_domain: RankRange = RankRange(1, 80)
    feature_dim: int = 16
    nonlinearity: str = "log"
    noise_std: float = 0.05
    hetero: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigError(f"nonlinearity must be one of {NONLINEARITIES}")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _curve_position(t: np.ndarray, nonlinearity: str) -> np.ndarray:
    if nonlinearity == "linear":
        return t
    if nonlinearity == "log":
        return np.log1p(9.0 * t) / np.log(10.0)
    return 3.0 * t * t - 2.0 * t * t * t


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Features along a fixed 3-component curve in feature space plus noise.

    Instances of equal rank sit at the same curve point, so with
    ``noise_std`` of zero their features are identical.  ``hetero`` scales
    the feature noise linearly from 0.5x at the domain bottom to 2x at the
    top.  The sigma column is a label-uncertainty stand-in that also grows
    with rank.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.rank_domain.lo, spec.rank_domain.hi
    ranks = rng.integers(lo, hi + 1, size=spec.n)
    t = (ranks - lo) / max(1, hi - lo)
    z = _curve_position(t, spec.nonlinearity)
    d = spec.feature_dim
    n_components = min(d, 3)
    basis = np.linalg.qr(rng.normal(size=(d, n_components)))[0]
    components = np.column_stack([z, 0.4 * z * z, 0.2 * np.sin(3.0 * np.pi * z)])
    clean = np.sqrt(d) * (components[:, :n_components] @ basis.T)
    noise_scale = spec.noise_std * (0.5 + 1.5 * t if spec.hetero else np.ones(spec.n))
    features = clean + rng.normal(size=(spec.n, d)) * noise_scale[:, None]
    sigma = 1.5 + t
    u = rng.random(spec.n)
    splits = np.where(u < SPLIT_FRACTIONS[0], "train",
                      np.where(u < SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1], "val", "test"))
    return Dataset(
        ids=tuple(f"{i:06d}" for i in range(spec.n)),
        features=features,
        ranks=ranks.astype(np.int64),
        sigmas=sigma,
        splits=splits,
        rank_domain=spec.rank_domain,
    )
