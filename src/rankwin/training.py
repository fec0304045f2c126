"""Triplet sampling and training loops for relative-rank regressors.

A training example is (x, y1, y2, target): an instance, two references whose
ranks sit exactly at the ends of a window drawn near x's true rank, and the
clamped relative rank of x inside that window.  Windows always have their
exact nominal width, so both endpoint ranks must be populated in the data;
centers more than two half-widths from the true rank are never drawn, which
keeps roughly half of each model's targets off the clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from rankwin.data import Dataset
from rankwin.errors import ConfigError
from rankwin.nets import (AdamState, EncoderSpec, HeadSpec, RelativeRegressor,
                          adam_step)
from rankwin.partition import RankGroup
from rankwin.windows import RankScale, relative_rank, window_bounds

__all__ = [
    "TrainConfig",
    "sample_triplets",
    "train",
    "train_single",
]

# rng stream labels so per-instance draws never collide across models
_STREAM_TRIPLETS = 1
_STREAM_EPOCH = 2
_STREAM_INIT = 3

# one row per training example: positions into the dataset and the target
_TRIPLET_DTYPE = np.dtype([("x", np.int64), ("y1", np.int64), ("y2", np.int64),
                          ("rho_true", np.float64)])


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings shared by the global and local regressors."""

    scale: RankScale
    epochs: int
    batch_size: int = 18
    lr: float = 1e-4
    alpha: int = 6
    seed: int = 0
    triplets_per_instance: int = 4

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.triplets_per_instance < 1:
            raise ConfigError(f"triplets_per_instance must be >= 1, got {self.triplets_per_instance}")


def _candidate_centers(rank: int, scale: RankScale) -> range:
    """Integer centers within two half-widths of ``rank`` on the working axis."""
    if scale.is_geometric:
        axis = math.log(rank)
        lo = math.ceil(math.exp(axis - 2.0 * scale.tau))
        hi = math.floor(math.exp(axis + 2.0 * scale.tau))
        return range(max(1, lo), hi + 1)
    width = int(scale.tau)
    return range(rank - 2 * width, rank + 2 * width + 1)


def _valid_centers_for_rank(rank: int, scale: RankScale,
                            counts: dict[int, int],
                            group: RankGroup | None) -> list[tuple[int, int, int]]:
    """(center, low, high) triples usable by every instance at ``rank``.

    An endpoint is populated for instance x when at least one OTHER instance
    has that rank, so x's own rank counts against an endpoint pool only when
    the two coincide.
    """
    out = []
    for center in _candidate_centers(rank, scale):
        low, high = window_bounds(center, scale)
        if low >= high or (scale.is_geometric and low < 1):
            continue
        if counts.get(low, 0) - (low == rank) < 1:
            continue
        if counts.get(high, 0) - (high == rank) < 1:
            continue
        if group is not None and (high < group.extended_min or low > group.extended_max):
            continue
        out.append((center, low, high))
    return out


def sample_triplets(dataset: Dataset, config: TrainConfig,
                    group: RankGroup | None = None, *,
                    epoch: int = 0, model_key: int = 0) -> np.recarray:
    """Draw one epoch's triplets; deterministic in (seed, model_key, epoch).

    Returns a record array with one row per triplet, so ``len`` counts
    triplets; ``.x``, ``.y1``, ``.y2`` (dataset positions) and ``.rho_true``
    are the columns.

    With a group, only instances inside its extended range are eligible and
    windows must intersect that range.  Instances whose rank admits no valid
    window are skipped; if that leaves nothing, the data is too sparse for
    the scale and a ConfigError names the uncovered ranks.
    """
    if config.scale.is_geometric and len(dataset) and dataset.ranks.min() < 1:
        raise ConfigError(f"geometric scale needs ranks >= 1, got {dataset.ranks.min()}")
    index = dataset.rank_index()
    counts = {rank: len(positions) for rank, positions in index.items()}
    center_cache: dict[int, list[tuple[int, int, int]]] = {}
    if group is None:
        eligible = range(len(dataset))
    else:
        eligible = [i for i in range(len(dataset)) if group.in_extended(int(dataset.ranks[i]))]
    samples: list[tuple[int, int, int, float]] = []
    skipped_ranks: set[int] = set()
    for pos in eligible:
        rank = int(dataset.ranks[pos])
        if rank not in center_cache:
            center_cache[rank] = _valid_centers_for_rank(rank, config.scale, counts, group)
        centers = center_cache[rank]
        if not centers:
            skipped_ranks.add(rank)
            continue
        rng = np.random.default_rng([config.seed, _STREAM_TRIPLETS, model_key, epoch, pos])
        for _ in range(config.triplets_per_instance):
            center, low, high = centers[rng.integers(len(centers))]
            pool_low = index[low]
            if low == rank:
                pool_low = pool_low[pool_low != pos]
            pool_high = index[high]
            if high == rank:
                pool_high = pool_high[pool_high != pos]
            y1 = int(pool_low[rng.integers(len(pool_low))])
            y2 = int(pool_high[rng.integers(len(pool_high))])
            samples.append((pos, y1, y2, relative_rank(rank, low, high, config.scale)))
    if not samples and len(dataset):
        raise ConfigError(
            f"no valid training windows; ranks without usable centers: {sorted(skipped_ranks)}")
    return np.array(samples, dtype=_TRIPLET_DTYPE).view(np.recarray)


def train_single(dataset: Dataset, config: TrainConfig, model: RelativeRegressor,
                 group: RankGroup | None = None, *, model_key: int = 0,
                 on_epoch: Callable[[int, int, float], None] | None = None) -> RelativeRegressor:
    """Train one regressor in place; returns it for convenience.

    ``on_epoch(model_key, epoch, mean_loss)`` fires after each epoch.
    """
    state = AdamState.for_model(model)
    feats = dataset.features
    for epoch in range(config.epochs):
        triplets = sample_triplets(dataset, config, group, epoch=epoch, model_key=model_key)
        order = np.random.default_rng(
            [config.seed, _STREAM_EPOCH, model_key, epoch]).permutation(len(triplets))
        total, count = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, grads = model.loss_and_gradients(
                feats[triplets.x[batch]], feats[triplets.y1[batch]],
                feats[triplets.y2[batch]], triplets.rho_true[batch])
            adam_step(model, grads, state, lr=config.lr)
            total += loss * len(batch)
            count += len(batch)
        if on_epoch is not None:
            on_epoch(model_key, epoch, total / max(1, count))
    return model


def train(dataset: Dataset, config: TrainConfig,
          groups: Iterable[RankGroup] | None = None, *,
          encoder: EncoderSpec | None = None,
          head: HeadSpec | None = None,
          on_epoch: Callable[[int, int, float], None] | None = None,
          ) -> tuple[RelativeRegressor, list[RelativeRegressor]]:
    """Train the global regressor and one independent local per group.

    Model key 0 is the global model; locals are keyed 1..len(groups).  Each
    model gets its own parameter init and its own rng streams, all derived
    from ``config.seed``.
    """
    if len(dataset) == 0:
        raise ConfigError("empty training dataset")
    if encoder is None:
        encoder = EncoderSpec(dataset.feature_dim, (32,), 16)
    if encoder.input_dim != dataset.feature_dim:
        raise ConfigError(
            f"encoder input dim {encoder.input_dim} != dataset feature dim {dataset.feature_dim}")

    def _model(key: int) -> RelativeRegressor:
        seed = int(np.random.SeedSequence(
            [config.seed, _STREAM_INIT, key]).generate_state(1)[0])
        return RelativeRegressor(encoder, head, seed=seed)

    global_model = train_single(dataset, config, _model(0), None,
                                model_key=0, on_epoch=on_epoch)
    local_models = []
    for i, group in enumerate(groups or []):
        local_models.append(train_single(dataset, config, _model(i + 1), group,
                                         model_key=i + 1, on_epoch=on_epoch))
    return global_model, local_models
