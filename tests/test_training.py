"""Triplet sampling correctness and the training loop.

The crafted-rank fixtures pin sampling exactly: with ranks {20, 22, 26} and
an arithmetic half-width of 3, the only populated window is (20, 26), so
every triplet's target is known in closed form ((22-23)/3 = -1/3 for the
middle rank, the clamp values at the ends).
"""

import numpy as np
import pytest

from rankwin.data import Dataset, SyntheticSpec, generate_synthetic
from rankwin.errors import ConfigError
from rankwin.nets import (AdamState, EncoderSpec, RelativeRegressor, adam_step,
                          model_digest)
from rankwin.partition import RankGroup
from rankwin.training import (_STREAM_EPOCH, TrainConfig, sample_triplets, train,
                              train_single)
from rankwin.windows import RankRange, RankScale

ARI3 = RankScale.arithmetic(3)


def rank_dataset(ranks, feature_dim=3, seed=0):
    """One feature row per entry of ``ranks``; features carry the rank."""
    rng = np.random.default_rng(seed)
    ranks = np.asarray(ranks, dtype=np.int64)
    features = np.zeros((len(ranks), feature_dim))
    features[:, 0] = ranks / 10.0
    features[:, 1:] = rng.normal(size=(len(ranks), feature_dim - 1)) * 0.01
    return Dataset(ids=tuple(f"i{i:03d}" for i in range(len(ranks))),
                   features=features,
                   ranks=ranks,
                   sigmas=None,
                   splits=np.array(["train"] * len(ranks)),
                   rank_domain=RankRange(int(ranks.min()), int(ranks.max())))


def config(**kw):
    base = dict(scale=ARI3, epochs=1, batch_size=4, seed=0,
                triplets_per_instance=2)
    base.update(kw)
    return TrainConfig(**base)


def test_crafted_ranks_pin_the_target():
    ds = rank_dataset([20, 20, 22, 22, 26, 26])
    samples = sample_triplets(ds, config(triplets_per_instance=3))
    assert len(samples) == 18
    for s in samples:
        assert int(ds.ranks[s.y1]) == 20
        assert int(ds.ranks[s.y2]) == 26
        expected = {20: -1.0, 22: -1 / 3, 26: 1.0}[int(ds.ranks[s.x])]
        assert s.rho_true == pytest.approx(expected, abs=1e-15)


def test_own_instance_never_serves_as_reference():
    ds = rank_dataset([20, 20, 22, 26, 26])
    for s in sample_triplets(ds, config(triplets_per_instance=8)):
        assert s.y1 != s.x
        assert s.y2 != s.x


def test_single_instance_endpoint_is_skipped():
    # ranks 5 and 11 can only anchor windows through themselves, so only
    # the rank-8 instance (window (5, 11)) can train
    ds = rank_dataset([5, 8, 11])
    samples = sample_triplets(ds, config())
    assert {int(ds.ranks[s.x]) for s in samples} == {8}
    for s in samples:
        assert s.rho_true == 0.0


def test_unusable_data_raises_and_names_ranks():
    ds = rank_dataset([5, 11])
    with pytest.raises(ConfigError, match=r"\[5, 11\]"):
        sample_triplets(ds, config())


def test_group_without_instances_is_named():
    ranks = np.arange(300) % 20 + 1
    ds = rank_dataset(ranks)
    with pytest.raises(ConfigError, match=r"rank group 0's extended range \[50, 60\]"):
        sample_triplets(ds, config(), RankGroup(0, 50, 60, 50, 60))


def test_geometric_scale_rejects_rank_zero():
    ds = rank_dataset([0, 1, 2, 3] * 3)
    with pytest.raises(ConfigError, match="ranks >= 1"):
        sample_triplets(ds, config(scale=RankScale.geometric(0.2)))


def test_windows_have_exact_width_and_nearby_centers():
    ds = rank_dataset(list(range(1, 31)) * 3)
    for s in sample_triplets(ds, config(triplets_per_instance=4)):
        low, high = int(ds.ranks[s.y1]), int(ds.ranks[s.y2])
        assert high - low == 6  # 2 * tau, never clipped
        center = (low + high) // 2
        assert abs(center - int(ds.ranks[s.x])) <= 6  # 2 * tau


def test_geometric_targets_match_log_arithmetic():
    import math
    ds = rank_dataset(list(range(5, 41)) * 2)
    geo = RankScale.geometric(0.15)
    for s in sample_triplets(ds, config(scale=geo)):
        low, high = int(ds.ranks[s.y1]), int(ds.ranks[s.y2])
        rank = int(ds.ranks[s.x])
        mid = (math.log(low) + math.log(high)) / 2
        half = (math.log(high) - math.log(low)) / 2
        expected = np.clip((math.log(rank) - mid) / half, -1.0, 1.0)
        assert s.rho_true == pytest.approx(float(expected), abs=1e-15)
        assert abs(math.log(rank) - math.log(round((low + high) / 2))) <= 0.65


def test_sampling_is_deterministic_per_stream():
    ds = rank_dataset(list(range(10, 20)) * 4)
    a = sample_triplets(ds, config(), epoch=2, model_key=1)
    b = sample_triplets(ds, config(), epoch=2, model_key=1)
    assert np.array_equal(a, b)
    c = sample_triplets(ds, config(), epoch=3, model_key=1)
    d = sample_triplets(ds, config(), epoch=2, model_key=2)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_group_restricts_instances_and_windows():
    ds = rank_dataset(list(range(1, 41)) * 2)
    group = RankGroup(index=1, theta_min=15, theta_max=24,
                      extended_min=9, extended_max=30)
    samples = sample_triplets(ds, config(), group)
    assert len(samples)
    for s in samples:
        assert group.in_extended(int(ds.ranks[s.x]))
        low, high = int(ds.ranks[s.y1]), int(ds.ranks[s.y2])
        assert low <= 30 and high >= 9  # window intersects the extension


def test_train_config_validation():
    with pytest.raises(ConfigError):
        config(epochs=-1)
    with pytest.raises(ConfigError):
        config(batch_size=0)
    with pytest.raises(ConfigError):
        config(lr=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            config(lr=bad)
    with pytest.raises(ConfigError):
        config(triplets_per_instance=0)


def test_zero_epochs_leaves_model_untouched():
    ds = rank_dataset(list(range(10, 20)) * 2)
    gm, locals_ = train(ds, config(epochs=0))
    assert locals_ == []
    fresh, _ = train(ds, config(epochs=0))
    assert model_digest(gm) == model_digest(fresh)


def test_training_reduces_loss():
    ds = rank_dataset(list(range(1, 21)) * 10, feature_dim=4)
    losses = []
    train(ds, config(epochs=8, triplets_per_instance=4, lr=1e-3),
          encoder=EncoderSpec(4, (16,), 8),
          on_epoch=lambda key, epoch, loss: losses.append(loss))
    assert len(losses) == 8
    assert losses[-1] < 0.6 * losses[0]


def test_train_returns_independent_locals():
    ds = rank_dataset(list(range(1, 41)) * 3)
    groups = [RankGroup(0, 1, 14, 1, 20), RankGroup(1, 15, 40, 9, 40)]
    seen = []
    gm, locals_ = train(ds, config(epochs=1), groups,
                        on_epoch=lambda key, epoch, loss: seen.append(key))
    assert len(locals_) == 2
    digests = {model_digest(m) for m in [gm, *locals_]}
    assert len(digests) == 3  # distinct inits and data make distinct models
    assert seen == [0, 1, 2]


def test_train_validates_inputs():
    ds = rank_dataset([10, 12, 14])
    with pytest.raises(ConfigError, match="input dim"):
        train(ds, config(), encoder=EncoderSpec(7, (8,), 4))
    empty = ds.subset("val")
    with pytest.raises(ConfigError, match="empty"):
        train(empty, config())


def test_learned_targets_beat_chance():
    # separable features: after a short run the model should place rho on
    # the correct side of the window for held-out triplets
    ds = rank_dataset(list(range(1, 21)) * 12, feature_dim=4, seed=3)
    cfg = config(epochs=10, triplets_per_instance=4, lr=1e-3, scale=RankScale.arithmetic(2))
    gm, _ = train(ds, cfg, encoder=EncoderSpec(4, (16,), 8))
    held = sample_triplets(ds, cfg, epoch=99)
    feats = gm.encode(ds.features)
    pred = gm.regress(feats[held.x], feats[held.y1], feats[held.y2])
    err = np.abs(pred - held.rho_true)
    assert float(err.mean()) < 0.3


def test_synthetic_end_to_end_smoke():
    ds = generate_synthetic(SyntheticSpec(n=150, rank_domain=RankRange(1, 20),
                                          feature_dim=6, seed=1)).subset("train")
    gm, _ = train(ds, config(epochs=2), encoder=EncoderSpec(6, (8,), 4))
    assert gm.input_dim == 6


def oracle_train_single(dataset, cfg, model, group=None, *, model_key=0):
    """train_single as it gathered batches before: fancy-index every column per batch.

    Returns the per-epoch mean losses.
    """
    state = AdamState.for_model(model)
    feats = dataset.features
    losses = []
    for epoch in range(cfg.epochs):
        triplets = sample_triplets(dataset, cfg, group, epoch=epoch, model_key=model_key)
        order = np.random.default_rng(
            [cfg.seed, _STREAM_EPOCH, model_key, epoch]).permutation(len(triplets))
        total, count = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = model.loss_and_gradients(
                feats[triplets.x[batch]], feats[triplets.y1[batch]],
                feats[triplets.y2[batch]], triplets.rho_true[batch])
            adam_step(model, grads, state, lr=cfg.lr)
            total += loss * len(batch)
            count += len(batch)
        losses.append(total / max(1, count))
    return losses


@pytest.mark.parametrize("group", [None, RankGroup(1, 15, 24, 9, 30)])
def test_train_single_matches_per_batch_gathering(group):
    ds = rank_dataset(list(range(1, 41)) * 3, feature_dim=4)
    cfg = config(epochs=2, batch_size=7, lr=1e-3)  # 7 divides neither triplet count
    enc = EncoderSpec(4, (8,), 4)
    got, want = RelativeRegressor(enc, seed=2), RelativeRegressor(enc, seed=2)
    losses = []
    train_single(ds, cfg, got, group, model_key=3,
                 on_epoch=lambda key, epoch, loss: losses.append(loss))
    assert losses == oracle_train_single(ds, cfg, want, group, model_key=3)
    assert model_digest(got) == model_digest(want)
