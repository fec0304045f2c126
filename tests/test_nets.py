"""Regressor forward/backward math, Adam, and checkpoint persistence.

Gradient correctness is the load-bearing test here: analytic backprop is
compared against central finite differences computed through an independent
reference forward pass (see gradcheck_utils for the ReLU-kink handling).
"""

import os

import numpy as np
import pytest

from gradcheck_utils import (random_small_model, run_gradient_checks,
                             sample_batch)
from rankwin.errors import ConfigError, DataError, NumericalError, ShapeError
from rankwin.nets import (AdamState, EncoderSpec, HeadSpec, RelativeRegressor,
                          adam_step, load_checkpoint, model_digest,
                          save_checkpoint)

ENC = EncoderSpec(6, (12,), 8)


def small_model(seed=0):
    return RelativeRegressor(ENC, HeadSpec((10, 6, 1)), seed=seed)


def test_spec_validation():
    with pytest.raises(ConfigError):
        EncoderSpec(6, (12,), 1)  # one output column cannot express a triple
    with pytest.raises(ConfigError):
        EncoderSpec(0, (12,), 8)
    with pytest.raises(ConfigError):
        HeadSpec((10, 6, 2))
    with pytest.raises(ConfigError):
        HeadSpec((10, 1))
    with pytest.raises(ConfigError):
        RelativeRegressor(ENC, seed=-1)


def test_initialization_is_seeded_and_bounded():
    a, b = small_model(3), small_model(3)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    c = small_model(4)
    assert any(not np.array_equal(pa, pc)
               for pa, pc in zip(a.parameters(), c.parameters()))
    # uniform fan-in bound on weights, zeros on biases
    fan_in = ENC.input_dim
    for w, bias in zip(a.parameters()[0::2], a.parameters()[1::2]):
        assert np.all(np.abs(w) <= np.sqrt(6.0 / fan_in) + 1e-12)
        assert np.all(bias == 0.0)
        fan_in = w.shape[1]
        if w.shape[1] == ENC.output_dim:
            fan_in = 3 * ENC.output_dim  # head consumes the concatenated triple


def test_encode_shapes_and_validation():
    m = small_model()
    single = m.encode(np.ones(6))
    batch = m.encode(np.ones((4, 6)))
    assert single.shape == (8,)
    assert batch.shape == (4, 8)
    assert np.allclose(batch[2], single)
    with pytest.raises(ShapeError):
        m.encode(np.ones(5))
    with pytest.raises(DataError):
        m.encode(np.array([1.0, np.nan, 0, 0, 0, 0]))


def test_regress_is_bounded_and_scalar_for_vectors():
    m = small_model()
    rng = np.random.default_rng(0)
    f = m.encode(rng.normal(size=(30, 6)))
    out = m.regress(f[:10], f[10:20], f[20:])
    assert out.shape == (10,)
    assert np.all(np.abs(out) <= 1.0)
    one = m.regress(f[0], f[10], f[20])
    assert isinstance(one, float)
    assert one == pytest.approx(out[0], abs=1e-15)


def test_regress_grid_matches_regress_pairwise():
    m = small_model(7)
    rng = np.random.default_rng(1)
    x = m.encode(rng.normal(size=(5, 6)))
    y1 = m.encode(rng.normal(size=(3, 6)))
    y2 = m.encode(rng.normal(size=(3, 6)))
    grid = m.regress_grid(x, y1, y2)
    assert grid.shape == (3, 5)
    for j in range(3):
        for i in range(5):
            direct = m.regress(x[i], y1[j], y2[j])
            assert grid[j, i] == pytest.approx(direct, abs=1e-14)


def test_loss_zero_at_own_predictions_kills_all_gradients():
    m = small_model(2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 6))
    y1 = rng.normal(size=(6, 6))
    y2 = rng.normal(size=(6, 6))
    rho = m.regress(m.encode(x), m.encode(y1), m.encode(y2))
    loss, grads = m.loss_and_gradients(x, y1, y2, rho)
    assert loss == 0.0
    for g in grads:
        assert np.all(g == 0.0)


def test_loss_input_validation():
    m = small_model()
    x = np.zeros((3, 6))
    with pytest.raises(DataError):
        m.loss_and_gradients(x, x, x, [0.0, 0.5, 1.5])
    with pytest.raises(ShapeError):
        m.loss_and_gradients(x, x[:2], x, [0.0, 0.5, 1.0])
    with pytest.raises(ShapeError):
        m.loss_and_gradients(x[:0], x[:0], x[:0], [])


def test_non_finite_parameters_raise():
    m = small_model()
    m.parameters()[0][0, 0] = 1e308
    x = np.full((2, 6), 1e4)
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        m.loss_and_gradients(x, x, x, [0.0, 0.0])


def test_gradients_match_finite_differences():
    # acceptance runs the full 50-model sweep; keep the unit copy light
    assert run_gradient_checks(8, seed=11) < 1e-4


def test_gradcheck_batches_are_reproducible():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    m1, m2 = random_small_model(rng1), random_small_model(rng2)
    b1 = sample_batch(m1, rng1, 3)
    b2 = sample_batch(m2, rng2, 3)
    for a, b in zip(b1, b2):
        assert np.array_equal(a, b)


def test_adam_zero_gradient_keeps_parameters():
    m = small_model(1)
    before = [p.copy() for p in m.parameters()]
    state = AdamState.for_model(m)
    adam_step(m, [np.zeros_like(p) for p in m.parameters()], state)
    assert state.step == 1
    for p, q in zip(m.parameters(), before):
        assert np.array_equal(p, q)


def test_adam_first_step_size_is_learning_rate():
    m = small_model(1)
    before = [p.copy() for p in m.parameters()]
    grads = [np.ones_like(p) for p in m.parameters()]
    adam_step(m, grads, AdamState.for_model(m), lr=1e-3)
    for p, q in zip(m.parameters(), before):
        # bias-corrected first step is lr * g / (|g| + eps)
        assert np.allclose(q - p, 1e-3, rtol=1e-6)


def test_adam_constant_gradient_approaches_sign_update():
    m = small_model(1)
    grads = [np.full_like(p, 0.25) for p in m.parameters()]
    state = AdamState.for_model(m)
    for _ in range(300):
        prev = m.parameters()[0][0, 0]
        adam_step(m, grads, state, lr=1e-3)
    delta = prev - m.parameters()[0][0, 0]
    assert delta == pytest.approx(1e-3, rel=1e-3)


def test_adam_rejects_mismatched_gradients():
    m = small_model()
    state = AdamState.for_model(m)
    with pytest.raises(ShapeError):
        adam_step(m, [np.zeros(3)] * len(m.parameters()), state)
    with pytest.raises(ShapeError):
        adam_step(m, m.parameters()[:-1], state)


def test_model_digest_tracks_parameters():
    a, b = small_model(3), small_model(3)
    assert model_digest(a) == model_digest(b)
    grads = [np.ones_like(p) for p in a.parameters()]
    adam_step(a, grads, AdamState.for_model(a))
    assert model_digest(a) != model_digest(b)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    m = small_model(6)
    state = AdamState.for_model(m)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.normal(size=(4, 6))
        _, grads = m.loss_and_gradients(x, rng.normal(size=(4, 6)),
                                        rng.normal(size=(4, 6)),
                                        rng.uniform(-1, 1, 4))
        adam_step(m, grads, state)
    path = os.path.join(tmp_path, "model.npz")
    save_checkpoint(m, path, optimizer=state)
    loaded, opt = load_checkpoint(path)
    assert model_digest(loaded) == model_digest(m)
    for p, q in zip(loaded.parameters(), m.parameters()):
        assert np.array_equal(p, q)
    assert opt.step == state.step
    for a, b in zip(opt.m + opt.v, state.m + state.v):
        assert np.array_equal(a, b)


def test_checkpoint_without_optimizer(tmp_path):
    m = small_model()
    path = os.path.join(tmp_path, "model.npz")
    save_checkpoint(m, path)
    loaded, opt = load_checkpoint(path)
    assert opt is None
    assert model_digest(loaded) == model_digest(m)


def test_checkpoint_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(os.path.join(tmp_path, "absent.npz"))
