"""Regressor forward/backward math, Adam, and checkpoint persistence.

Gradient correctness is the load-bearing test here: analytic backprop is
compared against central finite differences computed through an independent
reference forward pass (see gradcheck_utils for the ReLU-kink handling).
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gradcheck_utils import (random_small_model, run_gradient_checks,
                             sample_batch)
from rankwin.errors import ConfigError, DataError, NumericalError, ShapeError
from rankwin.fileio import pack_meta
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


def one_shot_grid(model, x, y1, y2):
    """The unblocked grid: the whole (pairs, pool, width) first layer at once."""
    d = model.feature_dim
    w1, b1 = model._head.weights[0], model._head.biases[0]
    part_refs = y1 @ w1[d:2 * d] + y2 @ w1[2 * d:] + b1
    h1 = np.maximum((x @ w1[:d])[None, :, :] + part_refs[:, None, :], 0.0)
    m, n, width = h1.shape
    out, _ = model._head.forward_cached(h1.reshape(m * n, width), start=1)
    return out[:, 0].reshape(m, n)


def check_blocked_grid_is_bit_exact():
    """Every pool size and pair count gives exactly the one-shot cells.

    The pool sizes include odd ones and ones whose last block is partial.
    """
    model = RelativeRegressor(EncoderSpec(6, (12,), 16), seed=3)
    rng = np.random.default_rng(4)
    for n in (1, 7, 130, 175, 218, 255, 256):
        x = rng.normal(size=(n, 16))
        for m in (1, 3, 41, 64):
            y1, y2 = rng.normal(size=(2, m, 16))
            assert np.array_equal(model.regress_grid(x, y1, y2),
                                  one_shot_grid(model, x, y1, y2)), (m, n)


def test_regress_grid_blocks_are_bit_exact():
    # With several BLAS threads the one-shot product splits its rows across
    # threads, so the check runs where the pinned runs do: on one BLAS thread.
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([here, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "from test_nets import check_blocked_grid_is_bit_exact as check; check()"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_regress_grid_of_empty_inputs_keeps_its_shape():
    m = small_model()
    feats = np.zeros((3, ENC.output_dim))
    assert m.regress_grid(feats[:0], feats[:2], feats[:2]).shape == (2, 0)
    assert m.regress_grid(feats, feats[:0], feats[:0]).shape == (0, 3)


def test_regress_grid_memory_is_bounded_per_block():
    model = RelativeRegressor(EncoderSpec(6, (12,), 16), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(256, 16))
    y1, y2 = rng.normal(size=(2, 64, 16))
    tracemalloc.start()
    try:
        model.regress_grid(x, y1, y2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # the whole (64, 256, 256) first layer alone is 33.5 MB


def test_loss_zero_at_own_predictions_kills_all_gradients():
    m = small_model(2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 6))
    y1 = rng.normal(size=(6, 6))
    y2 = rng.normal(size=(6, 6))
    rho = m.regress(m.encode(x), m.encode(y1), m.encode(y2))
    loss, grad = m.loss_and_gradients(x, y1, y2, rho)
    assert loss == 0.0
    assert np.all(grad == 0.0)


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
    adam_step(m, np.zeros_like(m.flat), state)
    assert state.step == 1
    for p, q in zip(m.parameters(), before):
        assert np.array_equal(p, q)


def test_adam_first_step_size_is_learning_rate():
    m = small_model(1)
    before = [p.copy() for p in m.parameters()]
    adam_step(m, np.ones_like(m.flat), AdamState.for_model(m), lr=1e-3)
    for p, q in zip(m.parameters(), before):
        # bias-corrected first step is lr * g / (|g| + eps)
        assert np.allclose(q - p, 1e-3, rtol=1e-6)


def test_adam_constant_gradient_approaches_sign_update():
    m = small_model(1)
    grad = np.full_like(m.flat, 0.25)
    state = AdamState.for_model(m)
    for _ in range(300):
        prev = m.parameters()[0][0, 0]
        adam_step(m, grad, state, lr=1e-3)
    delta = prev - m.parameters()[0][0, 0]
    assert delta == pytest.approx(1e-3, rel=1e-3)


def test_adam_rejects_mismatched_gradients():
    m = small_model()
    state = AdamState.for_model(m)
    with pytest.raises(ShapeError):
        adam_step(m, np.zeros(3), state)
    with pytest.raises(ShapeError):
        adam_step(m, np.zeros_like(m.flat)[:-1], state)
    with pytest.raises(ShapeError):  # the per-array list form is gone
        adam_step(m, [np.zeros_like(p) for p in m.parameters()], state)
    with pytest.raises(ShapeError):
        adam_step(m, np.zeros_like(m.flat), AdamState(m.flat.size - 1))
    assert state.step == 0


def test_adam_leaves_the_gradient_unchanged():
    rng = np.random.default_rng(5)
    reused, fresh = small_model(1), small_model(1)
    reused_state, fresh_state = AdamState.for_model(reused), AdamState.for_model(fresh)
    grad = rng.normal(size=reused.flat.size)
    want = grad.copy()
    for _ in range(3):
        adam_step(reused, grad, reused_state, lr=1e-3)
        assert np.array_equal(grad, want)
        adam_step(fresh, want.copy(), fresh_state, lr=1e-3)
        assert np.array_equal(reused.flat, fresh.flat)


# Oracles: the per-array arithmetic the flat layout replaced.  The flat
# versions must reproduce them bit for bit.

def oracle_init(encoder, head, seed):
    """Parameters drawn as separate arrays, in ``parameters()`` order."""
    rng = np.random.default_rng(seed)
    params = []
    for fan_in, dims in ((encoder.input_dim, encoder.layer_dims),
                         (3 * encoder.output_dim, head.layer_dims)):
        for width in dims:
            bound = np.sqrt(6.0 / fan_in)
            params += [rng.uniform(-bound, bound, size=(fan_in, width)), np.zeros(width)]
            fan_in = width
    return params


def _oracle_forward(layers, a, final):
    acts = [a]
    n_layers = len(layers) // 2
    for i in range(n_layers):
        z = acts[-1] @ layers[2 * i] + layers[2 * i + 1]
        if i < n_layers - 1:
            z = np.maximum(z, 0.0)
        elif final == "tanh":
            z = np.tanh(z)
        acts.append(z)
    return acts


def _oracle_backward(layers, acts, g, final):
    n_layers = len(layers) // 2
    grads = [None] * len(layers)
    for i in reversed(range(n_layers)):
        a_in, a_out = acts[i], acts[i + 1]
        if i == n_layers - 1 and final == "tanh":
            g = g * (1.0 - a_out * a_out)
        elif i < n_layers - 1:
            g = g * (a_out > 0.0)
        grads[2 * i] = a_in.T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ layers[2 * i].T
    return g, grads


def oracle_loss_and_gradients(params, n_encoder_arrays, x, y1, y2, rho):
    """Loss and grads through split/vstack/hstack copies, one array per grad."""
    enc, head = params[:n_encoder_arrays], params[n_encoder_arrays:]
    n = len(rho)
    enc_acts = _oracle_forward(enc, np.vstack([x, y1, y2]), "linear")
    fx, f1, f2 = np.split(enc_acts[-1], 3, axis=0)
    head_acts = _oracle_forward(head, np.hstack([fx, f1, f2]), "tanh")
    pred = head_acts[-1][:, 0]
    loss = float(np.mean((pred - rho) ** 2))
    grad_in, head_grads = _oracle_backward(head, head_acts, ((2.0 / n) * (pred - rho))[:, None],
                                           "tanh")
    _, enc_grads = _oracle_backward(enc, enc_acts, np.vstack(np.split(grad_in, 3, axis=1)),
                                    "linear")
    return loss, enc_grads + head_grads


def oracle_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    correct1 = 1.0 - beta1 ** step
    correct2 = 1.0 - beta2 ** step
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * (g * g)
        p -= lr * (mi / correct1) / (np.sqrt(vi / correct2) + eps)


@pytest.mark.parametrize("encoder, head", [
    (ENC, HeadSpec((10, 6, 1))),
    (EncoderSpec(16, (32,), 16), HeadSpec()),  # the benchmark's shapes
])
def test_flat_training_matches_per_array_oracle(encoder, head):
    model = RelativeRegressor(encoder, head, seed=5)
    params = oracle_init(encoder, head, seed=5)
    for p, q in zip(model.parameters(), params):
        assert np.array_equal(p, q)
    n_enc = 2 * len(encoder.layer_dims)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    state = AdamState.for_model(model)
    rng = np.random.default_rng(8)
    for step in range(1, 201):
        n = int(rng.integers(1, 21))
        x, y1, y2 = rng.normal(size=(3, n, encoder.input_dim))
        rho = rng.uniform(-1, 1, n)
        loss, grad = model.loss_and_gradients(x, y1, y2, rho)
        want_loss, want_grads = oracle_loss_and_gradients(params, n_enc, x, y1, y2, rho)
        assert loss == want_loss
        assert np.array_equal(grad, np.concatenate(want_grads, axis=None))
        adam_step(model, grad, state, lr=1e-3)
        oracle_adam_step(params, want_grads, m, v, step, lr=1e-3)
        for got, want in ((model.flat, params), (state.m, m), (state.v, v)):
            assert np.array_equal(got, np.concatenate(want, axis=None)), step


def assert_flat(model, state=None):
    """Every parameter array is a view into the flat vector; moments are laid out like it."""
    assert sum(p.size for p in model.parameters()) == model.flat.size
    for p in model.parameters():
        assert np.shares_memory(p, model.flat)
    if state is not None:
        assert state.m.shape == state.v.shape == model.flat.shape


def test_parameters_are_consecutive_views_of_the_flat_vector(tmp_path):
    m = small_model(2)
    assert_flat(m)
    m.flat[:] = np.arange(m.flat.size)
    assert np.array_equal(np.concatenate([p.ravel() for p in m.parameters()]),
                          np.arange(m.flat.size))

    m = small_model(2)
    state = AdamState.for_model(m)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y1, y2 = rng.normal(size=(3, 4, 6))
        adam_step(m, m.loss_and_gradients(x, y1, y2, rng.uniform(-1, 1, 4))[1], state)
    assert_flat(m, state)
    path = os.path.join(tmp_path, "model.npz")
    save_checkpoint(m, path, optimizer=state)
    loaded, opt = load_checkpoint(path)
    assert_flat(loaded, opt)
    assert np.array_equal(loaded.flat, m.flat)
    assert np.array_equal(opt.m, state.m)
    assert np.array_equal(opt.v, state.v)


def test_resumed_training_equals_uninterrupted(tmp_path):
    rng = np.random.default_rng(12)
    batches = [(rng.normal(size=(3, 5, 6)), rng.uniform(-1, 1, 5)) for _ in range(12)]

    def run(model, state, part):
        for (x, y1, y2), rho in part:
            adam_step(model, model.loss_and_gradients(x, y1, y2, rho)[1], state, lr=1e-3)

    whole = small_model(4)
    whole_state = AdamState.for_model(whole)
    run(whole, whole_state, batches)

    first = small_model(4)
    first_state = AdamState.for_model(first)
    run(first, first_state, batches[:7])
    path = os.path.join(tmp_path, "model.npz")
    save_checkpoint(first, path, optimizer=first_state)
    resumed, resumed_state = load_checkpoint(path)
    run(resumed, resumed_state, batches[7:])
    assert resumed_state.step == whole_state.step == 12
    assert model_digest(resumed) == model_digest(whole)
    assert np.array_equal(resumed_state.m, whole_state.m)
    assert np.array_equal(resumed_state.v, whole_state.v)


def test_model_digest_tracks_parameters():
    a, b = small_model(3), small_model(3)
    assert model_digest(a) == model_digest(b)
    adam_step(a, np.ones_like(a.flat), AdamState.for_model(a))
    assert model_digest(a) != model_digest(b)


def test_model_digest_is_the_per_array_formula():
    # the formula digests stored in existing refdb.npz files were made with
    m = small_model(7)
    state = AdamState.for_model(m)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y1, y2 = rng.normal(size=(3, 4, 6))
        adam_step(m, m.loss_and_gradients(x, y1, y2, rng.uniform(-1, 1, 4))[1], state)
    spec = {"format_version": 1, "seed": 7,
            "encoder": {"input_dim": 6, "hidden_dims": [12], "output_dim": 8},
            "head": {"layer_dims": [10, 6, 1]}}
    h = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    for p in m.parameters():
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    assert model_digest(m) == h.hexdigest()


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    m = small_model(6)
    state = AdamState.for_model(m)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.normal(size=(4, 6))
        _, grad = m.loss_and_gradients(x, rng.normal(size=(4, 6)),
                                       rng.normal(size=(4, 6)),
                                       rng.uniform(-1, 1, 4))
        adam_step(m, grad, state)
    path = os.path.join(tmp_path, "model.npz")
    save_checkpoint(m, path, optimizer=state)
    loaded, opt = load_checkpoint(path)
    assert model_digest(loaded) == model_digest(m)
    for p, q in zip(loaded.parameters(), m.parameters()):
        assert np.array_equal(p, q)
    assert opt.step == state.step
    assert np.array_equal(opt.m, state.m)
    assert np.array_equal(opt.v, state.v)


def test_checkpoint_without_optimizer(tmp_path):
    m = small_model()
    path = os.path.join(tmp_path, "model.npz")
    save_checkpoint(m, path)
    loaded, opt = load_checkpoint(path)
    assert opt is None
    assert model_digest(loaded) == model_digest(m)


def test_checkpoint_of_unknown_format_version_is_refused(tmp_path):
    path = os.path.join(tmp_path, "model.npz")
    save_checkpoint(small_model(), path)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    arrays["meta"] = pack_meta({**meta, "format_version": 99})
    np.savez(path, **arrays)
    with pytest.raises(DataError, match="format version 99"):
        load_checkpoint(path)


@pytest.mark.parametrize("owner, key", [(None, "encoder"), ("encoder", "hidden_dims")])
def test_checkpoint_meta_missing_key_names_file_and_key(tmp_path, owner, key):
    path = os.path.join(tmp_path, "model.npz")
    save_checkpoint(small_model(), path)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    del (meta[owner] if owner else meta)[key]
    arrays["meta"] = pack_meta(meta)
    np.savez(path, **arrays)
    with pytest.raises(DataError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path} has no {key!r} meta key"


def test_checkpoint_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(os.path.join(tmp_path, "absent.npz"))
