"""Relative regressor: a shared MLP encoder plus a bounded regression head.

The same encoder embeds the input instance and both references; the head
consumes the triple of embeddings side by side and emits an estimate in
[-1, 1] through a final tanh.  Everything is plain float64 numpy with exact
analytic backprop (the test suite checks gradients against central finite
differences), squared-error loss, and Adam updates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from rankwin.errors import ConfigError, DataError, NumericalError, ShapeError
from rankwin.fileio import atomic_open, pack_meta, read_npz, unpack_meta

__all__ = [
    "EncoderSpec",
    "HeadSpec",
    "RelativeRegressor",
    "AdamState",
    "adam_step",
    "model_digest",
    "save_checkpoint",
    "load_checkpoint",
]

DEFAULT_HEAD_DIMS = (256, 64, 1)
CHECKPOINT_VERSION = 1
# regress_grid runs the hidden head layers over blocks of whole reference
# pairs, about GRID_BLOCK_CELLS (pair, input) cells each, so the first hidden
# layer (~1 MiB at width 256) stays in cache.  Every block's row count is a
# multiple of GRID_BLOCK_ALIGN, so only the last block has a BLAS row
# remainder, on the same rows as one product over all cells would: each cell
# comes out bit-identical to the unblocked evaluation on one BLAS thread.
GRID_BLOCK_CELLS = 512
GRID_BLOCK_ALIGN = 16


@dataclass(frozen=True)
class EncoderSpec:
    """Layer widths of the shared feature encoder (linear output layer)."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int

    def __post_init__(self) -> None:
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(not isinstance(d, int) or d < 1 for d in dims):
            raise ConfigError(f"encoder dims must be positive ints, got {dims}")
        if self.output_dim < 2:
            raise ConfigError(f"encoder output dim must be >= 2, got {self.output_dim}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (*self.hidden_dims, self.output_dim)


@dataclass(frozen=True)
class HeadSpec:
    """Widths of the three head layers; the last must be 1 (the estimate)."""

    layer_dims: tuple[int, int, int] = DEFAULT_HEAD_DIMS

    def __post_init__(self) -> None:
        if len(self.layer_dims) != 3 or self.layer_dims[-1] != 1:
            raise ConfigError(f"head needs three layers ending in width 1, got {self.layer_dims}")
        if any(not isinstance(d, int) or d < 1 for d in self.layer_dims):
            raise ConfigError(f"head dims must be positive ints, got {self.layer_dims}")


def _layer_shapes(input_dim: int, layer_dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Weight and bias shapes of a dense stack, in ``parameters()`` order."""
    shapes: list[tuple[int, ...]] = []
    fan_in = input_dim
    for width in layer_dims:
        shapes += [(fan_in, width), (width,)]
        fan_in = width
    return shapes


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive reshaped views of ``flat``, one per shape."""
    out, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        out.append(flat[lo:hi].reshape(shape))
        lo = hi
    return out


class _Mlp:
    """Fully connected stack: ReLU hidden layers, configurable final activation."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], final: str):
        assert final in ("linear", "tanh")
        self.weights = weights
        self.biases = biases
        self.final = final

    def _activate(self, z: np.ndarray, layer: int) -> np.ndarray:
        if layer < len(self.weights) - 1:
            return np.maximum(z, 0.0)
        if self.final == "tanh":
            return np.tanh(z)
        return z

    def forward_cached(self, x: np.ndarray, check: str | None = None, start: int = 0):
        """Forward pass from layer ``start``; returns the output and every activation."""
        acts = [x]
        for i in range(start, len(self.weights)):
            a = self._activate(acts[-1] @ self.weights[i] + self.biases[i], i)
            if check is not None and not np.isfinite(a).all():
                raise NumericalError(f"non-finite activations after {check} layer {i}")
            acts.append(a)
        return acts[-1], acts

    def backward(self, acts: list[np.ndarray], grad_out: np.ndarray,
                 grads: list[np.ndarray], input_grad: bool = True) -> np.ndarray | None:
        """Gradients of a scalar loss given d(loss)/d(output).

        Writes the parameter grads into ``grads``, one array per weight and
        bias in layer order, and returns d(loss)/d(input), or None without
        ``input_grad``.
        """
        n_layers = len(self.weights)
        g = grad_out
        for i in reversed(range(n_layers)):
            a_in, a_out = acts[i], acts[i + 1]
            if i == n_layers - 1 and self.final == "tanh":
                g = g * (1.0 - a_out * a_out)
            elif i < n_layers - 1:
                g = g * (a_out > 0.0)
            np.matmul(a_in.T, g, out=grads[2 * i])
            g.sum(axis=0, out=grads[2 * i + 1])
            if i == 0 and not input_grad:
                return None
            g = g @ self.weights[i].T
        return g


class RelativeRegressor:
    """Predicts where an input sits between two references, in [-1, 1]."""

    def __init__(self, encoder: EncoderSpec, head: HeadSpec | None = None, seed: int = 0):
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self.encoder_spec = encoder
        self.head_spec = head if head is not None else HeadSpec()
        self.seed = seed
        enc_shapes = _layer_shapes(encoder.input_dim, encoder.layer_dims)
        self._shapes = enc_shapes + _layer_shapes(3 * encoder.output_dim,
                                                  self.head_spec.layer_dims)
        self._n_encoder = len(enc_shapes)
        # every weight and bias is a view into this one vector, which is what
        # lets the optimizer update them all with a few whole-vector ufuncs
        self.flat = np.zeros(sum(math.prod(s) for s in self._shapes))
        params = _views(self.flat, self._shapes)
        n = self._n_encoder
        self._encoder = _Mlp(params[0:n:2], params[1:n:2], "linear")
        self._head = _Mlp(params[n::2], params[n + 1::2], "tanh")
        # uniform fan-in init, encoder then head, layer by layer; biases stay 0
        rng = np.random.default_rng(seed)
        for w in self._encoder.weights + self._head.weights:
            bound = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    @property
    def input_dim(self) -> int:
        return self.encoder_spec.input_dim

    @property
    def feature_dim(self) -> int:
        return self.encoder_spec.output_dim

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays, encoder first: views into :attr:`flat`."""
        return _views(self.flat, self._shapes)

    def _as_batch(self, arr, dim: int, name: str) -> tuple[np.ndarray, bool]:
        a = np.asarray(arr, dtype=np.float64)
        squeezed = a.ndim == 1
        if squeezed:
            a = a[None, :]
        if a.ndim != 2 or a.shape[1] != dim:
            raise ShapeError(f"{name} must have {dim} columns, got shape {np.asarray(arr).shape}")
        if not np.isfinite(a).all():
            raise DataError(f"non-finite values in {name}")
        return a, squeezed

    def encode(self, features) -> np.ndarray:
        """Embed raw feature vectors; accepts a single vector or a batch."""
        a, squeezed = self._as_batch(features, self.input_dim, "features")
        out, _ = self._encoder.forward_cached(a)
        return out[0] if squeezed else out

    def regress(self, f_x, f_y1, f_y2):
        """Relative rank estimate from already-encoded feature triples."""
        x, sx = self._as_batch(f_x, self.feature_dim, "f_x")
        y1, s1 = self._as_batch(f_y1, self.feature_dim, "f_y1")
        y2, s2 = self._as_batch(f_y2, self.feature_dim, "f_y2")
        if not (len(x) == len(y1) == len(y2)):
            raise ShapeError(f"batch sizes differ: {len(x)}, {len(y1)}, {len(y2)}")
        out = self._head.forward_cached(np.hstack([x, y1, y2]))[0][:, 0]
        return float(out[0]) if (sx and s1 and s2) else out

    def regress_grid(self, f_x: np.ndarray, f_y1: np.ndarray, f_y2: np.ndarray) -> np.ndarray:
        """Estimates for every (reference pair, input) combination.

        ``f_x`` is (n, d); ``f_y1``/``f_y2`` are (m, d) paired rows.  Returns
        an (m, n) matrix.  The first head layer splits by branch so the input
        block is computed once, which is what makes large pair tables cheap.
        The hidden layers run over blocks of whole pairs that fit in cache;
        see :data:`GRID_BLOCK_CELLS` for why the result is bit-identical to
        one product over all cells.
        """
        x, _ = self._as_batch(f_x, self.feature_dim, "f_x")
        y1, _ = self._as_batch(f_y1, self.feature_dim, "f_y1")
        y2, _ = self._as_batch(f_y2, self.feature_dim, "f_y2")
        if len(y1) != len(y2):
            raise ShapeError(f"reference batches differ: {len(y1)} vs {len(y2)}")
        d = self.feature_dim
        w1, b1 = self._head.weights[0], self._head.biases[0]
        part_x = x @ w1[:d]
        part_refs = y1 @ w1[d:2 * d] + y2 @ w1[2 * d:] + b1
        (m, width), n = part_refs.shape, len(x)
        out = np.empty((m, n))
        if n == 0:
            return out
        # fewest pairs whose n-row slabs add up to a multiple of the alignment
        step = GRID_BLOCK_ALIGN // math.gcd(n, GRID_BLOCK_ALIGN)
        pairs = max(step, GRID_BLOCK_CELLS // n // step * step)
        buf = np.empty((min(pairs, m), n, width))
        for lo in range(0, m, pairs):
            h1 = buf[:min(pairs, m - lo)]
            np.add(part_x, part_refs[lo:lo + pairs, None, :], out=h1)
            np.maximum(h1, 0.0, out=h1)
            block, _ = self._head.forward_cached(h1.reshape(-1, width), start=1)
            out[lo:lo + len(h1)] = block.reshape(len(h1), n)
        return out

    def loss_and_gradients(self, x, y1, y2, rho_true) -> tuple[float, np.ndarray]:
        """Mean squared error over a triplet batch and its exact gradient, laid out like ``flat``."""
        xb, _ = self._as_batch(x, self.input_dim, "x")
        y1b, _ = self._as_batch(y1, self.input_dim, "y1")
        y2b, _ = self._as_batch(y2, self.input_dim, "y2")
        rho = np.atleast_1d(np.asarray(rho_true, dtype=np.float64))
        if not (len(xb) == len(y1b) == len(y2b) == len(rho)):
            raise ShapeError("triplet batch arrays must share their first dimension")
        if len(rho) == 0:
            raise ShapeError("empty batch")
        if (np.abs(rho) > 1.0).any() or not np.isfinite(rho).all():
            raise DataError("target relative ranks must lie in [-1, 1]")
        n = len(rho)
        feats, enc_acts = self._encoder.forward_cached(np.vstack([xb, y1b, y2b]), check="encoder")
        # (3n, d) rows [x; y1; y2] -> (n, 3d) rows [x | y1 | y2], and back below
        d = self.feature_dim
        triples = feats.reshape(3, n, d).transpose(1, 0, 2).reshape(n, 3 * d)
        out, head_acts = self._head.forward_cached(triples, check="head")
        pred = out[:, 0]
        loss = float(np.mean((pred - rho) ** 2))
        if not np.isfinite(loss):
            raise NumericalError("non-finite loss")
        grad_pred = (2.0 / n) * (pred - rho)
        grad = np.empty_like(self.flat)
        grads = _views(grad, self._shapes)
        grad_in = self._head.backward(head_acts, grad_pred[:, None], grads[self._n_encoder:])
        grad_feats = grad_in.reshape(n, 3, d).transpose(1, 0, 2).reshape(3 * n, d)
        self._encoder.backward(enc_acts, grad_feats, grads[:self._n_encoder], input_grad=False)
        return loss, grad


class AdamState:
    """Step count, moment vectors ``m`` and ``v`` laid out like ``model.flat``, and scratch."""

    def __init__(self, size: int):
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))

    @classmethod
    def for_model(cls, model: RelativeRegressor) -> "AdamState":
        return cls(model.flat.size)


def adam_step(model: RelativeRegressor, grad: np.ndarray, state: AdamState,
              lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[RelativeRegressor, AdamState]:
    """One in-place Adam update with bias correction; ``grad`` is left unchanged.

    It runs once over the whole flat parameter vector, in the elementwise
    order of ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` after the moment
    updates, so each parameter gets the bits a per-array update would give.
    """
    p, m, v = model.flat, state.m, state.v
    if not getattr(grad, "shape", None) == m.shape == v.shape == p.shape:
        raise ShapeError(f"gradient {getattr(grad, 'shape', type(grad))} or moments {m.shape} "
                         f"do not match the flat parameters {p.shape}")
    state.step += 1
    correct1 = 1.0 - beta1 ** state.step
    correct2 = 1.0 - beta2 ** state.step
    t, u = state._scratch  # the scaled update and its denominator
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=t)
    m += t
    v *= beta2
    np.multiply(grad, grad, out=t)
    t *= 1.0 - beta2
    v += t
    np.divide(m, correct1, out=t)
    t *= lr
    np.divide(v, correct2, out=u)
    np.sqrt(u, out=u)
    u += eps
    t /= u
    p -= t
    return model, state


def _spec_meta(model: RelativeRegressor) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "seed": model.seed,
        "encoder": {
            "input_dim": model.encoder_spec.input_dim,
            "hidden_dims": list(model.encoder_spec.hidden_dims),
            "output_dim": model.encoder_spec.output_dim,
        },
        "head": {"layer_dims": list(model.head_spec.layer_dims)},
    }


def model_digest(model: RelativeRegressor) -> str:
    """Hex digest of architecture plus exact parameter bytes."""
    h = hashlib.sha256()
    h.update(json.dumps(_spec_meta(model), sort_keys=True).encode())
    h.update(model.flat.tobytes())  # the bytes of every parameter, in order
    return h.hexdigest()


def save_checkpoint(model: RelativeRegressor, path: str,
                    optimizer: AdamState | None = None,
                    run_id: str | None = None) -> None:
    """Write model (and optionally optimizer) to a single npz, atomically.

    ``run_id`` stamps the checkpoint with the manifest that produced it.
    """
    meta = _spec_meta(model)
    meta["has_optimizer"] = optimizer is not None
    if optimizer is not None:
        meta["adam_step"] = optimizer.step
    arrays = {"meta": pack_meta(meta, run_id)}
    for i, p in enumerate(model.parameters()):
        arrays[f"param_{i:03d}"] = p
    if optimizer is not None:
        moments = zip(_views(optimizer.m, model._shapes), _views(optimizer.v, model._shapes))
        for i, (m, v) in enumerate(moments):
            arrays[f"adam_m_{i:03d}"] = m
            arrays[f"adam_v_{i:03d}"] = v
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _fill_from(data, prefix: str, arrays: list[np.ndarray]) -> None:
    """Copy the saved ``{prefix}_000``, ``{prefix}_001``, ... into ``arrays`` in place."""
    for i, arr in enumerate(arrays):
        saved = data[f"{prefix}_{i:03d}"]
        if saved.shape != arr.shape:
            raise DataError(f"checkpoint {prefix} {i} has shape {saved.shape}, expected {arr.shape}")
        arr[...] = saved


def load_checkpoint(path: str, run_id: str | None = None,
                    ) -> tuple[RelativeRegressor, AdamState | None]:
    """Rebuild a model bit-exactly from :func:`save_checkpoint` output.

    With ``run_id`` the checkpoint must carry that run stamp.
    """
    data = read_npz(path)
    meta = unpack_meta(data, path, CHECKPOINT_VERSION, run_id)
    enc = meta["encoder"]
    model = RelativeRegressor(
        EncoderSpec(enc["input_dim"], tuple(enc["hidden_dims"]), enc["output_dim"]),
        HeadSpec(tuple(meta["head"]["layer_dims"])),
        seed=meta["seed"],
    )
    _fill_from(data, "param", model.parameters())
    optimizer = None
    if meta.get("has_optimizer"):
        optimizer = AdamState.for_model(model)
        optimizer.step = int(meta["adam_step"])
        _fill_from(data, "adam_m", _views(optimizer.m, model._shapes))
        _fill_from(data, "adam_v", _views(optimizer.v, model._shapes))
    return model, optimizer
