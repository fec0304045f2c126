"""Relative regressor: a shared MLP encoder plus a bounded regression head.

The same encoder embeds the input instance and both references; the head
consumes the concatenated triple of embeddings and emits an estimate in
[-1, 1] through a final tanh.  Everything is plain float64 numpy with exact
analytic backprop (the test suite checks gradients against central finite
differences), squared-error loss, and Adam updates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from rankwin.errors import (ConfigError, DataError, DigestMismatchError,
                            NumericalError, ShapeError)
from rankwin.fileio import atomic_open

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


class _Mlp:
    """Fully connected stack: ReLU hidden layers, configurable final activation."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], final: str):
        assert final in ("linear", "tanh")
        self.weights = weights
        self.biases = biases
        self.final = final

    @classmethod
    def initialize(cls, input_dim: int, layer_dims: tuple[int, ...], final: str,
                   rng: np.random.Generator) -> "_Mlp":
        weights, biases = [], []
        fan_in = input_dim
        for width in layer_dims:
            bound = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, width)))
            biases.append(np.zeros(width))
            fan_in = width
        return cls(weights, biases, final)

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
            if check is not None and not np.all(np.isfinite(a)):
                raise NumericalError(f"non-finite activations after {check} layer {i}")
            acts.append(a)
        return acts[-1], acts

    def backward(self, acts: list[np.ndarray], grad_out: np.ndarray):
        """Gradients of a scalar loss given d(loss)/d(output).

        Returns (d(loss)/d(input), parameter grads aligned with ``parameters()``).
        """
        n_layers = len(self.weights)
        grads: list[np.ndarray] = [np.empty(0)] * (2 * n_layers)
        g = grad_out
        for i in reversed(range(n_layers)):
            a_in, a_out = acts[i], acts[i + 1]
            if i == n_layers - 1 and self.final == "tanh":
                g = g * (1.0 - a_out * a_out)
            elif i < n_layers - 1:
                g = g * (a_out > 0.0)
            grads[2 * i] = a_in.T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            g = g @ self.weights[i].T
        return g, grads

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


class RelativeRegressor:
    """Predicts where an input sits between two references, in [-1, 1]."""

    def __init__(self, encoder: EncoderSpec, head: HeadSpec | None = None, seed: int = 0):
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self.encoder_spec = encoder
        self.head_spec = head if head is not None else HeadSpec()
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._encoder = _Mlp.initialize(encoder.input_dim, encoder.layer_dims, "linear", rng)
        self._head = _Mlp.initialize(3 * encoder.output_dim, self.head_spec.layer_dims, "tanh", rng)

    @property
    def input_dim(self) -> int:
        return self.encoder_spec.input_dim

    @property
    def feature_dim(self) -> int:
        return self.encoder_spec.output_dim

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays, encoder first; mutated in place by the optimizer."""
        return self._encoder.parameters() + self._head.parameters()

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
        h1 = np.maximum(part_x[None, :, :] + part_refs[:, None, :], 0.0)
        m, n, width = h1.shape
        out, _ = self._head.forward_cached(h1.reshape(m * n, width), start=1)
        return out[:, 0].reshape(m, n)

    def loss_and_gradients(self, x, y1, y2, rho_true):
        """Mean squared error over a triplet batch and exact parameter gradients."""
        xb, _ = self._as_batch(x, self.input_dim, "x")
        y1b, _ = self._as_batch(y1, self.input_dim, "y1")
        y2b, _ = self._as_batch(y2, self.input_dim, "y2")
        rho = np.atleast_1d(np.asarray(rho_true, dtype=np.float64))
        if not (len(xb) == len(y1b) == len(y2b) == len(rho)):
            raise ShapeError("triplet batch arrays must share their first dimension")
        if len(rho) == 0:
            raise ShapeError("empty batch")
        if np.any(np.abs(rho) > 1.0) or not np.all(np.isfinite(rho)):
            raise DataError("target relative ranks must lie in [-1, 1]")
        n = len(rho)
        stacked = np.vstack([xb, y1b, y2b])
        feats, enc_acts = self._encoder.forward_cached(stacked, check="encoder")
        fx, f1, f2 = np.split(feats, 3, axis=0)
        out, head_acts = self._head.forward_cached(np.hstack([fx, f1, f2]), check="head")
        pred = out[:, 0]
        loss = float(np.mean((pred - rho) ** 2))
        if not np.isfinite(loss):
            raise NumericalError("non-finite loss")
        grad_pred = (2.0 / n) * (pred - rho)
        grad_in, head_grads = self._head.backward(head_acts, grad_pred[:, None])
        _, enc_grads = self._encoder.backward(enc_acts, np.vstack(np.split(grad_in, 3, axis=1)))
        return loss, enc_grads + head_grads


@dataclass
class AdamState:
    """First/second moment accumulators, aligned with ``model.parameters()``."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_model(cls, model: RelativeRegressor) -> "AdamState":
        params = model.parameters()
        return cls(step=0,
                   m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(model: RelativeRegressor, grads: list[np.ndarray], state: AdamState,
              lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[RelativeRegressor, AdamState]:
    """One in-place Adam update with bias correction."""
    params = model.parameters()
    if len(grads) != len(params) or len(state.m) != len(params):
        raise ShapeError("gradient/state lists do not match model parameters")
    state.step += 1
    correct1 = 1.0 - beta1 ** state.step
    correct2 = 1.0 - beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps)
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
    for p in model.parameters():
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
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
    if run_id is not None:
        meta["run_id"] = run_id
    arrays = {"meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)}
    for i, p in enumerate(model.parameters()):
        arrays[f"param_{i:03d}"] = p
    if optimizer is not None:
        for i, (m, v) in enumerate(zip(optimizer.m, optimizer.v)):
            arrays[f"adam_m_{i:03d}"] = m
            arrays[f"adam_v_{i:03d}"] = v
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str, run_id: str | None = None,
                    ) -> tuple[RelativeRegressor, AdamState | None]:
    """Rebuild a model bit-exactly from :func:`save_checkpoint` output.

    With ``run_id`` the checkpoint must carry that run stamp.
    """
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {meta.get('format_version')}")
        if run_id is not None and meta.get("run_id") != run_id:
            raise DigestMismatchError(
                f"{path} belongs to run {meta.get('run_id')}, expected {run_id}")
        enc = meta["encoder"]
        model = RelativeRegressor(
            EncoderSpec(enc["input_dim"], tuple(enc["hidden_dims"]), enc["output_dim"]),
            HeadSpec(tuple(meta["head"]["layer_dims"])),
            seed=meta["seed"],
        )
        params = model.parameters()
        for i, p in enumerate(params):
            saved = data[f"param_{i:03d}"]
            if saved.shape != p.shape:
                raise DataError(f"checkpoint parameter {i} has shape {saved.shape}, expected {p.shape}")
            p[...] = saved
        optimizer = None
        if meta.get("has_optimizer"):
            optimizer = AdamState(
                step=int(meta["adam_step"]),
                m=[np.array(data[f"adam_m_{i:03d}"]) for i in range(len(params))],
                v=[np.array(data[f"adam_v_{i:03d}"]) for i in range(len(params))],
            )
    return model, optimizer
