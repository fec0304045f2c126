"""Finite-difference gradient checking utilities.

The loss surface has ReLU kinks, and zero-initialized biases make it easy
for an entire hidden row to go dead, which parks the next layer's
pre-activation exactly on a kink where central differences are invalid.
``sample_batch`` therefore resamples inputs until every ReLU pre-activation
sits further from zero than the finite-difference step can reach, using an
independent forward pass that never touches the library's own code paths.
"""

import numpy as np

from rankwin.nets import EncoderSpec, HeadSpec, RelativeRegressor

FD_EPS = 1e-5


def _layer_arrays(model):
    """Split the flat parameter list back into (weights, biases) per stack."""
    params = model.parameters()
    n_enc = len(model.encoder_spec.hidden_dims) + 1
    enc = [(params[2 * i], params[2 * i + 1]) for i in range(n_enc)]
    head = [(params[2 * (n_enc + i)], params[2 * (n_enc + i) + 1]) for i in range(3)]
    return enc, head


def reference_loss(model, x, y1, y2, rho):
    """Loss recomputed from raw parameters, plus kink margin and gain bound.

    Returns (loss, margin, amp): margin is the smallest |pre-activation|
    over every ReLU unit, amp bounds how much a parameter perturbation can
    move any pre-activation (product of spectral norms clipped below at 1).
    """
    enc, head = _layer_arrays(model)
    margin = np.inf
    amp = 1.0
    for w, _ in enc + head:
        amp *= max(1.0, np.linalg.norm(w, 2))

    def run_stack(layers, a, relu_mask):
        nonlocal margin
        for i, (w, b) in enumerate(layers):
            z = a @ w + b
            if relu_mask[i]:
                margin = min(margin, float(np.min(np.abs(z))))
                a = np.maximum(z, 0.0)
            else:
                a = z
        return a

    stacked = np.vstack([x, y1, y2])
    n_enc = len(enc)
    feats = run_stack(enc, stacked, [True] * (n_enc - 1) + [False])
    fx, f1, f2 = np.split(feats, 3, axis=0)
    out = run_stack(head[:2], np.hstack([fx, f1, f2]), [True, True])
    w, b = head[2]
    pred = np.tanh(out @ w + b)[:, 0]
    return float(np.mean((pred - rho) ** 2)), margin, amp


def sample_batch(model, rng, batch, eps=FD_EPS):
    """Draw a triplet batch whose ReLU margins survive the FD step."""
    for _ in range(200):
        x = rng.normal(size=(batch, model.input_dim))
        y1 = rng.normal(size=(batch, model.input_dim))
        y2 = rng.normal(size=(batch, model.input_dim))
        rho = rng.uniform(-1, 1, size=batch)
        _, margin, amp = reference_loss(model, x, y1, y2, rho)
        if margin > 4.0 * eps * amp:
            return x, y1, y2, rho
    raise AssertionError("could not find a kink-safe batch")


def max_relative_error(model, x, y1, y2, rho, eps=FD_EPS):
    """Worst relative disagreement between analytic and FD gradients."""
    _, grad = model.loss_and_gradients(x, y1, y2, rho)
    worst = 0.0
    flat = model.flat
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        hi, _, _ = reference_loss(model, x, y1, y2, rho)
        flat[j] = orig - eps
        lo, _, _ = reference_loss(model, x, y1, y2, rho)
        flat[j] = orig
        fd = (hi - lo) / (2.0 * eps)
        rel = abs(grad[j] - fd) / max(abs(grad[j]) + abs(fd), 1e-6)
        worst = max(worst, rel)
    return worst


def random_small_model(rng):
    """Model small enough that per-parameter FD stays cheap.

    Widths stay >= 4 so a fully dead hidden row is rare enough for
    ``sample_batch`` to escape by resampling.
    """
    input_dim = int(rng.integers(3, 7))
    hidden = tuple(int(rng.integers(4, 13)) for _ in range(int(rng.integers(1, 3))))
    encoded = int(rng.integers(4, 9))
    head = (int(rng.integers(4, 13)), int(rng.integers(4, 13)), 1)
    seed = int(rng.integers(0, 2 ** 31))
    return RelativeRegressor(EncoderSpec(input_dim, hidden, encoded),
                             HeadSpec(head), seed=seed)


def run_gradient_checks(n_models, seed=0, eps=FD_EPS):
    """Check ``n_models`` random models; returns the worst relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        model = random_small_model(rng)
        batch = int(rng.integers(2, 6))
        x, y1, y2, rho = sample_batch(model, rng, batch, eps)
        worst = max(worst, max_relative_error(model, x, y1, y2, rho, eps))
    return worst
