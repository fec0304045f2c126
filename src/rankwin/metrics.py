"""The standard ordinal-error summaries over truth and prediction arrays."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from rankwin.errors import ConfigError, DataError, DomainError

__all__ = [
    "mae",
    "cumulative_score",
    "epsilon_error",
    "accuracy",
    "format_report",
]


def _errors(truth, pred) -> np.ndarray:
    """``pred - truth`` in float64; both must be 1-d, equally long and nonempty."""
    truth, pred = np.asarray(truth, dtype=np.float64), np.asarray(pred, dtype=np.float64)
    if truth.ndim != 1 or truth.shape != pred.shape:
        raise DataError(f"truth and prediction must be 1-d arrays of one length, "
                        f"got shapes {truth.shape} and {pred.shape}")
    if len(truth) == 0:
        raise DomainError("no evaluation instances")
    return pred - truth


def mae(truth, pred) -> float:
    """Mean absolute error in rank units."""
    return float(np.mean(np.abs(_errors(truth, pred))))


def cumulative_score(truth, pred, tolerance: int = 5) -> float:
    """Percentage of instances with |error| <= tolerance."""
    if tolerance < 0:
        raise ConfigError(f"tolerance must be >= 0, got {tolerance}")
    return float(100.0 * np.mean(np.abs(_errors(truth, pred)) <= tolerance))


def epsilon_error(truth, pred, sigma) -> float:
    """Mean of 1 - exp(-err^2 / (2 sigma^2)); ``sigma`` holds one value > 0 per instance.

    Soft accuracy that forgives errors small relative to the label's own
    uncertainty: an |error| of exactly sigma scores 1 - exp(-1/2).
    """
    err = _errors(truth, pred)
    sig = np.asarray(sigma, dtype=np.float64)
    if sig.shape != err.shape:
        raise DataError(f"epsilon error needs one sigma per instance, got shape {sig.shape}")
    if not np.all(np.isfinite(sig)) or np.any(sig <= 0):
        raise DataError("sigmas must be finite and > 0")
    return float(np.mean(1.0 - np.exp(-(err * err) / (2.0 * sig * sig))))


def accuracy(truth, pred) -> float:
    """Percentage of exact hits; identical to cumulative_score(truth, pred, 0)."""
    return float(100.0 * np.mean(_errors(truth, pred) == 0.0))


def format_report(values: Mapping[str, object]) -> str:
    """Flat key-value block, one metric per line, floats at 6 digits."""
    lines = []
    for key, value in values.items():
        if isinstance(value, float):
            lines.append(f"{key} {value:.6f}")
        else:
            lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"
