"""Error summaries over truth and prediction arrays."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankwin.errors import ConfigError, DataError, DomainError
from rankwin.metrics import (accuracy, cumulative_score, epsilon_error,
                             format_report, mae)


def arrays_from(pairs):
    """``(truth, pred)`` arrays from a list of (truth, prediction) pairs."""
    truth, pred = zip(*pairs)
    return np.array(truth), np.array(pred)


def per_record_metrics(truth, pred, sigma, tolerance):
    """The metrics as they were computed one record at a time, kept as the reference:
    each error is a Python int difference, then one float64 array of them."""
    err = np.array([int(p) - int(t) for t, p in zip(truth, pred)], dtype=np.float64)
    sig = np.array([float(s) for s in sigma], dtype=np.float64)
    return (float(np.mean(np.abs(err))),
            float(100.0 * np.mean(np.abs(err) <= tolerance)),
            float(np.mean(1.0 - np.exp(-(err * err) / (2.0 * sig * sig)))),
            float(100.0 * np.mean(err == 0.0)))


def test_mae_is_mean_absolute_error():
    truth, pred = arrays_from([(10, 12), (20, 17), (5, 5)])
    assert mae(truth, pred) == pytest.approx((2 + 3 + 0) / 3, abs=1e-15)


def test_cumulative_score_counts_within_tolerance():
    truth, pred = arrays_from([(10, 12), (20, 14), (5, 5), (8, 13)])
    assert cumulative_score(truth, pred, 5) == 75.0
    assert cumulative_score(truth, pred, 0) == 25.0
    assert cumulative_score(truth, pred, 6) == 100.0
    with pytest.raises(ConfigError):
        cumulative_score(truth, pred, -1)


def test_epsilon_error_unit_point():
    # |error| equal to sigma scores exactly 1 - exp(-1/2)
    assert epsilon_error([10], [12], [2.0]) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-15)
    assert epsilon_error([10], [10], [2.0]) == 0.0


def test_epsilon_error_requires_valid_sigmas():
    with pytest.raises(DataError, match="one sigma per instance"):
        epsilon_error([1], [2], None)
    with pytest.raises(DataError, match="finite"):
        epsilon_error([1], [2], [0.0])


@pytest.mark.parametrize("sigma, match", [
    ([2.0, 2.0], "one sigma per instance"),
    ([[2.0, 2.0, 2.0]], "one sigma per instance"),
    (2.0, "one sigma per instance"),
    ([1.0, -1.0, 1.0], "finite and > 0"),
    ([1.0, np.nan, 1.0], "finite and > 0"),
    ([1.0, np.inf, 1.0], "finite and > 0"),
], ids=["short", "2-d", "scalar", "negative", "nan", "inf"])
def test_epsilon_error_rejects_bad_sigmas(sigma, match):
    with pytest.raises(DataError, match=match):
        epsilon_error([1, 2, 3], [1, 2, 4], sigma)


def test_accuracy_equals_zero_tolerance_score():
    rng = np.random.default_rng(0)
    truth, pred = rng.integers(1, 10, size=(1000, 2)).T
    assert accuracy(truth, pred) == cumulative_score(truth, pred, 0)


@given(st.lists(st.tuples(st.integers(1, 99), st.integers(1, 99)),
                min_size=1, max_size=30))
def test_metric_ranges(pairs):
    truth, pred = arrays_from(pairs)
    assert mae(truth, pred) >= 0.0
    assert 0.0 <= accuracy(truth, pred) <= cumulative_score(truth, pred, 3) <= 100.0
    assert 0.0 <= epsilon_error(truth, pred, np.ones(len(pairs))) <= 1.0


@pytest.mark.parametrize("seed", range(20))
def test_metrics_equal_the_per_record_formula_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2000))
    truth, pred = rng.integers(1, 81, size=(2, n))
    sigma = rng.uniform(0.5, 8.0, size=n)
    tolerance = int(rng.integers(0, 10))
    assert (mae(truth, pred), cumulative_score(truth, pred, tolerance),
            epsilon_error(truth, pred, sigma), accuracy(truth, pred)) == \
        per_record_metrics(truth, pred, sigma, tolerance)


def test_empty_records_raise():
    with pytest.raises(DomainError):
        mae([], [])
    with pytest.raises(DomainError):
        accuracy(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    with pytest.raises(DomainError):
        epsilon_error([], [], [])


@pytest.mark.parametrize("truth, pred", [
    ([1, 2, 3], [1, 2]),
    ([1], []),
    ([[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    ([1, 2, 3, 4], [[1, 2], [3, 4]]),
    (3, 3),
], ids=["short-pred", "empty-pred", "both-2-d", "pred-2-d", "scalars"])
@pytest.mark.parametrize("metric", [mae, cumulative_score, accuracy,
                                    lambda t, p: epsilon_error(t, p, np.ones(np.shape(t)))],
                         ids=["mae", "cumulative_score", "accuracy", "epsilon_error"])
def test_metrics_need_two_1d_arrays_of_one_length(metric, truth, pred):
    with pytest.raises(DataError, match="1-d arrays of one length"):
        metric(truth, pred)


def test_format_report_fixes_float_precision():
    out = format_report({"mae": 1.23456789, "split": "test", "n": 10})
    assert out == "mae 1.234568\nsplit test\nn 10\n"
