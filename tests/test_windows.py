"""Relative-rank arithmetic and window geometry.

Expected values below were frozen from hand calculations: rho is symmetric
affine in its input ((22-23)/3 = -1/3 for references 20 and 26), and window
bounds follow from round-half-up of exp(log(center) +/- tau).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankwin.errors import ConfigError, DomainError
from rankwin.windows import (RankRange, RankScale, make_window,
                             reconstruct_rank, relative_rank,
                             relative_rank_array, round_half_up, window_bounds)

ARI3 = RankScale.arithmetic(3)
GEO = RankScale.geometric(0.1)
DOMAIN = RankRange(1, 100)


def test_round_half_up_ties_go_up():
    assert round_half_up(22.5) == 23
    assert round_half_up(22.4999) == 22
    assert round_half_up(-0.5) == 0
    assert round_half_up(7.0) == 7


def test_relative_rank_interior_value():
    assert relative_rank(22, 20, 26, ARI3) == pytest.approx(-1 / 3, abs=1e-15)
    assert relative_rank(23, 20, 26, ARI3) == 0.0
    assert relative_rank(26, 20, 26, ARI3) == 1.0


def test_relative_rank_clamps_outside_window():
    assert relative_rank(30, 20, 26, ARI3) == 1.0
    assert relative_rank(2, 20, 26, ARI3) == -1.0


def test_relative_rank_geometric_uses_log_ranks():
    # log(22) against the log midpoint of (20, 26)
    expected = (math.log(22) - (math.log(20) + math.log(26)) / 2) / \
        ((math.log(26) - math.log(20)) / 2)
    assert relative_rank(22, 20, 26, GEO) == pytest.approx(expected, abs=1e-15)


def test_relative_rank_rejects_bad_references():
    with pytest.raises(DomainError):
        relative_rank(22, 26, 20, ARI3)
    with pytest.raises(DomainError):
        relative_rank(22, 20, 20, ARI3)
    with pytest.raises(DomainError):
        relative_rank(22, 0, 20, GEO)


def test_reconstruct_inverts_relative_rank():
    assert reconstruct_rank(-1 / 3, 20, 26, ARI3) == pytest.approx(22.0, abs=1e-12)
    assert reconstruct_rank(0.0, 20, 26, ARI3) == 23.0
    assert reconstruct_rank(1.0, 20, 26, ARI3) == 26.0


def test_reconstruct_rejects_out_of_range_rho():
    with pytest.raises(DomainError):
        reconstruct_rank(1.5, 20, 26, ARI3)


def test_arithmetic_tau_must_be_integral():
    with pytest.raises(ConfigError):
        RankScale.arithmetic(2.5)
    with pytest.raises(ConfigError):
        RankScale.arithmetic(0)
    with pytest.raises(ConfigError):
        RankScale.geometric(-0.1)


EXACT_SCALES = [RankScale.arithmetic(2), RankScale.arithmetic(3), RankScale.arithmetic(5),
                RankScale.geometric(0.1), RankScale.geometric(0.2)]


@pytest.mark.parametrize("scale", EXACT_SCALES, ids=lambda s: f"{s.kind.value}{s.tau:g}")
def test_array_relative_rank_equals_scalar_exactly(scale):
    # every (x, low, high) with low < high in domain 1..80
    low, high = (a.ravel() for a in np.meshgrid(np.arange(1, 81), np.arange(1, 81)))
    keep = low < high
    low, high = low[keep], high[keep]
    for x in range(1, 81):
        got = relative_rank_array(x, low, high, scale)
        want = [relative_rank(x, lo, hi, scale) for lo, hi in zip(low.tolist(), high.tolist())]
        assert np.array_equal(got, np.array(want)), f"x={x}"


@pytest.mark.parametrize("scale", EXACT_SCALES, ids=lambda s: f"{s.kind.value}{s.tau:g}")
def test_window_bounds_equal_array_evaluation_and_make_window(scale):
    centers = np.arange(1, 81)
    if scale.is_geometric:
        axis = np.log(centers)
        lows = np.floor(np.exp(axis - scale.tau) + 0.5).astype(np.int64)
        highs = np.floor(np.exp(axis + scale.tau) + 0.5).astype(np.int64)
    else:
        lows, highs = centers - int(scale.tau), centers + int(scale.tau)
    wide = RankRange(-100, 1000)
    for c, lo, hi in zip(centers.tolist(), lows.tolist(), highs.tolist()):
        assert window_bounds(c, scale) == (lo, hi)
        if lo < hi:
            w = make_window(c, scale, wide)
            assert (w.low, w.high) == (lo, hi)


def test_relative_rank_array_rejects_bad_references():
    with pytest.raises(DomainError):
        relative_rank_array(np.array([3, 4]), 5, np.array([6, 5]), ARI3)
    with pytest.raises(DomainError):
        relative_rank_array(np.array([0, 4]), 2, 6, GEO)


def test_window_examples():
    w = make_window(60, GEO, DOMAIN)
    assert (w.low, w.high, w.span) == (54, 66, 12)
    w = make_window(23, ARI3, RankRange(3, 85))
    assert (w.low, w.high) == (20, 26)
    # small centers collapse toward narrow spans under the geometric scale
    w = make_window(13, GEO, DOMAIN)
    assert (w.low, w.high) == (12, 14)


def test_window_clips_to_domain():
    w = make_window(2, ARI3, RankRange(1, 80))
    assert (w.low, w.high) == (1, 5)
    w = make_window(79, ARI3, RankRange(1, 80))
    assert (w.low, w.high) == (76, 80)


def test_window_widens_when_collapsed():
    # rounding collapses tiny geometric windows to a point; keep both sides
    w = make_window(1, GEO, RankRange(1, 80))
    assert w.low < w.high and w.low >= 1
    w = make_window(3, GEO, RankRange(1, 80))
    assert w.low < w.high
    assert w.low <= 3 <= w.high
    # interior collapse widens both directions
    w = make_window(10, RankScale.geometric(0.01), RankRange(1, 80))
    assert (w.low, w.high) == (9, 11)


def test_window_rejects_center_outside_domain():
    with pytest.raises(DomainError):
        make_window(0, ARI3, RankRange(1, 80))
    with pytest.raises(DomainError):
        make_window(81, ARI3, RankRange(1, 80))


def test_rank_range_validation_and_clip():
    with pytest.raises(ConfigError):
        RankRange(5, 4)
    r = RankRange(1, 80)
    assert r.clip(0) == 1 and r.clip(99) == 80 and r.clip(40) == 40
    assert 80 in r and 81 not in r
    assert len(r) == 80


scales = st.one_of(
    st.integers(1, 10).map(RankScale.arithmetic),
    st.floats(0.01, 0.5, allow_nan=False).map(RankScale.geometric),
)


@given(scale=scales,
       y1=st.integers(1, 500), width=st.integers(1, 100),
       t=st.floats(0.0, 1.0, allow_nan=False))
def test_round_trip_within_tolerance(scale, y1, width, t):
    y2 = y1 + width
    x = y1 + t * width
    rho = relative_rank(x, y1, y2, scale)
    back = reconstruct_rank(rho, y1, y2, scale)
    assert abs(back - x) <= 1e-12 * max(1.0, abs(x))


@given(scale=scales, y1=st.integers(1, 500), width=st.integers(1, 100),
       x=st.floats(1.0, 700.0, allow_nan=False))
def test_sign_matches_side_of_midpoint(scale, y1, width, x):
    y2 = y1 + width
    rho = relative_rank(x, y1, y2, scale)
    assert -1.0 <= rho <= 1.0
    if scale.is_geometric:
        mid = math.exp((math.log(y1) + math.log(y2)) / 2)
    else:
        mid = (y1 + y2) / 2
    if x > mid:
        assert rho > 0
    elif x < mid:
        assert rho < 0


@given(scale=scales, y1=st.integers(1, 500), width=st.integers(1, 100),
       x1=st.floats(1.0, 700.0), x2=st.floats(1.0, 700.0))
def test_monotone_in_input(scale, y1, width, x1, x2):
    y2 = y1 + width
    lo, hi = min(x1, x2), max(x1, x2)
    assert relative_rank(lo, y1, y2, scale) <= relative_rank(hi, y1, y2, scale)


@given(tau=st.sampled_from([0.05, 0.075, 0.1, 0.125, 0.2]),
       c1=st.integers(1, 400), c2=st.integers(1, 400))
def test_geometric_span_monotone_in_center(tau, c1, c2):
    scale = RankScale.geometric(tau)
    domain = RankRange(1, 2000)
    lo, hi = min(c1, c2), max(c1, c2)
    assert make_window(lo, scale, domain).span <= make_window(hi, scale, domain).span


@given(center=st.integers(1, 80), tau=st.integers(1, 10))
def test_arithmetic_window_exact_width_inside_domain(center, tau):
    domain = RankRange(-100, 200)
    w = make_window(center, RankScale.arithmetic(tau), domain)
    assert w.span == 2 * tau
    assert w.low == center - tau


@settings(max_examples=200)
@given(center=st.integers(5, 300), tau=st.floats(0.01, 0.5),
       lo=st.integers(1, 5), hi=st.integers(301, 400))
def test_window_always_valid_and_contains_center_region(center, tau, lo, hi):
    # center >= 5 >= lo keeps the center inside every drawn domain
    w = make_window(center, RankScale.geometric(tau), RankRange(lo, hi))
    assert lo <= w.low < w.high <= hi
