"""Relative-rank arithmetic and search-window geometry.

A rank is an integer ordinal label.  Given two reference ranks r1 < r2, the
relative rank of a value t is (t - mid) / half with mid = (r1 + r2) / 2 and
half = (r2 - r1) / 2, clamped to [-1, 1]; the clamp binds exactly when t lies
outside [r1, r2].  Reconstruction inverts the map: t = rho * half + mid.

Two scales are supported.  The arithmetic scale applies the formulas to raw
ranks and windows have a fixed integer half-width.  The geometric scale
applies them to natural-log ranks, so a fixed log half-width covers more
integer ranks at higher centers; integer window bounds come from rounding
exp(log(center) +/- tau) half-up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from rankwin.errors import ConfigError, DomainError

__all__ = [
    "ScaleKind",
    "RankRange",
    "RankScale",
    "SearchWindow",
    "round_half_up",
    "relative_rank",
    "relative_rank_array",
    "reconstruct_rank",
    "window_bounds",
    "make_window",
]


def round_half_up(x: float) -> int:
    """Round to the nearest integer with ties going up (22.5 -> 23)."""
    return int(math.floor(x + 0.5))


class ScaleKind(enum.Enum):
    ARITHMETIC = "ari"
    GEOMETRIC = "geo"


@dataclass(frozen=True, order=True)
class RankRange:
    """Closed integer interval of ranks."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
            raise ConfigError(f"rank range bounds must be ints, got ({self.lo!r}, {self.hi!r})")
        if self.lo > self.hi:
            raise ConfigError(f"empty rank range [{self.lo}, {self.hi}]")

    def __contains__(self, rank: float) -> bool:
        return self.lo <= rank <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def clip(self, value: int) -> int:
        return min(self.hi, max(self.lo, value))


@dataclass(frozen=True)
class RankScale:
    """Window parametrization: half-width tau on raw or log ranks."""

    kind: ScaleKind
    tau: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau) or self.tau <= 0:
            raise ConfigError(f"tau must be finite and positive, got {self.tau}")
        if self.kind is ScaleKind.ARITHMETIC and self.tau != math.floor(self.tau):
            # arithmetic windows step by whole ranks
            raise ConfigError(f"arithmetic tau must be integral, got {self.tau}")

    @classmethod
    def arithmetic(cls, tau: float) -> "RankScale":
        return cls(ScaleKind.ARITHMETIC, tau)

    @classmethod
    def geometric(cls, tau: float) -> "RankScale":
        return cls(ScaleKind.GEOMETRIC, tau)

    @property
    def is_geometric(self) -> bool:
        return self.kind is ScaleKind.GEOMETRIC


@dataclass(frozen=True)
class SearchWindow:
    """Integer window [low, high] produced around an estimate."""

    low: int
    high: int
    center: int

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise DomainError(f"window must satisfy low < high, got [{self.low}, {self.high}]")

    @property
    def span(self) -> int:
        return self.high - self.low


def _check_geometric_rank(rank: float) -> None:
    if rank < 1:
        raise DomainError(f"geometric scale needs ranks >= 1, got {rank}")


def relative_rank(theta_x: float, theta_y1: float, theta_y2: float, scale: RankScale) -> float:
    """Position of theta_x inside the reference window, clamped to [-1, 1].

    -1 and +1 mark the window ends; the clamp binds exactly when theta_x lies
    outside [theta_y1, theta_y2].
    """
    if not theta_y1 < theta_y2:
        raise DomainError(f"references must be strictly ordered, got ({theta_y1}, {theta_y2})")
    if scale.kind is ScaleKind.GEOMETRIC:
        _check_geometric_rank(theta_y1)
        _check_geometric_rank(theta_x)
        t1, t2, tx = math.log(theta_y1), math.log(theta_y2), math.log(theta_x)
    else:
        t1, t2, tx = float(theta_y1), float(theta_y2), float(theta_x)
    rho = (tx - (t1 + t2) / 2.0) / ((t2 - t1) / 2.0)
    return min(1.0, max(-1.0, rho))


def relative_rank_array(theta_x, theta_y1, theta_y2, scale: RankScale) -> np.ndarray:
    """Array form of :func:`relative_rank`; the arguments broadcast together.

    numpy's log can differ from :mod:`math` by an ulp, so single values go
    through the scalar form.
    """
    tx, t1, t2 = (np.asarray(v, dtype=np.float64) for v in (theta_x, theta_y1, theta_y2))
    if not np.all(t1 < t2) or (scale.is_geometric and (np.any(tx < 1) or np.any(t1 < 1))):
        raise DomainError("references must be strictly ordered, and geometric ranks >= 1")
    if scale.is_geometric:
        tx, t1, t2 = np.log(tx), np.log(t1), np.log(t2)
    return np.clip((tx - (t1 + t2) / 2.0) / ((t2 - t1) / 2.0), -1.0, 1.0)


def reconstruct_rank(rho: float, theta_y1: float, theta_y2: float, scale: RankScale) -> float:
    """Invert :func:`relative_rank`: map rho in [-1, 1] back to a (real) rank."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"relative rank must lie in [-1, 1], got {rho}")
    if not theta_y1 < theta_y2:
        raise DomainError(f"references must be strictly ordered, got ({theta_y1}, {theta_y2})")
    if scale.kind is ScaleKind.GEOMETRIC:
        _check_geometric_rank(theta_y1)
        t1, t2 = math.log(theta_y1), math.log(theta_y2)
        return math.exp(rho * ((t2 - t1) / 2.0) + (t1 + t2) / 2.0)
    t1, t2 = float(theta_y1), float(theta_y2)
    return rho * ((t2 - t1) / 2.0) + (t1 + t2) / 2.0


def window_bounds(center: int, scale: RankScale) -> tuple[int, int]:
    """Nominal window ends around ``center``: no domain clipping, no widening.

    Arithmetic: [center - tau, center + tau].  Geometric: round-half-up of
    exp(log(center) -/+ tau).
    """
    if scale.kind is ScaleKind.GEOMETRIC:
        _check_geometric_rank(center)
        axis = math.log(center)
        return (round_half_up(math.exp(axis - scale.tau)),
                round_half_up(math.exp(axis + scale.tau)))
    width = int(scale.tau)
    return center - width, center + width


def make_window(center: int, scale: RankScale, domain: RankRange) -> SearchWindow:
    """Integer search window around ``center``, clipped to ``domain``.

    The nominal :func:`window_bounds` are clipped to the domain; if clipping
    or rounding collapses the window to a point it is widened by one rank on
    whichever sides have room, keeping at least one reference on each side of
    a point window.
    """
    if center not in domain:
        raise DomainError(f"center {center} outside rank domain [{domain.lo}, {domain.hi}]")
    if len(domain) < 2:
        raise DomainError(f"domain [{domain.lo}, {domain.hi}] too small for a window")
    low, high = window_bounds(center, scale)
    low = max(low, domain.lo)
    high = min(high, domain.hi)
    if low == high:
        room_below = low - 1 >= domain.lo
        room_above = high + 1 <= domain.hi
        if room_below and room_above:
            low, high = low - 1, high + 1
        elif room_above:
            high += 1
        else:
            low -= 1
    return SearchWindow(low=low, high=high, center=center)
