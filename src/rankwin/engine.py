"""Iterative rank inference: nearest-neighbour start, then window refinement.

Each iteration builds a window around the previous estimate, picks two
references spanning it, regresses the input's relative position between
them, and reconstructs a new integer estimate.  The loop stops at a fixed
point, on a detected two-cycle (deterministic estimators only, where a
revisited estimate proves the cycle repeats forever), or after ``max_iter``
iterations.  The local phase reruns the loop with per-group regressors,
averaging the two candidates whenever the estimate falls where groups
overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from rankwin.errors import ConfigError, DomainError
from rankwin.nets import RelativeRegressor
from rankwin.partition import RankGroup, groups_containing
from rankwin.refdb import (ReferenceDatabase, SelectionScheme, TAG_GLOBAL,
                           TAG_RAW, knn_ranks, local_tag, select_references)
from rankwin.windows import (RankRange, RankScale, SearchWindow, make_window,
                             reconstruct_rank, relative_rank, round_half_up)

__all__ = [
    "OracleRegressor",
    "StepRecord",
    "IterationRecord",
    "InferenceTrace",
    "initial_estimate",
    "mwr_step",
    "run_global",
    "run_local",
    "combine_traces",
    "estimate_rank",
]

DEFAULT_MAX_ITER = 10
DEFAULT_K = 5


@dataclass(frozen=True)
class OracleRegressor:
    """Estimator that knows the true rank; optionally corrupted by noise.

    Isolates the window dynamics from model quality.  With noise, draws come
    from the generator passed per call, so runs stay reproducible.
    """

    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def stochastic(self) -> bool:
        return self.noise_std > 0

    def rho(self, truth: int, low_rank: int, high_rank: int, scale: RankScale,
            rng: np.random.Generator | None = None) -> float:
        value = relative_rank(truth, low_rank, high_rank, scale)
        if self.noise_std > 0:
            if rng is None:
                raise ConfigError("noisy oracle needs an rng")
            value = float(np.clip(value + rng.normal(0.0, self.noise_std), -1.0, 1.0))
        return value


@dataclass(frozen=True)
class StepRecord:
    """One window evaluation: references used, estimate produced."""

    group: int | None
    window: SearchWindow
    ref_positions: tuple[int, int] | None
    ref_ranks: tuple[int, int]
    rho: float
    estimate: int

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "window": [self.window.low, self.window.high],
            "center": self.window.center,
            "ref_positions": list(self.ref_positions) if self.ref_positions else None,
            "ref_ranks": list(self.ref_ranks),
            "rho": self.rho,
            "estimate": self.estimate,
        }


@dataclass(frozen=True)
class IterationRecord:
    """One refinement iteration; two steps when groups overlap."""

    index: int
    phase: str
    steps: tuple[StepRecord, ...]
    estimate: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "phase": self.phase,
            "steps": [s.to_dict() for s in self.steps],
            "estimate": self.estimate,
        }

    @property
    def mean_abs_rho(self) -> float:
        return float(np.mean([abs(s.rho) for s in self.steps]))


@dataclass
class InferenceTrace:
    """Full history of one instance's estimate refinement."""

    initial: int
    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    final_global: int = 0
    final_local: int = 0

    @property
    def final(self) -> int:
        return self.final_local

    @property
    def iterations(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return {
            "initial": self.initial,
            "converged": self.converged,
            "final_global": self.final_global,
            "final_local": self.final_local,
            "iterations": [r.to_dict() for r in self.records],
        }


def initial_estimate(db: ReferenceDatabase, feature: np.ndarray,
                     k: int = DEFAULT_K, tag: str = TAG_GLOBAL) -> int:
    """Rounded mean rank of the k nearest stored instances, clipped to domain."""
    ranks = knn_ranks(db, feature, k, tag=tag)
    return db.domain.clip(round_half_up(float(np.mean(ranks))))


def _is_oracle(estimator) -> bool:
    return hasattr(estimator, "rho")


def mwr_step(estimate: int, estimator, db: ReferenceDatabase | None,
             scale: RankScale, scheme: SelectionScheme | None, domain: RankRange, *,
             window_domain: RankRange | None = None, tag: str = TAG_GLOBAL,
             group: int | None = None, query: np.ndarray | None = None,
             truth: int | None = None,
             rng: np.random.Generator | None = None) -> tuple[int, StepRecord]:
    """One refinement: window around ``estimate`` -> references -> new estimate.

    Oracle estimators use the window's nominal endpoints as references (the
    oracle knows true ranks, so no instances are needed); model estimators
    require a database with a pair table for ``tag`` plus the query encoded
    by that same model.  The reconstruction uses the ranks of the references
    actually used, then rounds half-up and clips to the rank domain.
    """
    window = make_window(estimate, scale, window_domain or domain)
    if _is_oracle(estimator):
        if truth is None:
            raise ConfigError("oracle step needs the true rank")
        positions = None
        low_rank, high_rank = window.low, window.high
        rho = estimator.rho(truth, low_rank, high_rank, scale, rng)
    else:
        if db is None or scheme is None or query is None:
            raise ConfigError("model step needs a database, a scheme, and an encoded query")
        i, j = select_references(db, window, scheme, tag)
        positions = (i, j)
        low_rank, high_rank = int(db.ranks[i]), int(db.ranks[j])
        rho = float(estimator.regress(query, db.features[tag][i], db.features[tag][j]))
    value = reconstruct_rank(rho, low_rank, high_rank, scale)
    new = domain.clip(round_half_up(value))
    record = StepRecord(group=group, window=window, ref_positions=positions,
                        ref_ranks=(low_rank, high_rank), rho=rho, estimate=new)
    return new, record


def _finish_cycle(records: list[IterationRecord], estimates: list[int],
                  new: int) -> int:
    """Two-cycle halt: keep the estimate whose iteration regressed less.

    ``new`` equals estimates[-2]; records[-1] produced ``new`` and
    records[-2] produced estimates[-1].  Exact tie keeps the later estimate.
    """
    if records[-1].mean_abs_rho <= records[-2].mean_abs_rho:
        return new
    return estimates[-1]


def run_global(estimator, db: ReferenceDatabase | None, scale: RankScale,
               scheme: SelectionScheme | None, domain: RankRange, *,
               query: np.ndarray | None = None, truth: int | None = None,
               init: int | None = None, k: int = DEFAULT_K,
               max_iter: int = DEFAULT_MAX_ITER, tag: str = TAG_GLOBAL,
               rng: np.random.Generator | None = None) -> tuple[int, InferenceTrace]:
    """Iterate the global regressor from ``init`` (or a kNN start)."""
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if init is None:
        if db is None or query is None:
            raise ConfigError("need a database and query feature for a kNN start")
        init = initial_estimate(db, query, k=k, tag=tag)
    if init not in domain:
        raise DomainError(f"initial estimate {init} outside domain [{domain.lo}, {domain.hi}]")
    deterministic = not getattr(estimator, "stochastic", False)
    estimates = [init]
    records: list[IterationRecord] = []
    converged = False
    final = init
    for it in range(1, max_iter + 1):
        new, step = mwr_step(estimates[-1], estimator, db, scale, scheme, domain,
                             tag=tag, query=query, truth=truth, rng=rng)
        records.append(IterationRecord(index=it, phase="global", steps=(step,), estimate=new))
        if new == estimates[-1]:
            converged, final = True, new
            break
        if deterministic and len(estimates) >= 2 and new == estimates[-2]:
            final = _finish_cycle(records, estimates, new)
            break
        estimates.append(new)
        final = new
    trace = InferenceTrace(initial=init, records=records, converged=converged,
                           final_global=final, final_local=final)
    return final, trace


def run_local(start: int, estimators, groups: Sequence[RankGroup],
              db: ReferenceDatabase | None, scale: RankScale,
              scheme: SelectionScheme | None, domain: RankRange, *,
              queries: Mapping[str, np.ndarray] | None = None,
              truth: int | None = None, max_iter: int = DEFAULT_MAX_ITER,
              rng: np.random.Generator | None = None) -> tuple[int, InferenceTrace]:
    """Refine ``start`` with per-group regressors, averaging in overlaps.

    ``estimators`` is either a sequence aligned with ``groups`` or a single
    oracle used for every group.  Model estimators read their encoded query
    from ``queries[local{i}]``.  Windows are clipped to each group's
    extended range; a two-candidate iteration averages with ties rounding up.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if start not in domain:
        raise DomainError(f"estimate {start} outside domain [{domain.lo}, {domain.hi}]")
    if not groups:
        raise ConfigError("local phase needs at least one group")
    single_oracle = _is_oracle(estimators)
    if not single_oracle and len(estimators) != len(groups):
        raise ConfigError(f"{len(groups)} groups but {len(estimators)} local estimators")
    deterministic = (not getattr(estimators, "stochastic", False)) if single_oracle else True
    estimates = [start]
    records: list[IterationRecord] = []
    converged = False
    final = start
    for it in range(1, max_iter + 1):
        current = estimates[-1]
        steps = []
        candidates = []
        for gi in groups_containing(current, list(groups)):
            group = groups[gi]
            estimator = estimators if single_oracle else estimators[gi]
            tag = local_tag(gi)
            query = None if queries is None else queries.get(tag)
            cand, step = mwr_step(current, estimator, db, scale, scheme, domain,
                                  window_domain=group.extended_range, tag=tag,
                                  group=gi, query=query, truth=truth, rng=rng)
            steps.append(step)
            candidates.append(cand)
        new = candidates[0] if len(candidates) == 1 else \
            domain.clip(round_half_up(float(np.mean(candidates))))
        records.append(IterationRecord(index=it, phase="local",
                                       steps=tuple(steps), estimate=new))
        if new == current:
            converged, final = True, new
            break
        if deterministic and len(estimates) >= 2 and new == estimates[-2]:
            final = _finish_cycle(records, estimates, new)
            break
        estimates.append(new)
        final = new
    trace = InferenceTrace(initial=start, records=records, converged=converged,
                           final_global=start, final_local=final)
    return final, trace


def combine_traces(global_trace: InferenceTrace,
                   local_trace: InferenceTrace | None) -> InferenceTrace:
    """Merge phase traces into one instance-level history."""
    if local_trace is None:
        return global_trace
    return InferenceTrace(
        initial=global_trace.initial,
        records=global_trace.records + local_trace.records,
        converged=local_trace.converged,
        final_global=global_trace.final_global,
        final_local=local_trace.final_local,
    )


def estimate_rank(features: np.ndarray, *, db: ReferenceDatabase,
                  scale: RankScale, scheme: SelectionScheme, domain: RankRange,
                  global_model: RelativeRegressor | None = None,
                  local_models: Sequence[RelativeRegressor] | None = None,
                  groups: Sequence[RankGroup] | None = None,
                  oracle: OracleRegressor | None = None, truth: int | None = None,
                  k: int = DEFAULT_K, max_iter: int = DEFAULT_MAX_ITER,
                  instance_key: int = 0) -> InferenceTrace:
    """Full pipeline for one instance: kNN start, global phase, local phase.

    Either ``global_model`` (with optional locals) or ``oracle`` drives the
    refinement.  Oracle runs take their kNN start from raw features stored
    under the ``raw`` tag and use nominal window endpoints as references.
    """
    if (global_model is None) == (oracle is None):
        raise ConfigError("need exactly one of global_model or oracle")
    if oracle is not None:
        if truth is None:
            raise ConfigError("oracle inference needs the true rank")
        rng = np.random.default_rng([oracle.seed, instance_key]) if oracle.stochastic else None
        init = initial_estimate(db, features, k=k, tag=TAG_RAW)
        final, gtrace = run_global(oracle, db, scale, None, domain, truth=truth,
                                   init=init, max_iter=max_iter, rng=rng)
        ltrace = None
        if groups:
            final, ltrace = run_local(final, oracle, groups, db, scale, None, domain,
                                      truth=truth, max_iter=max_iter, rng=rng)
        return combine_traces(gtrace, ltrace)
    query = global_model.encode(features)
    final, gtrace = run_global(global_model, db, scale, scheme, domain,
                               query=query, k=k, max_iter=max_iter)
    ltrace = None
    if local_models:
        if not groups or len(groups) != len(local_models):
            raise ConfigError("local models and groups must align")
        queries = {local_tag(i): m.encode(features) for i, m in enumerate(local_models)}
        final, ltrace = run_local(final, list(local_models), groups, db, scale,
                                  scheme, domain, queries=queries, max_iter=max_iter)
    return combine_traces(gtrace, ltrace)
