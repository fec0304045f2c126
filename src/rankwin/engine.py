"""Iterative rank inference: nearest-neighbour start, then window refinement.

Each iteration builds a window around the previous estimate, picks two
references spanning it, regresses the input's relative position between
them, and reconstructs a new integer estimate.  One ρ source per instance
picks and regresses: ``oracle_regress`` for the simulation oracle,
``model_regress`` for trained models.  The loop stops at a fixed
point, on a detected two-cycle (``stochastic=False`` only, where a
revisited estimate proves the cycle repeats forever), or after ``max_iter``
iterations.  The local phase reruns the loop with per-group regressors,
averaging the two candidates whenever the estimate falls where groups
overlap.

The trace is the plain data ``traces.jsonl`` stores: ``mwr_step`` returns one
step dict (``group``, ``window``, ``center``, ``ref_positions``, ``ref_ranks``,
``rho``, ``estimate``) and ``InferenceTrace.records`` one dict per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

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
    "InferenceTrace",
    "initial_estimate",
    "Regress",
    "oracle_regress",
    "model_regress",
    "mwr_step",
    "run_global",
    "run_local",
    "estimate_rank",
]

DEFAULT_MAX_ITER = 10
DEFAULT_K = 5

# a ρ source: regress(window, tag) -> (reference positions or None, low rank, high rank, ρ)
Regress = Callable[[SearchWindow, str], tuple[tuple[int, int] | None, int, int, float]]


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


@dataclass
class InferenceTrace:
    """Full history of one instance's estimate refinement; ``records`` are the
    ``{"index", "phase", "steps", "estimate"}`` dicts ``traces.jsonl`` stores."""

    initial: int
    records: list[dict] = field(default_factory=list)
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
            "iterations": self.records,
        }


def initial_estimate(db: ReferenceDatabase, feature: np.ndarray,
                     k: int = DEFAULT_K, tag: str = TAG_GLOBAL) -> int:
    """Rounded mean rank of the k nearest stored instances, clipped to domain."""
    ranks = knn_ranks(db, feature, k, tag=tag)
    return db.domain.clip(round_half_up(float(np.mean(ranks))))


def oracle_regress(oracle: OracleRegressor, truth: int, scale: RankScale,
                   instance_key: int = 0) -> Regress:
    """ρ source that knows ``truth``; the references are the window's nominal ends.

    A noisy oracle draws from one stream per ``(oracle.seed, instance_key)``.
    """
    rng = np.random.default_rng([oracle.seed, instance_key]) if oracle.stochastic else None

    def regress(window: SearchWindow, tag: str):
        low, high = window.low, window.high
        return None, low, high, oracle.rho(truth, low, high, scale, rng)
    return regress


def model_regress(db: ReferenceDatabase, scheme: SelectionScheme,
                  models: Mapping[str, RelativeRegressor],
                  queries: Mapping[str, np.ndarray]) -> Regress:
    """ρ source of trained models: ``models[tag]`` regresses ``queries[tag]``
    against the pair that ``scheme`` picks from the table for ``tag``."""

    def regress(window: SearchWindow, tag: str):
        i, j = select_references(db, window, scheme, tag)
        feats = db.features[tag]
        rho = float(models[tag].regress(queries[tag], feats[i], feats[j]))
        return (i, j), int(db.ranks[i]), int(db.ranks[j]), rho
    return regress


def mwr_step(estimate: int, regress: Regress, scale: RankScale, domain: RankRange, *,
             window_domain: RankRange | None = None, tag: str = TAG_GLOBAL,
             group: int | None = None) -> dict:
    """One refinement: window around ``estimate`` -> references -> new estimate.

    Returns the step as ``traces.jsonl`` stores it; its ``estimate`` is the
    reconstruction from the ranks of the references ``regress`` used, rounded
    half-up and clipped to the rank domain.
    """
    window = make_window(estimate, scale, window_domain or domain)
    positions, low_rank, high_rank, rho = regress(window, tag)
    value = reconstruct_rank(rho, low_rank, high_rank, scale)
    return {"group": group, "window": [window.low, window.high], "center": window.center,
            "ref_positions": list(positions) if positions else None,
            "ref_ranks": [low_rank, high_rank], "rho": rho,
            "estimate": domain.clip(round_half_up(value))}


def _refine(start: int, phase: str, steps_at: Callable[[int], list[dict]],
            domain: RankRange, max_iter: int, deterministic: bool) -> InferenceTrace:
    """The window loop of both phases, from ``start``.

    ``steps_at(estimate)`` evaluates every window around ``estimate`` and
    returns one step dict each; two step estimates average with ties
    rounding up.  Halts at a fixed point, on a two-cycle when
    ``deterministic``, or after ``max_iter`` iterations.
    """
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if start not in domain:
        raise DomainError(f"{phase} start {start} outside domain [{domain.lo}, {domain.hi}]")
    estimates = [start]
    records: list[dict] = []
    converged = False
    final = start
    for it in range(1, max_iter + 1):
        current = estimates[-1]
        steps = steps_at(current)
        new = steps[0]["estimate"] if len(steps) == 1 else \
            domain.clip(round_half_up(sum(s["estimate"] for s in steps) / len(steps)))
        records.append({"index": it, "phase": phase, "steps": steps, "estimate": new})
        if new == current:
            converged, final = True, new
            break
        if deterministic and len(estimates) >= 2 and new == estimates[-2]:
            # two-cycle: keep the estimate whose iteration regressed less
            # (mean |ρ|); records[-1] produced ``new``, an exact tie keeps it
            last, prev = (np.mean([abs(s["rho"]) for s in r["steps"]])
                          for r in (records[-1], records[-2]))
            final = new if last <= prev else current
            break
        estimates.append(new)
        final = new
    return InferenceTrace(initial=start, records=records, converged=converged,
                          final_global=final if phase == "global" else start,
                          final_local=final)


def run_global(regress: Regress, scale: RankScale, domain: RankRange, *, init: int,
               max_iter: int = DEFAULT_MAX_ITER,
               stochastic: bool = False) -> tuple[int, InferenceTrace]:
    """Iterate the global regressor from ``init``."""
    trace = _refine(init, "global", lambda e: [mwr_step(e, regress, scale, domain)],
                    domain, max_iter, not stochastic)
    return trace.final, trace


def run_local(start: int, regress: Regress, groups: Sequence[RankGroup],
              scale: RankScale, domain: RankRange, *, max_iter: int = DEFAULT_MAX_ITER,
              stochastic: bool = False) -> tuple[int, InferenceTrace]:
    """Refine ``start`` with group ``i``'s regressor (tag ``local{i}``) in windows
    clipped to its extended range, averaging the candidates in overlaps."""
    if not groups:
        raise ConfigError("local phase needs at least one group")

    def steps_at(estimate: int) -> list[dict]:
        return [mwr_step(estimate, regress, scale, domain, window_domain=groups[gi].extended_range,
                         tag=local_tag(gi), group=gi)
                for gi in groups_containing(estimate, groups)]

    trace = _refine(start, "local", steps_at, domain, max_iter, not stochastic)
    return trace.final, trace


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
        regress = oracle_regress(oracle, truth, scale, instance_key)
        stochastic, local = oracle.stochastic, bool(groups)
        init = initial_estimate(db, features, k=k, tag=TAG_RAW)
    else:
        if local_models and (not groups or len(groups) != len(local_models)):
            raise ConfigError("local models and groups must align")
        models = {TAG_GLOBAL: global_model}
        models.update((local_tag(i), m) for i, m in enumerate(local_models or ()))
        queries = {tag: m.encode(features) for tag, m in models.items()}
        regress = model_regress(db, scheme, models, queries)
        stochastic, local = False, bool(local_models)
        init = initial_estimate(db, queries[TAG_GLOBAL], k=k)
    final, trace = run_global(regress, scale, domain, init=init, max_iter=max_iter,
                              stochastic=stochastic)
    if local:
        _, ltrace = run_local(final, regress, groups, scale, domain, max_iter=max_iter,
                              stochastic=stochastic)
        trace.records += ltrace.records
        trace.converged, trace.final_local = ltrace.converged, ltrace.final_local
    return trace
