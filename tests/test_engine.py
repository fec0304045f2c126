"""Window refinement dynamics: oracle runs, cycle handling, local averaging.

The noiseless oracle gives closed-form dynamics: each step moves the
estimate by at most one half-width toward the truth (clamped rho is -1 or
+1) and lands exactly on it once the window covers it, so iteration counts
and finals are predictable.
"""

import json

import numpy as np
import pytest

from rankwin.data import Dataset
from rankwin.engine import (InferenceTrace, OracleRegressor, combine_traces,
                            estimate_rank, initial_estimate, mwr_step,
                            run_global, run_local)
from rankwin.errors import ConfigError, DomainError
from rankwin.nets import EncoderSpec, HeadSpec, RelativeRegressor
from rankwin.partition import RankGroup
from rankwin.refdb import (TAG_GLOBAL, TAG_RAW, SelectionKind, SelectionScheme,
                           build_database, local_tag)
from rankwin.windows import RankRange, RankScale

ARI3 = RankScale.arithmetic(3)
GEO = RankScale.geometric(0.1)
DOMAIN = RankRange(1, 80)
MIN_SCHEME = SelectionScheme(SelectionKind.MIN_ERROR)


class ScriptedRho:
    """Plays back a fixed rho sequence; duck-types as a deterministic oracle."""

    def __init__(self, values, stochastic=False):
        self.values = list(values)
        self.stochastic = stochastic

    def rho(self, truth, low_rank, high_rank, scale, rng=None):
        return self.values.pop(0)


def rank_dataset(ranks, feature_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    ranks = np.asarray(ranks, dtype=np.int64)
    features = rng.normal(size=(len(ranks), feature_dim))
    features[:, 0] = ranks.astype(float)
    return Dataset(ids=tuple(f"i{i:03d}" for i in range(len(ranks))),
                   features=features,
                   ranks=ranks,
                   sigmas=None,
                   splits=np.array(["train"] * len(ranks)),
                   rank_domain=RankRange(int(ranks.min()), int(ranks.max())))


def test_oracle_rho_matches_relative_rank():
    oracle = OracleRegressor()
    assert oracle.rho(22, 20, 26, ARI3) == pytest.approx(-1 / 3, abs=1e-15)
    assert not oracle.stochastic
    noisy = OracleRegressor(noise_std=5.0, seed=1)
    assert noisy.stochastic
    rng = np.random.default_rng(0)
    draws = [noisy.rho(22, 20, 26, ARI3, rng) for _ in range(50)]
    assert all(-1.0 <= d <= 1.0 for d in draws)
    assert len(set(draws)) > 1
    with pytest.raises(ConfigError):
        noisy.rho(22, 20, 26, ARI3)
    with pytest.raises(ConfigError):
        OracleRegressor(noise_std=-0.1)
    with pytest.raises(ConfigError):
        OracleRegressor(noise_std=float("nan"))


def test_initial_estimate_averages_neighbor_ranks():
    ds = Dataset(ids=tuple("abcde"),
                 features=np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]),
                 ranks=np.array([10, 20, 30, 40, 50]),
                 sigmas=None,
                 splits=np.array(["train"] * 5),
                 rank_domain=RankRange(10, 50))
    db = build_database(ds, {TAG_RAW: None}, ARI3, ds.rank_domain)
    assert initial_estimate(db, np.array([1.0]), k=3, tag=TAG_RAW) == 20
    assert initial_estimate(db, np.array([1.0]), k=2, tag=TAG_RAW) == 15
    assert initial_estimate(db, np.array([1.0]), k=1, tag=TAG_RAW) == 10


def test_mwr_step_oracle_clamps_and_moves_one_width():
    new, record = mwr_step(30, OracleRegressor(), None, ARI3, None, DOMAIN, truth=22)
    assert new == 27
    assert record.window.low == 27 and record.window.high == 33
    assert record.ref_ranks == (27, 33)
    assert record.ref_positions is None
    assert record.rho == -1.0
    near, rec = mwr_step(24, OracleRegressor(), None, ARI3, None, DOMAIN, truth=22)
    assert near == 22  # window (21, 27) covers the truth, lands exactly
    assert rec.rho == pytest.approx(-2 / 3, abs=1e-15)


def test_mwr_step_validates_inputs():
    with pytest.raises(ConfigError, match="true rank"):
        mwr_step(30, OracleRegressor(), None, ARI3, None, DOMAIN)
    model = RelativeRegressor(EncoderSpec(4, (8,), 4), HeadSpec((8, 4, 1)))
    with pytest.raises(ConfigError, match="database"):
        mwr_step(30, model, None, ARI3, MIN_SCHEME, DOMAIN)


def test_noiseless_oracle_converges_to_truth_in_bound():
    oracle = OracleRegressor()
    final, trace = run_global(oracle, None, ARI3, None, DOMAIN, truth=22, init=40)
    assert final == 22
    assert trace.converged
    assert trace.iterations == 7  # six full-width moves plus the confirm step
    assert [r.estimate for r in trace.records] == [37, 34, 31, 28, 25, 22, 22]
    for truth, init in [(5, 70), (80, 1), (33, 33), (60, 59)]:
        final, trace = run_global(oracle, None, ARI3, None, DOMAIN,
                                  truth=truth, init=init, max_iter=40)
        assert final == truth
        bound = int(np.ceil(abs(init - truth) / 3)) + 1
        assert trace.converged and trace.iterations <= bound


def test_noiseless_oracle_converges_geometrically_too():
    oracle = OracleRegressor()
    rng = np.random.default_rng(7)
    for _ in range(25):
        truth = int(rng.integers(1, 81))
        init = int(rng.integers(1, 81))
        final, trace = run_global(oracle, None, GEO, None, DOMAIN,
                                  truth=truth, init=init, max_iter=60)
        assert final == truth
        assert trace.converged


def test_two_cycle_keeps_smaller_rho_estimate():
    # 30 -> 31 on rho 0.2, then 31 -> 30 on rho -0.34: the second iteration
    # regressed harder, so the halt keeps 31
    final, trace = run_global(ScriptedRho([0.2, -0.34]), None, ARI3, None,
                              DOMAIN, truth=30, init=30)
    assert [r.estimate for r in trace.records] == [31, 30]
    assert final == 31
    assert not trace.converged


def test_two_cycle_tie_keeps_later_estimate():
    final, trace = run_global(ScriptedRho([1 / 3, -1 / 3]), None, ARI3, None,
                              DOMAIN, truth=30, init=30)
    assert final == 30
    assert not trace.converged


def test_stochastic_estimator_disables_cycle_guard():
    values = [0.2, -0.34] * 5  # would two-cycle forever
    final, trace = run_global(ScriptedRho(values, stochastic=True), None, ARI3,
                              None, DOMAIN, truth=30, init=30, max_iter=6)
    assert trace.iterations == 6
    assert not trace.converged
    assert final == trace.records[-1].estimate


def test_run_global_validation():
    with pytest.raises(DomainError):
        run_global(OracleRegressor(), None, ARI3, None, DOMAIN, truth=5, init=99)
    with pytest.raises(ConfigError):
        run_global(OracleRegressor(), None, ARI3, None, DOMAIN, truth=5,
                   init=5, max_iter=0)
    with pytest.raises(ConfigError, match="kNN start"):
        run_global(OracleRegressor(), None, ARI3, None, DOMAIN, truth=5)


def test_noisy_oracle_is_reproducible_per_seed():
    oracle = OracleRegressor(noise_std=0.2, seed=4)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng([oracle.seed, 123])
        final, trace = run_global(oracle, None, ARI3, None, DOMAIN,
                                  truth=30, init=50, rng=rng)
        runs.append((final, [r.estimate for r in trace.records]))
    assert runs[0] == runs[1]


GROUPS = [RankGroup(0, 5, 14, 1, 14), RankGroup(1, 12, 30, 8, 34)]


def test_local_overlap_averages_the_group_candidates():
    # truth 15 from start 13: group 0's window clips to its extension
    # (10, 14) and saturates to 14; group 1 regresses 2/3 into (10, 16)
    # giving 15; the rounded mean of (14, 15) is 15
    final, trace = run_local(13, OracleRegressor(), GROUPS, None, ARI3, None,
                             DOMAIN, truth=15)
    first = trace.records[0]
    assert [s.group for s in first.steps] == [0, 1]
    assert [s.window.low for s in first.steps] == [10, 10]
    assert [s.window.high for s in first.steps] == [14, 16]
    assert [s.estimate for s in first.steps] == [14, 15]
    assert first.estimate == 15
    # 15 sits only in group 1's core; one more step confirms the fixed point
    assert final == 15
    assert trace.converged
    assert [s.group for s in trace.records[1].steps] == [1]


def test_local_single_group_runs_alone():
    final, trace = run_local(25, OracleRegressor(), GROUPS, None, ARI3, None,
                             DOMAIN, truth=28)
    assert final == 28
    assert all(s.group == 1 for r in trace.records for s in r.steps)
    assert trace.final_global == 25  # local trace keeps its entry estimate


def test_local_validation():
    oracle = OracleRegressor()
    with pytest.raises(ConfigError, match="at least one group"):
        run_local(10, oracle, [], None, ARI3, None, DOMAIN, truth=10)
    with pytest.raises(DomainError):
        run_local(99, oracle, GROUPS, None, ARI3, None, DOMAIN, truth=10)
    with pytest.raises(ConfigError, match="local estimators"):
        run_local(10, [oracle], GROUPS, None, ARI3, None, DOMAIN, truth=10)


def test_combine_traces_merges_phases():
    g = InferenceTrace(initial=40, converged=True, final_global=30, final_local=30)
    l = InferenceTrace(initial=30, converged=False, final_global=30, final_local=28)
    merged = combine_traces(g, l)
    assert merged.initial == 40
    assert merged.final == 28
    assert merged.final_global == 30
    assert not merged.converged
    assert combine_traces(g, None) is g


@pytest.fixture(scope="module")
def trained_setup():
    ds = rank_dataset(list(range(1, 13)) * 3, seed=9)
    domain = ds.rank_domain
    groups = [RankGroup(0, 1, 6, 1, 9), RankGroup(1, 5, 12, 2, 12)]
    gm = RelativeRegressor(EncoderSpec(4, (8,), 4), HeadSpec((8, 4, 1)), seed=1)
    locals_ = [RelativeRegressor(EncoderSpec(4, (8,), 4), HeadSpec((8, 4, 1)), seed=s)
               for s in (2, 3)]
    models = {TAG_GLOBAL: gm}
    models.update({local_tag(i): m for i, m in enumerate(locals_)})
    scale = RankScale.arithmetic(2)
    db = build_database(ds, models, scale, domain, groups=groups, alpha=3, seed=0)
    return ds, db, scale, domain, groups, gm, locals_


def test_estimate_rank_model_trace_invariants(trained_setup):
    ds, db, scale, domain, groups, gm, locals_ = trained_setup
    for i in (0, 7, 20):
        trace = estimate_rank(ds.features[i], db=db, scale=scale,
                              scheme=MIN_SCHEME, domain=domain,
                              global_model=gm, local_models=locals_,
                              groups=groups, k=3, max_iter=6)
        assert trace.final == trace.final_local
        assert trace.initial in domain
        assert trace.final in domain
        phases = [r.phase for r in trace.records]
        assert phases == sorted(phases)  # all global records before local
        for record in trace.records:
            for step in record.steps:
                assert step.ref_positions is not None
                assert step.ref_ranks[0] < step.ref_ranks[1]
                assert -1.0 <= step.rho <= 1.0
        blob = json.dumps(trace.to_dict(), sort_keys=True)
        assert json.loads(blob)["initial"] == trace.initial


def test_estimate_rank_is_deterministic(trained_setup):
    ds, db, scale, domain, groups, gm, locals_ = trained_setup
    kwargs = dict(db=db, scale=scale, scheme=MIN_SCHEME, domain=domain,
                  global_model=gm, local_models=locals_, groups=groups, k=3)
    a = estimate_rank(ds.features[4], **kwargs)
    b = estimate_rank(ds.features[4], **kwargs)
    assert a.to_dict() == b.to_dict()


def test_estimate_rank_oracle_mode(trained_setup):
    ds, db, scale, domain, groups, _, _ = trained_setup
    db_raw = build_database(rank_dataset(list(range(1, 13)) * 3, seed=9),
                            {TAG_RAW: None}, scale, domain)
    trace = estimate_rank(ds.features[5], db=db_raw, scale=scale,
                          scheme=MIN_SCHEME, domain=domain,
                          oracle=OracleRegressor(), truth=int(ds.ranks[5]),
                          groups=groups)
    assert trace.final == int(ds.ranks[5])
    assert {r.phase for r in trace.records} == {"global", "local"}


def test_estimate_rank_requires_exactly_one_estimator(trained_setup):
    ds, db, scale, domain, groups, gm, _ = trained_setup
    with pytest.raises(ConfigError, match="exactly one"):
        estimate_rank(ds.features[0], db=db, scale=scale, scheme=MIN_SCHEME,
                      domain=domain)
    with pytest.raises(ConfigError, match="exactly one"):
        estimate_rank(ds.features[0], db=db, scale=scale, scheme=MIN_SCHEME,
                      domain=domain, global_model=gm, oracle=OracleRegressor())
    with pytest.raises(ConfigError, match="true rank"):
        estimate_rank(ds.features[0], db=db, scale=scale, scheme=MIN_SCHEME,
                      domain=domain, oracle=OracleRegressor())
    with pytest.raises(ConfigError, match="align"):
        estimate_rank(ds.features[0], db=db, scale=scale, scheme=MIN_SCHEME,
                      domain=domain, global_model=gm,
                      local_models=[gm], groups=groups)
