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
from rankwin.engine import (OracleRegressor, estimate_rank, initial_estimate,
                            model_regress, mwr_step, oracle_regress, run_global,
                            run_local)
from rankwin.errors import ConfigError, DomainError
from rankwin.nets import EncoderSpec, HeadSpec, RelativeRegressor
from rankwin.partition import RankGroup
from rankwin.refdb import (TABLE_COLUMNS, TAG_GLOBAL, TAG_RAW, SelectionKind,
                           SelectionScheme, build_database, local_tag)
from rankwin.windows import RankRange, RankScale, make_window

ARI3 = RankScale.arithmetic(3)
GEO = RankScale.geometric(0.1)
DOMAIN = RankRange(1, 80)
MIN_SCHEME = SelectionScheme(SelectionKind.MIN_ERROR)


def scripted(values):
    """A ρ source that plays back ``values`` between the window's nominal ends."""
    values = list(values)

    def regress(window, tag):
        return None, window.low, window.high, values.pop(0)
    return regress


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
    step = mwr_step(30, oracle_regress(OracleRegressor(), 22, ARI3), ARI3, DOMAIN)
    assert step["estimate"] == 27
    assert step["window"][0] == 27 and step["window"][1] == 33
    assert step["ref_ranks"] == [27, 33]
    assert step["ref_positions"] is None
    assert step["rho"] == -1.0
    near = mwr_step(24, oracle_regress(OracleRegressor(), 22, ARI3), ARI3, DOMAIN)
    assert near["estimate"] == 22  # window (21, 27) covers the truth, lands exactly
    assert near["rho"] == pytest.approx(-2 / 3, abs=1e-15)


def test_noiseless_oracle_converges_to_truth_in_bound():
    oracle = OracleRegressor()
    final, trace = run_global(oracle_regress(oracle, 22, ARI3), ARI3, DOMAIN, init=40)
    assert final == 22
    assert trace.converged
    assert trace.iterations == 7  # six full-width moves plus the confirm step
    assert [r["estimate"] for r in trace.records] == [37, 34, 31, 28, 25, 22, 22]
    for truth, init in [(5, 70), (80, 1), (33, 33), (60, 59)]:
        final, trace = run_global(oracle_regress(oracle, truth, ARI3), ARI3, DOMAIN,
                                  init=init, max_iter=40)
        assert final == truth
        bound = int(np.ceil(abs(init - truth) / 3)) + 1
        assert trace.converged and trace.iterations <= bound


def test_noiseless_oracle_converges_geometrically_too():
    oracle = OracleRegressor()
    rng = np.random.default_rng(7)
    for _ in range(25):
        truth = int(rng.integers(1, 81))
        init = int(rng.integers(1, 81))
        final, trace = run_global(oracle_regress(oracle, truth, GEO), GEO, DOMAIN,
                                  init=init, max_iter=60)
        assert final == truth
        assert trace.converged


def run_phase(phase, regress, max_iter=10, stochastic=False):
    """Run one phase from 30; the local phase uses a single group spanning
    the domain, so both phases evaluate the same windows."""
    if phase == "global":
        return run_global(regress, ARI3, DOMAIN, init=30, max_iter=max_iter,
                          stochastic=stochastic)
    return run_local(30, regress, [RankGroup(0, 1, 80, 1, 80)], ARI3, DOMAIN,
                     max_iter=max_iter, stochastic=stochastic)


@pytest.mark.parametrize("phase", ["global", "local"])
def test_two_cycle_keeps_smaller_rho_estimate(phase):
    # 30 -> 31 on rho 0.2, then 31 -> 30 on rho -0.34: the second iteration
    # regressed harder, so the halt keeps 31
    final, trace = run_phase(phase, scripted([0.2, -0.34]))
    assert [r["estimate"] for r in trace.records] == [31, 30]
    assert final == 31
    assert not trace.converged


@pytest.mark.parametrize("phase", ["global", "local"])
def test_two_cycle_tie_keeps_later_estimate(phase):
    final, trace = run_phase(phase, scripted([1 / 3, -1 / 3]))
    assert final == 30
    assert not trace.converged


@pytest.mark.parametrize("phase", ["global", "local"])
def test_stochastic_estimator_disables_cycle_guard(phase):
    values = [0.2, -0.34] * 5  # would two-cycle forever
    final, trace = run_phase(phase, scripted(values), max_iter=6, stochastic=True)
    assert trace.iterations == 6
    assert not trace.converged
    assert final == trace.records[-1]["estimate"]


def test_run_global_validation():
    regress = oracle_regress(OracleRegressor(), 5, ARI3)
    with pytest.raises(DomainError):
        run_global(regress, ARI3, DOMAIN, init=99)
    with pytest.raises(ConfigError):
        run_global(regress, ARI3, DOMAIN, init=5, max_iter=0)


def test_noisy_oracle_is_reproducible_per_seed():
    oracle = OracleRegressor(noise_std=0.2, seed=4)
    runs = []
    for _ in range(2):
        final, trace = run_global(oracle_regress(oracle, 30, ARI3, instance_key=123),
                                  ARI3, DOMAIN, init=50, stochastic=True)
        runs.append((final, [r["estimate"] for r in trace.records]))
    assert runs[0] == runs[1]


GROUPS = [RankGroup(0, 5, 14, 1, 14), RankGroup(1, 12, 30, 8, 34)]


def test_local_overlap_averages_the_group_candidates():
    # truth 15 from start 13: group 0's window clips to its extension
    # (10, 14) and saturates to 14; group 1 regresses 2/3 into (10, 16)
    # giving 15; the rounded mean of (14, 15) is 15
    final, trace = run_local(13, oracle_regress(OracleRegressor(), 15, ARI3), GROUPS,
                             ARI3, DOMAIN)
    first = trace.records[0]
    assert [s["group"] for s in first["steps"]] == [0, 1]
    assert [s["window"][0] for s in first["steps"]] == [10, 10]
    assert [s["window"][1] for s in first["steps"]] == [14, 16]
    assert [s["estimate"] for s in first["steps"]] == [14, 15]
    assert first["estimate"] == 15
    # 15 sits only in group 1's core; one more step confirms the fixed point
    assert final == 15
    assert trace.converged
    assert [s["group"] for s in trace.records[1]["steps"]] == [1]


def test_local_single_group_runs_alone():
    final, trace = run_local(25, oracle_regress(OracleRegressor(), 28, ARI3), GROUPS,
                             ARI3, DOMAIN)
    assert final == 28
    assert all(s["group"] == 1 for r in trace.records for s in r["steps"])
    assert trace.final_global == 25  # local trace keeps its entry estimate


def test_local_validation():
    regress = oracle_regress(OracleRegressor(), 10, ARI3)
    with pytest.raises(ConfigError, match="at least one group"):
        run_local(10, regress, [], ARI3, DOMAIN)
    with pytest.raises(DomainError):
        run_local(99, regress, GROUPS, ARI3, DOMAIN)


# an oracle run on ranks 1..40 whose two groups overlap on 18..22; the query
# sits at rank 27 on the raw axis, so the kNN start is 27 and the truth is 20
PIN_GROUPS = [RankGroup(0, 1, 22, 1, 26), RankGroup(1, 18, 40, 14, 40)]
PIN_QUERY = np.array([27.0, 0.0, 0.0, 0.0])


def pinned_oracle_trace(noise_std, instance_key=2):
    ds = rank_dataset(list(range(1, 41)) * 2, seed=3)
    db = build_database(ds, {TAG_RAW: None}, ARI3, ds.rank_domain)
    return estimate_rank(PIN_QUERY, db=db, scale=ARI3, scheme=MIN_SCHEME,
                         domain=ds.rank_domain, groups=PIN_GROUPS, k=3, max_iter=4,
                         oracle=OracleRegressor(noise_std=noise_std, seed=2), truth=20,
                         instance_key=instance_key), db


def oracle_step(group, window, rho, estimate):
    """One step's trace JSON for an oracle: the references are the window's ends."""
    return {"group": group, "window": window, "center": (window[0] + window[1]) // 2,
            "ref_positions": None, "ref_ranks": window, "rho": rho, "estimate": estimate}


def iteration(index, phase, steps, estimate):
    return {"index": index, "phase": phase, "steps": steps, "estimate": estimate}


@pytest.mark.parametrize("noise_std, expected", [
    (0.0, {"initial": 27, "converged": True, "final_global": 20, "final_local": 20,
           "iterations": [
               iteration(1, "global", [oracle_step(None, [24, 30], -1.0, 24)], 24),
               iteration(2, "global", [oracle_step(None, [21, 27], -1.0, 21)], 21),
               iteration(3, "global", [oracle_step(None, [18, 24], -1 / 3, 20)], 20),
               iteration(4, "global", [oracle_step(None, [17, 23], 0.0, 20)], 20),
               iteration(1, "local", [oracle_step(0, [17, 23], 0.0, 20),
                                      oracle_step(1, [17, 23], 0.0, 20)], 20)]}),
    # the global phase runs out of iterations at 21; the local phase settles on 20
    (0.2, {"initial": 27, "converged": True, "final_global": 21, "final_local": 20,
           "iterations": [
               iteration(1, "global", [oracle_step(None, [24, 30], -0.9086497471138247, 24)], 24),
               iteration(2, "global", [oracle_step(None, [21, 27], -0.8307924088040706, 22)], 22),
               iteration(3, "global", [oracle_step(None, [19, 25], -0.6613884988475673, 20)], 20),
               iteration(4, "global", [oracle_step(None, [17, 23], 0.3071495580400818, 21)], 21),
               iteration(1, "local", [oracle_step(0, [18, 24], -0.5230017696392093, 19),
                                      oracle_step(1, [18, 24], -0.02263115040330571, 21)], 20),
               iteration(2, "local", [oracle_step(0, [17, 23], 0.04529458830519124, 20),
                                      oracle_step(1, [17, 23], 0.07054329848411815, 20)], 20)]}),
], ids=["noiseless", "noisy"])
def test_estimate_rank_oracle_trace_is_pinned(noise_std, expected):
    trace, _ = pinned_oracle_trace(noise_std)
    assert trace.to_dict() == expected


def test_estimate_rank_chains_the_phases():
    oracle = OracleRegressor(noise_std=0.2, seed=2)
    trace, db = pinned_oracle_trace(oracle.noise_std)
    # the same phases by hand, on one ρ source so the noise stream carries over
    regress = oracle_regress(oracle, 20, ARI3, instance_key=2)
    init = initial_estimate(db, PIN_QUERY, k=3, tag=TAG_RAW)
    mid, gtrace = run_global(regress, ARI3, db.domain, init=init, max_iter=4,
                             stochastic=True)
    final, ltrace = run_local(mid, regress, PIN_GROUPS, ARI3, db.domain, max_iter=4,
                              stochastic=True)
    assert (mid, final, gtrace.converged, ltrace.converged) == (21, 20, False, True)
    assert trace.initial == init
    assert trace.final_global == mid
    assert (trace.final, trace.converged) == (final, ltrace.converged)
    assert trace.records == gtrace.records + ltrace.records


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
        phases = [r["phase"] for r in trace.records]
        assert phases == sorted(phases)  # all global records before local
        for record in trace.records:
            for step in record["steps"]:
                assert step["ref_positions"] is not None
                assert step["ref_ranks"][0] < step["ref_ranks"][1]
                assert -1.0 <= step["rho"] <= 1.0
        blob = json.dumps(trace.to_dict(), sort_keys=True)
        assert json.loads(blob)["initial"] == trace.initial


@pytest.mark.parametrize("kind", [SelectionKind.MIN_ERROR, SelectionKind.MAX_ERROR])
def test_model_regress_uses_the_table_pair(trained_setup, kind):
    ds, db, scale, domain, groups, gm, locals_ = trained_setup
    models = {TAG_GLOBAL: gm, local_tag(1): locals_[1]}
    queries = {tag: m.encode(ds.features[3]) for tag, m in models.items()}
    regress = model_regress(db, SelectionScheme(kind), models, queries)
    prefix = "min" if kind is SelectionKind.MIN_ERROR else "max"
    for tag, center, window_domain in [(TAG_GLOBAL, 6, domain),
                                       (local_tag(1), 8, groups[1].extended_range)]:
        window = make_window(center, scale, window_domain)
        row = dict(zip(TABLE_COLUMNS, db.tables[tag].rows[window.center]))
        i, j = row[f"{prefix}_i"], row[f"{prefix}_j"]
        feats = db.features[tag]
        assert regress(window, tag) == (
            (i, j), int(db.ranks[i]), int(db.ranks[j]),
            float(models[tag].regress(queries[tag], feats[i], feats[j])))


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
    assert {r["phase"] for r in trace.records} == {"global", "local"}


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
