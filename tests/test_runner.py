"""Experiment configs, per-trial verification, and batch summaries."""

import numpy as np
import pytest

from causalcomb.oracle import OracleConfig, OracleSession
from causalcomb.runner import (
    ConfigError,
    ExperimentConfig,
    dispatch,
    generate_comb,
    run_experiment,
    run_trial,
)


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        ExperimentConfig(generator={"kind": "socks"}, algorithm={"name": "general"})


def test_config_rejects_missing_shots_for_sampled_tables():
    with pytest.raises(ConfigError, match="n_shots"):
        ExperimentConfig(
            generator={"kind": "unitary"},
            algorithm={"name": "memoryless"},
            oracle={"mode": "sampled"},
        )


@pytest.mark.parametrize(
    "oracle, match",
    [({"mode": "fuzzy"}, "mode 'fuzzy'"), ({"query_policy": "maybe"}, "query policy 'maybe'")],
)
def test_config_rejects_bad_oracle_settings(oracle, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(
            generator={"kind": "unitary"}, algorithm={"name": "general"}, oracle=oracle
        )


def test_from_dict_rejects_stray_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(
            {"generator": {"kind": "unitary"}, "algorithm": {"name": "general"}, "x": 1}
        )


def test_generate_comb_dispatch():
    rng = np.random.default_rng(0)
    assert generate_comb({"kind": "unitary", "n": 3, "d_M": 1}, rng).n == 3
    assert generate_comb({"kind": "fig3"}, rng).memory_dim == 16
    assert generate_comb({"kind": "signaling"}, rng).n == 2


def test_trials_are_reproducible():
    cfg = ExperimentConfig(
        generator={"kind": "unitary", "n": 2, "d_M": 2},
        algorithm={"name": "general"},
        trials=1,
        seed=5,
    )
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    assert a.order == b.order
    assert a.ok and b.ok
    # a different trial index draws a different comb
    c = run_trial(cfg, 1)
    assert c.ok


def test_run_experiment_summary_counts():
    cfg = ExperimentConfig(
        generator={"kind": "memoryless", "n": 3},
        algorithm={"name": "memoryless", "threshold": 0.1},
        trials=4,
        seed=2,
    )
    summary = run_experiment(cfg)
    assert summary.trials == 4
    assert summary.successes == 4
    assert summary.ok
    assert summary.success_rate == 1.0
    assert len(summary.results) == 4
    assert "4/4" in summary.line()


def test_run_experiment_with_workers_matches_serial():
    cfg = ExperimentConfig(
        generator={"kind": "unitary", "n": 2, "d_M": 1},
        algorithm={"name": "general"},
        trials=3,
        seed=9,
    )
    serial = run_experiment(cfg)
    parallel = run_experiment(
        ExperimentConfig(**{**vars(cfg), "workers": 2})
    )
    assert [r.order for r in serial.results] == [r.order for r in parallel.results]


def test_theoretical_exact_run_bills_the_named_budget():
    base = dict(generator={"kind": "memoryless", "n": 3}, trials=1, seed=3)
    theoretical = {"query_policy": "theoretical"}
    named = ExperimentConfig(
        algorithm={"name": "memoryless", "n_shots": 12_345}, oracle=theoretical, **base
    )
    result = run_trial(named, 0)
    assert result.ok
    assert result.queries == 12_345
    # exact mode under the actual policy draws and bills nothing, so it needs no budget
    unnamed = ExperimentConfig(algorithm={"name": "memoryless"}, **base)
    assert run_trial(unnamed, 0).queries == 0
    with pytest.raises(ConfigError, match="n_shots"):
        ExperimentConfig(algorithm={"name": "memoryless"}, oracle=theoretical, **base)


def test_dispatch_refuses_an_unnamed_budget_it_would_bill():
    spec = generate_comb({"kind": "memoryless", "n": 2}, np.random.default_rng(0))
    session = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    with pytest.raises(ConfigError, match="n_shots"):
        dispatch(session, spec, {"name": "memoryless"})
    assert session.query_count == 0
