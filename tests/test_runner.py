"""Experiment configs, per-trial verification, and batch summaries."""

import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import causalcomb
from causalcomb import cli, combs, runner
from causalcomb.combs import gen_signaling_comb
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


@pytest.mark.parametrize(
    "section, typo",
    [("generator", "dM"), ("algorithm", "detla"), ("oracle", "mod")],
)
def test_config_rejects_stray_section_keys(section, typo):
    """A misspelt key would otherwise run with the default it meant to replace."""
    data = {
        "generator": {"kind": "unitary", "n": 2},
        "algorithm": {"name": "general", "delta": 0.5},
        "oracle": {"mode": "sampled"},
    }
    data[section] = {**data[section], typo: 1}
    with pytest.raises(ConfigError, match=f"unknown {section} keys: \\['{typo}'\\]"):
        ExperimentConfig.from_dict(data)


def test_config_refuses_kappa_target():
    with pytest.raises(ConfigError, match="unknown algorithm keys: \\['kappa_target'\\]"):
        ExperimentConfig(
            generator={"kind": "memoryless", "n": 2},
            algorithm={"name": "memoryless", "kappa_target": 0.1},
        )


@pytest.mark.parametrize(
    "name, key",
    [("memoryless", "kappa"), ("totalorder", "delta"), ("general", "threshold"), ("general", "povm")],
)
def test_config_and_dispatch_refuse_keys_the_named_algorithm_never_reads(name, key):
    """Such a key would run and change nothing, so it is refused, not ignored."""
    match = f"unknown algorithm keys: \\['{key}'\\]"
    alg = {"name": name, key: 0.5}
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(generator={"kind": "memoryless", "n": 3}, algorithm=alg)
    spec = generate_comb({"kind": "memoryless", "n": 2}, np.random.default_rng(0))
    session = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    with pytest.raises(ConfigError, match=match):
        dispatch(session, spec, alg)
    assert session.query_count == 0


def test_config_accepts_every_key_the_named_algorithm_reads():
    for name, keys in runner.ALGORITHM_KEYS.items():
        alg = {"name": name, **{k: kind(1) for k, (kind, _) in keys.items()}}
        assert ExperimentConfig(generator={"kind": "unitary"}, algorithm=alg).algorithm == alg


#: A value of the right type for each key some generator kind reads.
GENERATOR_VALUES = {
    "n": 3, "d": 2, "d_M": 4, "constant_tooth": True, "corr_floor": 0.9, "dressed": False,
}
#: Every (kind, key) pair the kind's table lacks.
REFUSED = [(k, key) for k, t in runner.GENERATOR_KEYS.items() for key in GENERATOR_VALUES
           if key not in t]


def test_the_generator_tables_hold_eleven_of_thirty_pairs():
    assert {k for t in runner.GENERATOR_KEYS.values() for k in t} == set(GENERATOR_VALUES)
    assert sum(map(len, runner.GENERATOR_KEYS.values())) == 11 and len(REFUSED) == 19


@pytest.mark.parametrize("kind, key", REFUSED)
def test_a_generator_key_its_kind_does_not_read_is_a_config_error(kind, key, tmp_path, capsys):
    """Such a key used to be accepted and build a comb without it."""
    data = {
        "generator": {"kind": kind, key: GENERATOR_VALUES[key]},
        "algorithm": {"name": "general"},
        "trials": 1,
    }
    takes = ("kind", *runner.GENERATOR_KEYS[kind])
    message = f"unknown generator keys: ['{key}'] (generator '{kind}' takes {takes})"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(data)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data))
    assert cli.main(["bench", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "gen, keys",
    [
        ({"kind": "fig3", "n": 7, "d": 3, "d_M": 8}, ["d", "d_M", "n"]),
        ({"kind": "memoryless", "d_M": 4}, ["d_M"]),
        (
            {"kind": "unitary", "constant_tooth": True, "corr_floor": 0.9, "dressed": False},
            ["constant_tooth", "corr_floor", "dressed"],
        ),
        ({"kind": "signaling", "n": 5}, ["n"]),
    ],
)
def test_generator_sections_that_built_another_comb_are_refused(gen, keys):
    """``fig3`` with ``n: 7`` built the fixed 3-tooth comb, and so on."""
    match = re.escape(f"unknown generator keys: {keys}")
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(generator=gen, algorithm={"name": "general"})
    with pytest.raises(ConfigError, match=match):
        generate_comb(gen, np.random.default_rng(0))


def test_each_generator_key_reaches_its_comb():
    def gen(**section):
        return generate_comb(section, np.random.default_rng(3))

    unitary = gen(kind="unitary", n=3, d=3, d_M=1)
    assert (unitary.n, unitary.wire_dim, unitary.memory_dim) == (3, 3, 1)
    assert gen(kind="totalorder", d_M=3).memory_dim == 3
    plain, constant = gen(kind="memoryless", n=3), gen(kind="memoryless", n=3, constant_tooth=True)
    assert (plain.memory_dim, constant.memory_dim) == (1, 2)
    assert constant.metadata["generator"] == "memoryless+constant"
    assert gen(kind="totalorder", corr_floor=0.3).metadata["achieved_chi_min"] >= 0.3
    bare = gen_signaling_comb(None).unitaries
    undressed = gen(kind="signaling", dressed=False).unitaries
    assert all(np.array_equal(u, v) for u, v in zip(undressed, bare))
    assert not np.allclose(gen(kind="signaling").unitaries[0], bare[0])


def test_every_kind_states_only_the_defaults_it_reads():
    """A memoryless section used to state ``"d_M": 2, "dressed": True``."""
    filled = {
        "unitary": {"n": 2, "d": 2, "d_M": 2}, "memoryless": {"n": 2, "d": 2},
        "totalorder": {"n": 2, "d": 2, "d_M": 2}, "signaling": {"dressed": True}, "fig3": {},
    }
    for kind, defaults in filled.items():
        config = ExperimentConfig(generator={"kind": kind}, algorithm={"name": "general"})
        assert config.generator == {"kind": kind, **defaults}


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


@pytest.mark.parametrize("workers, trials, started", [(64, 2, 2), (1, 3, 1), (3, 3, 3)])
def test_the_pool_starts_no_more_workers_than_trials(monkeypatch, workers, trials, started):
    """On fork, a pool launches all its workers at the first submit."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = ExperimentConfig(
        generator={"kind": "unitary", "n": 2, "d_M": 1},
        algorithm={"name": "general"},
        trials=trials,
        workers=workers,
    )
    assert len(run_experiment(cfg).results) == trials
    assert sizes == [started]


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


def test_fractional_shot_budget_is_a_config_error(tmp_path, capsys):
    """1000.5 shots is refused, not silently cut to 1000; 1e5 is a whole number."""
    base = dict(generator={"kind": "memoryless", "n": 2}, oracle={"mode": "sampled"})
    with pytest.raises(ConfigError, match="whole number"):
        ExperimentConfig(algorithm={"name": "memoryless", "n_shots": 1000.5}, **base)
    ExperimentConfig(algorithm={"name": "memoryless", "n_shots": 1e5}, **base)
    spec = generate_comb({"kind": "memoryless", "n": 2}, np.random.default_rng(0))
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=1))
    with pytest.raises(ConfigError, match="whole number"):
        dispatch(session, spec, {"name": "memoryless", "n_shots": 1000.5})
    assert session.query_count == 0
    cfg = tmp_path / "half_shot.json"
    cfg.write_text(json.dumps({**base, "algorithm": {"name": "memoryless", "n_shots": 1000.5}}))
    assert cli.main(["bench", str(cfg)]) == 2
    assert "whole number" in capsys.readouterr().err


@pytest.mark.parametrize("n_shots", [-5, True, False])
def test_negative_or_boolean_shot_budget_is_a_config_error(n_shots, tmp_path, capsys):
    """Even where no shot is drawn or billed: exact mode under the actual policy."""
    base = dict(generator={"kind": "memoryless", "n": 2}, trials=1)
    alg = {"name": "memoryless", "n_shots": n_shots}
    with pytest.raises(ConfigError, match="non-negative whole number"):
        ExperimentConfig(algorithm=alg, **base)
    spec = generate_comb(base["generator"], np.random.default_rng(0))
    with pytest.raises(ConfigError, match="non-negative whole number"):
        dispatch(OracleSession(spec), spec, alg)
    cfg = tmp_path / "bad_budget.json"
    cfg.write_text(json.dumps({**base, "algorithm": alg}))
    assert cli.main(["bench", str(cfg)]) == 2
    assert "non-negative whole number" in capsys.readouterr().err
    # 0 still names no budget
    assert run_trial(ExperimentConfig(algorithm={**alg, "n_shots": 0}, **base), 0).ok


def test_general_trial_verifies_past_the_dense_cap():
    """n = 6 with a qubit memory: the dense Choi alone would be 256 MB."""
    config = ExperimentConfig(
        generator={"kind": "unitary", "n": 6, "d_M": 2}, algorithm={"name": "general"}, trials=1
    )
    tracemalloc.start()
    try:
        result = run_trial(config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok, result.failure
    assert result.worst_deviation <= 1e-9
    assert peak < 32 * 2**20


@pytest.mark.parametrize("cap", [2**20, 2**21])
def test_a_trial_past_the_checker_cap_keeps_its_order_unverified(monkeypatch, cap):
    """n = 8 with a qubit memory: discovery runs, but the prefix-3 deviation
    would have 2^22 entries, over the cap.  A raised cap used to end the run,
    since the refusal was told apart by the text of the default cap."""
    monkeypatch.setattr(combs, "MAX_ENTRIES", cap)
    config = ExperimentConfig(
        generator={"kind": "unitary", "n": 8, "d_M": 2}, algorithm={"name": "general"}, trials=1
    )
    result = run_trial(config, 0)
    spec = generate_comb(config.generator, np.random.default_rng([config.seed, 0]))
    assert not result.ok
    assert result.order == spec.true_order
    assert result.worst_deviation is None
    assert result.failure == (
        "not verified: the prefix-3 deviation would have 4194304 entries, "
        f"over the cap of {cap}"
    )


def test_only_the_checker_size_refusal_leaves_a_trial_unverified(monkeypatch):
    """Any other refusal from the checker still ends the run."""

    def refuse(*args, **kwargs):
        raise ValueError("order does not cover the Choi wires")

    monkeypatch.setattr(runner, "check_comb_condition", refuse)
    config = ExperimentConfig(generator={"kind": "unitary"}, algorithm={"name": "general"})
    with pytest.raises(ValueError, match="does not cover"):
        run_trial(config, 0)


def test_verification_never_builds_the_dense_choi():
    """The emitted order is checked on the spec, so it is not capped at n = 5."""
    for module in (runner, cli):
        assert "build_choi" not in inspect.getsource(module), module.__name__


def test_importing_the_library_loads_no_process_pool():
    """The pool is imported only by a run with workers, not by every process."""
    code = (
        "import sys, causalcomb; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(causalcomb.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "section, entries",
    [
        ("generator", {"n": 2.7}),
        ("generator", {"constant_tooth": "no"}),
        ("generator", {"kind": "unitary", "d_M": True}),
        ("generator", {"kind": 5}),
        ("generator", {"kind": "totalorder", "corr_floor": "x"}),
        ("generator", {"kind": "signaling", "dressed": 1}),
        ("algorithm", {"povm": 5}),
        ("algorithm", {"threshold": [0.1]}),
        ("algorithm", {"name": "general", "delta": "1e-6"}),
        ("oracle", {"mode": True}),
        (None, {"trials": True}),
        (None, {"trials": 2.5}),
        (None, {"seed": 1.5}),
        (None, {"success_tol": "a"}),
    ],
)
def test_a_value_of_the_wrong_type_is_a_config_error(section, entries, tmp_path, capsys):
    """Such a value used to run another config (``"n": 2.7`` ran two teeth,
    ``bool("no")`` is true) or end in a traceback; now it exits 2."""
    data = {"generator": {"kind": "memoryless"}, "algorithm": {"name": "memoryless"}, "trials": 1}
    if section is None:
        data.update(entries)
    else:
        data[section] = {**data.get(section, {}), **entries}
    key = list(entries)[-1]  # any entry before it picks the table that holds it
    with pytest.raises(ConfigError, match=rf"\b{key} must be"):
        ExperimentConfig.from_dict(data)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data))
    assert cli.main(["bench", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert f"{key} must be" in err


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("inf")])
def test_a_success_tol_that_is_not_positive_and_finite_is_a_config_error(tol, tmp_path, capsys):
    """At infinity every emitted order counted as verified."""
    data = {"generator": {"kind": "unitary"}, "algorithm": {"name": "general"},
            "trials": 1, "success_tol": tol}
    with pytest.raises(ConfigError, match="success_tol must be a positive finite number"):
        ExperimentConfig.from_dict(data)
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps(data))  # inf is written as Infinity
    assert cli.main(["bench", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "success_tol must be a positive finite number" in err


def test_config_holds_typed_values_with_defaults_filled_in():
    config = ExperimentConfig(
        generator={"kind": "memoryless", "n": 3.0},
        algorithm={"name": "memoryless", "n_shots": 1e5},
        oracle={"mode": "sampled"},
        trials=2.0,
        success_tol=1,
    )
    assert config.generator == {"kind": "memoryless", "n": 3, "d": 2}
    assert config.algorithm == {"name": "memoryless", "n_shots": 100_000, "threshold": 0.1}
    assert type(config.algorithm["n_shots"]) is int and type(config.trials) is int
    assert type(config.success_tol) is float
    assert ExperimentConfig(**vars(config)) == config
    summary = run_experiment(config)
    assert summary.line().startswith("2/2 trials succeeded")
