"""End-to-end command-line behavior, driven through main() in-process."""

import argparse
import dataclasses
import json
import re
import time

import pytest

from causalcomb import cli
from causalcomb.cli import format_order, main, parse_order
from causalcomb.combs import tooth
from causalcomb.runner import (
    ALGORITHM_KEYS,
    GENERATOR_KEYS,
    ORACLE_KEYS,
    RunSummary,
    TrialResult,
    dispatch,
)
from causalcomb.serialize import load_comb


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_order_string_roundtrip():
    order = (("A2", "B1"), ("A1", "B2"))
    assert parse_order(format_order(order)) == order
    with pytest.raises(ValueError):
        parse_order("A1B1")
    with pytest.raises(ValueError):
        parse_order("A1:")


def test_a_parsed_order_is_made_of_the_shared_teeth():
    order = parse_order("A2:B1, A1:B2")
    assert order == (("A2", "B1"), ("A1", "B2"))
    assert all(pair is tooth(*pair) for pair in order)


def test_gen_writes_loadable_comb(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, out, _ = run(
        capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(path)
    )
    assert code == 0
    assert "true-order=" in out
    spec = load_comb(path)
    assert spec.n == 2


def test_gen_honors_out_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CAUSALCOMB_OUT_DIR", str(tmp_path / "deep"))
    code, out, _ = run(capsys, "gen", "--kind", "signaling", "--seed", "1")
    assert code == 0
    written = list((tmp_path / "deep").glob("*.json"))
    assert len(written) == 1


def test_discover_verify_roundtrip(capsys, tmp_path):
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "3", "--seed", "5", "-o", str(path))
    code, out, _ = run(capsys, "discover", str(path), "--verify")
    assert code == 0
    assert "order:" in out and "valid" in out


def test_discover_verify_past_the_checker_cap_is_a_failed_check(capsys, tmp_path):
    """An emitted order too large to check used to exit 2, as a config error
    does; ``verify`` on the same comb still exits 2, since the check is the
    command there."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "8", "--d", "2", "--d-M", "2", "--seed", "3",
        "-o", str(path))
    code, out, err = run(capsys, "discover", str(path), "--verify")
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert lines[-2].startswith("order:")
    assert lines[-1] == (
        "verify:    not verified: the prefix-3 deviation would have 4194304 entries, "
        "over the cap of 1048576"
    )
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: the prefix-3 deviation would have 4194304 entries")


def test_discover_totalorder_uses_stored_floor(capsys, tmp_path):
    path = tmp_path / "to.json"
    run(capsys, "gen", "--kind", "totalorder", "--n", "2", "--seed", "8", "-o", str(path))
    code, out, _ = run(
        capsys, "discover", str(path), "--algorithm", "totalorder", "--verify"
    )
    assert code == 0
    assert "valid" in out


@pytest.mark.parametrize("kind", ["memoryless", "totalorder"])
def test_promise_discovery_runs_on_a_qutrit_comb_with_the_default_povm(capsys, tmp_path, kind):
    """The default used to be the preset ``sic3``, which does not exist: exit 2."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", kind, "--n", "2", "--d", "3", "--seed", "4", "-o", str(path))
    code, out, err = run(capsys, "discover", str(path), "--algorithm", kind, "--verify")
    assert (code, err) == (0, "")
    assert "order:" in out and "valid" in out


def test_discover_memoryless_reports_a_broken_promise(capsys, tmp_path):
    """Output 2 of the signaling comb copies input 1, which also reaches output 1."""
    path = tmp_path / "sig.json"
    run(capsys, "gen", "--kind", "signaling", "--seed", "0", "-o", str(path))
    code, out, _ = run(capsys, "discover", str(path), "--algorithm", "memoryless")
    assert code == 1
    assert "more than one partner" in out
    assert "partial:" in out


@pytest.mark.parametrize(
    "kind, algorithm",
    [("unitary", "general"), ("totalorder", "totalorder"), ("memoryless", "memoryless")],
)
def test_discover_passes_only_the_named_algorithm_keys(
    capsys, tmp_path, monkeypatch, kind, algorithm
):
    """Every option is set, but only the named algorithm's keys reach dispatch."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", kind, "--n", "2", "--seed", "8", "-o", str(path))
    seen = []

    def recording(session, spec, alg):
        seen.append(dict(alg))
        return dispatch(session, spec, alg)

    monkeypatch.setattr(cli, "dispatch", recording)
    options = [
        "--delta", "1e-6", "--kappa", "0.05", "--chi-min", "0.05", "--threshold", "0.1",
        "--povm", "sic2",
    ]
    code, _, err = run(capsys, "discover", str(path), "--algorithm", algorithm, *options)
    assert code == 0, err
    assert len(seen) == 1 and set(seen[0]) == {"name", *ALGORITHM_KEYS[algorithm]}


def test_queries_line_states_a_bound_only_when_the_report_has_one(capsys, tmp_path):
    """A promise run bills the shots it is given; general bounds its queries."""
    path = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "memoryless", "--n", "3", "--seed", "4", "-o", str(path))
    code, out, _ = run(
        capsys,
        "discover", str(path),
        "--algorithm", "memoryless",
        "--mode", "sampled",
        "--seed", "1",
        "--n-shots", "1000000000",
    )
    assert code == 0
    assert "queries:   1000000000\n" in out
    assert "bound" not in out
    code, out, _ = run(
        capsys, "discover", str(path), "--seed", "1", "--query-policy", "theoretical"
    )
    assert code == 0
    queries, bound = re.search(r"queries:   (\d+) \(theoretical bound (\d+)\)", out).groups()
    assert 0 < int(queries) <= int(bound)


def test_discover_sampled_with_query_log(capsys, tmp_path):
    comb = tmp_path / "c.json"
    log = tmp_path / "q.jsonl"
    run(capsys, "gen", "--kind", "totalorder", "--n", "2", "--seed", "9", "-o", str(comb))
    code, out, _ = run(
        capsys,
        "discover", str(comb),
        "--algorithm", "totalorder",
        "--mode", "sampled",
        "--n-shots", "2000000",
        "--seed", "4",
        "--query-log", str(log),
    )
    assert code == 0
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert sum(r["n"] for r in lines) >= 2_000_000


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
@pytest.mark.parametrize(
    "argv",
    [["--delta", "5"], ["--algorithm", "memoryless", "--povm", "sic3"],
     ["--algorithm", "totalorder"]],
    ids=["delta", "povm", "no-chi-min"],
)
def test_a_refused_discover_leaves_its_query_log_as_it_was(capsys, tmp_path, argv, existing):
    """The log used to be opened, and so emptied or created, before the
    algorithm's keys were read."""
    comb, log = tmp_path / "c.json", tmp_path / "q.jsonl"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(comb))
    if existing:
        log.write_bytes(b'{"old": 1}\n\n')
    code, out, err = run(capsys, "discover", str(comb), *argv, "--query-log", str(log))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    if existing:
        assert log.read_bytes() == b'{"old": 1}\n\n'
    else:
        assert not log.exists()


def test_a_discover_that_bills_nothing_leaves_an_empty_query_log(capsys, tmp_path):
    comb, log = tmp_path / "c.json", tmp_path / "q.jsonl"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(comb))
    log.write_text('{"old": 1}\n')
    code, _, _ = run(capsys, "discover", str(comb), "--query-log", str(log))
    assert code == 0
    assert log.read_bytes() == b""


def test_verify_rejects_wrong_order(capsys, tmp_path):
    path = tmp_path / "sig.json"
    run(capsys, "gen", "--kind", "signaling", "--undressed", "--seed", "0", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--order", "A2:B2,A1:B1")
    assert code == 1
    assert "INVALID" in out


def test_verify_states_the_factor_residual_bound(capsys, tmp_path):
    path = tmp_path / "u.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "3", "--seed", "5", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    # a stored comb is checked on its purification, which is exact
    assert "factor residual bound 0)" in out
    path = tmp_path / "sig.json"
    run(capsys, "gen", "--kind", "signaling", "--seed", "0", "-o", str(path))
    _, out, _ = run(capsys, "verify", str(path))
    assert "factor residual bound 0)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--tol", "-1"),
        ("verify", "--tol", "nan"),
        ("verify", "--tol", "0"),
        ("verify", "--order", "A1:B2,A2:B1", "--tol", "inf"),
        ("verify", "--enumerate", "--tol", "inf"),
        ("discover", "--verify", "--tol", "inf"),
    ],
)
def test_a_tol_that_is_not_positive_and_finite_exits_2(capsys, tmp_path, argv):
    """Each of these printed a verdict: INVALID for the true order at -1,
    nan and 0; valid for an order 1.16 from a comb, and 4/4 orders, at inf.
    ``discover --verify`` also printed its whole run before refusing."""
    path = tmp_path / "u.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "1", "-o", str(path))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert "tol must be a positive finite number" in err
    assert out == ""


@pytest.mark.parametrize("argv", [("verify",), ("verify", "--enumerate"), ("discover",)])
@pytest.mark.parametrize("field, says", [("unitaries", "tooth 1 matrix"), ("psi0", "psi0")])
def test_a_comb_file_with_a_nan_entry_exits_2(capsys, tmp_path, argv, field, says):
    """``verify`` exited 3 with "numerical error: SVD did not converge", and
    ``discover`` refused only through "the Choi operator has trace nan"."""
    path = tmp_path / "nan.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "3", "--seed", "1", "-o", str(path))
    data = json.loads(path.read_text())
    if field == "psi0":
        data["psi0"][0][0] = float("nan")
    else:
        data["unitaries"][1][0][1][0] = float("nan")
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert err.splitlines() == [f"error: {says} has a non-finite entry"]
    assert out == ""


def test_discover_names_the_pairs_it_guessed(capsys, tmp_path):
    """fig3 looks uncorrelated pair by pair, so memoryless guesses all three."""
    path = tmp_path / "f.json"
    run(capsys, "gen", "--kind", "fig3", "-o", str(path))
    code, out, _ = run(capsys, "discover", str(path), "--algorithm", "memoryless")
    assert code == 0
    guessed = [l for l in out.splitlines() if l.startswith("guessed:")]
    assert len(guessed) == 1 and "A1:B1,A2:B2,A3:B3" in guessed[0]
    path = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "memoryless", "--n", "3", "--seed", "2", "-o", str(path))
    code, out, _ = run(capsys, "discover", str(path), "--algorithm", "memoryless")
    assert code == 0 and "guessed:" not in out


def test_verify_enumerate_scores_all_orders(capsys, tmp_path):
    path = tmp_path / "sig.json"
    run(capsys, "gen", "--kind", "signaling", "--seed", "0", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--enumerate")
    assert code == 0
    assert "2/4 orders valid" in out


def test_verify_enumerate_lists_only_the_compatible_orders_at_n5(capsys, tmp_path):
    path = tmp_path / "h5.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "5", "--d-M", "2", "--seed", "3", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--enumerate")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 2
    assert lines[0].split()[:2] == ["ok", format_order(load_comb(path).true_order)]
    assert lines[1] == "1/14400 orders valid at tol=1e-09"


def test_verify_refuses_an_order_together_with_enumerate(capsys, tmp_path):
    """The order was never read: even this invalid one listed the compatible
    orders and exited 0."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "1", "-o", str(path))
    with pytest.raises(SystemExit) as exit:
        main(["verify", str(path), "--order", "A2:B9,A1:B1", "--enumerate"])
    out = capsys.readouterr()
    assert exit.value.code == 2
    assert "--enumerate: not allowed with argument --order" in out.err
    assert out.out == ""


@pytest.mark.parametrize("preset", ["sicX", "sic", "random-ic:", "random-ic:abc", "random-ic:-1"])
def test_a_malformed_povm_preset_exits_2_naming_it(capsys, tmp_path, preset):
    """These printed Python's int() or numpy's message, without the preset."""
    path = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "memoryless", "--n", "2", "--seed", "4", "-o", str(path))
    code, _, err = run(
        capsys, "discover", str(path), "--algorithm", "memoryless", "--povm", preset
    )
    assert code == 2
    assert err.startswith(f"error: POVM preset '{preset}':")
    assert "sic<d>" in err and "random-ic:<seed>" in err


def test_numerical_failure_exits_3_and_bad_config_still_exits_2(capsys, tmp_path, monkeypatch):
    import numpy as np

    import causalcomb.combs as combs

    path = tmp_path / "sig.json"
    run(capsys, "gen", "--kind", "signaling", "--seed", "0", "-o", str(path))

    def no_convergence(x):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(combs, "trace_norm", no_convergence)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "numerical error" in err
    code, _, err = run(capsys, "verify", str(path), "--order", "A1B1")
    assert code == 2
    assert "error:" in err


def test_lemmas_subcommand(capsys):
    code, out, _ = run(capsys, "lemmas", "--seed", "0")
    assert code == 0
    assert "9/9 checks passed" in out


def test_bench_subcommand(capsys, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "generator": {"kind": "unitary", "n": 2, "d": 2, "d_M": 1},
                "algorithm": {"name": "general"},
                "trials": 3,
                "seed": 11,
            }
        )
    )
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "bench", str(cfg), "--out", str(report))
    assert code == 0
    assert "3/3 trials succeeded" in out
    payload = json.loads(report.read_text())
    assert payload["successes"] == 3
    assert len(payload["results"]) == 3
    summary_keys = [f.name for f in dataclasses.fields(RunSummary)]
    assert list(payload) == ["format_version", "config", *summary_keys]
    trial_keys = [f.name for f in dataclasses.fields(TrialResult)]
    assert all(list(r) == trial_keys for r in payload["results"])
    assert payload["config"] == json.loads(cfg.read_text())


def test_bench_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"generator": {"kind": "nope"}, "algorithm": {"name": "general"}}))
    code, _, err = run(capsys, "bench", str(cfg))
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "discover", "does-not-exist.json")
    assert code == 2


def test_comb_file_missing_a_key_exits_2(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "comb_spec", "n": 2}))
    for argv in (("discover", str(path)), ("verify", str(path))):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "missing keys" in err and "'d_A'" in err


def test_unreachable_totalorder_floor_exits_2(capsys, tmp_path, monkeypatch):
    """Running out of rejection draws is a setting no comb meets, not a failed run."""
    import causalcomb.runner as runner

    original = runner.gen_totalorder_comb

    def small_budget(*args, **kwargs):
        return original(*args, **kwargs, budget=3)

    monkeypatch.setattr(runner, "gen_totalorder_comb", small_budget)
    code, out, err = run(
        capsys, "gen", "--kind", "totalorder", "--n", "2", "--corr-floor", "2.0",
        "-o", str(tmp_path / "c.json"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: no draw reached pairwise correlation 2.0 in 3 tries")
    assert err.count("\n") == 1
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "generator": {"kind": "totalorder", "n": 2, "corr_floor": 2.0},
                "algorithm": {"name": "totalorder"},
                "trials": 1,
            }
        )
    )
    code, _, err = run(capsys, "bench", str(cfg))
    assert code == 2
    assert err.startswith("error: no draw reached") and err.count("\n") == 1


@pytest.mark.parametrize("floor", ["nan", "2.5", "inf"])
def test_a_floor_above_every_correlation_exits_2_before_any_draw(capsys, tmp_path, floor):
    """A floor no draw can reach is refused at once, not after 10,000 draws."""
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "gen", "--kind", "totalorder", "--n", "3", "--corr-floor", floor,
        "-o", str(tmp_path / "c.json"),
    )
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"error: no draw can reach pairwise correlation {float(floor)}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


def test_bench_reports_an_order_too_large_to_check_and_goes_on(capsys, tmp_path):
    """At n = 8 (d_M = 2) the checker refuses the prefix-3 deviation for its
    size: each trial keeps its order as not verified, and the run reaches its
    summary and its report."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "generator": {"kind": "unitary", "n": 8, "d_M": 2},
                "algorithm": {"name": "general"},
                "trials": 2,
            }
        )
    )
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "bench", str(cfg), "--out", str(report))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("0/2 trials succeeded")
    for t, line in enumerate(lines[1:3]):
        assert re.match(rf"  trial +{t} fail queries=0 +order=(A\d:B\d,){{7}}A\d:B\d  ", line)
        assert line.endswith(
            "(not verified: the prefix-3 deviation would have 4194304 entries, "
            "over the cap of 1048576)"
        )
    assert lines[3] == f"wrote {report}"
    payload = json.loads(report.read_text())
    assert [r["worst_deviation"] for r in payload["results"]] == [None, None]
    assert all(len(r["order"]) == 8 for r in payload["results"])


def test_totalorder_without_floor_exits_2(capsys, tmp_path):
    """A plain unitary comb has no stored correlation floor to fall back on."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "1", "-o", str(path))
    code, _, err = run(capsys, "discover", str(path), "--algorithm", "totalorder")
    assert code == 2
    assert "chi-min" in err


def test_comb_file_with_a_fractional_tooth_count_exits_2(capsys, tmp_path):
    """It used to load as a 2-tooth comb, and ``verify`` printed ``valid``."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(path))
    path.write_text(json.dumps({**json.loads(path.read_text()), "n": 2.6}))
    for argv in (("verify", str(path)), ("discover", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: comb file: n must be") and err.count("\n") == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("sigma_true", 5),
        ("unitaries", 7),
        ("metadata", 3),
        ("psi0", [1, 2]),
        ("psi0", [["a", 0]]),
        ("unitaries", [[[1]]]),
        ("unitaries", [1, 2]),
    ],
)
def test_comb_file_with_a_key_of_the_wrong_structure_exits_2(capsys, tmp_path, key, value):
    """It used to end ``verify`` in a ``TypeError`` traceback with exit 1."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(path))
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: comb file: {key} must be") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, name",
    [(["--d", "0"], "wire_dim"), (["--d-M", "0"], "memory_dim"),
     (["--kind", "memoryless", "--d", "0"], "wire_dim")],
)
def test_gen_with_a_dimension_below_one_exits_2_naming_it(capsys, tmp_path, argv, name):
    code, out, err = run(capsys, "gen", *argv, "-o", str(tmp_path / "c.json"))
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [["gen", "-o", "{out}"], ["discover", "{comb}"],
     ["discover", "{comb}", "--mode", "sampled", "--query-log", "{out}"], ["lemmas"]],
    ids=["gen -o", "exact discover", "sampled discover --query-log", "lemmas"],
)
def test_a_negative_seed_exits_2_naming_it(capsys, tmp_path, argv):
    """NumPy's own refusal, ``expected non-negative integer``, named no
    option; exact ``discover`` met it too, though it draws nothing."""
    comb, out = tmp_path / "c.json", tmp_path / "out.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(comb))
    code, stdout, err = run(capsys, *[a.format(comb=comb, out=out) for a in argv], "--seed", "-1")
    assert (code, stdout) == (2, "")
    assert err == "error: --seed must be a non-negative whole number, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "discover", "bench"])
@pytest.mark.parametrize("top", [[1, 2], "comb"], ids=["list", "string"])
def test_a_file_whose_top_level_is_not_an_object_exits_2(capsys, tmp_path, command, top):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(top))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"not a {type(top).__name__}" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("verify", "{dir}"), ("discover", "{dir}"), ("bench", "{dir}"),
     ("discover", "{comb}", "--query-log", "{dir}"), ("bench", "{config}", "--out", "{dir}"),
     ("bench", "{config}", "--out", "{dir}/missing/r.json"),
     ("gen", "--kind", "unitary", "--n", "2", "-o", "{dir}"),
     ("gen", "--kind", "unitary", "--n", "2", "-o", "{dir}/missing/c.json")],
    ids=["verify", "discover", "bench", "query-log", "bench-out", "bench-out-missing-dir",
         "gen-o", "gen-o-missing-dir"],
)
def test_a_directory_given_for_a_file_exits_2(capsys, tmp_path, argv):
    """``bench --out`` used to run and print every trial before refusing, and
    ``gen -o`` to draw the comb first and then fail on an ``[Errno ...]``."""
    comb, config = tmp_path / "c.json", tmp_path / "b.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(comb))
    config.write_text(json.dumps({"generator": {"kind": "unitary"}, "algorithm": {}}))
    code, out, err = run(
        capsys, *(a.format(dir=tmp_path, comb=comb, config=config) for a in argv)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json", "c.json"]
    if argv[0] == "gen":
        assert err.startswith("error: -o ")


@pytest.mark.parametrize(
    "argv, option",
    [(("verify", "{comb}", "--order", ""), "--order"),
     (("discover", "{comb}", "--query-log", ""), "--query-log"),
     (("bench", "{config}", "--out", ""), "--out"),
     (("gen", "--kind", "unitary", "--n", "2", "-o", ""), "-o")],
    ids=["verify-order", "query-log", "bench-out", "gen-o"],
)
def test_an_empty_order_or_path_exits_2_naming_it(capsys, tmp_path, monkeypatch, argv, option):
    """An empty string used to read as unset: ``verify`` checked the stored
    true order, ``--query-log`` and ``bench --out`` wrote nothing, and
    ``gen -o`` drew the comb before failing on ``[Errno 21]``."""
    comb, config = tmp_path / "c.json", tmp_path / "b.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(comb))
    config.write_text(json.dumps({"generator": {"kind": "unitary"}, "algorithm": {}}))

    def untouched(*args):
        raise AssertionError("read or drew before refusing the option")

    for name in ("load_comb", "load_json", "generate_comb"):
        monkeypatch.setattr(cli, name, untouched)
    code, out, err = run(capsys, *(a.format(comb=comb, config=config) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json", "c.json"]


@pytest.mark.parametrize("argv", [["--d-M", "1"], ["--d", "1"]], ids=["d_M=1", "d=1"])
def test_gen_refuses_a_totalorder_floor_no_draw_can_reach(capsys, tmp_path, argv):
    code, out, err = run(
        capsys, "gen", "--kind", "totalorder", *argv, "-o", str(tmp_path / "c.json")
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: no draw can reach pairwise correlation 0.05:")
    assert err.count("\n") == 1


def test_comb_file_with_a_zero_wire_dimension_exits_2(capsys, tmp_path):
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "3", "-o", str(path))
    path.write_text(json.dumps({**json.loads(path.read_text()), "d_A": 0}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", "error: wire_dim must be at least 1, got 0\n")


@pytest.mark.parametrize(
    "option, value", [("--delta", "8"), ("--delta", "-1"), ("--delta", "0"), ("--kappa", "1"),
                      ("--kappa", "0")],
)
def test_discover_names_an_out_of_range_delta_or_kappa(capsys, tmp_path, option, value):
    """It used to name an ``eps`` the user never set."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--n", "2", "-o", str(path))
    code, out, err = run(capsys, "discover", str(path), option, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option[2:]} must be in") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, says",
    [
        (["--mode", "sampled", "--delta", "1e-9"], "more than a 64-bit count holds"),
        (["--delta", "1e-300"], "is too small"),
        (["--algorithm", "memoryless", "--mode", "sampled", "--n-shots", "10000000000000000000"],
         "a batch takes at most 4503599627370496 shots"),
    ],
)
def test_a_budget_the_draw_cannot_count_exits_2(capsys, tmp_path, argv, says):
    """The first two used to print a traceback and exit 1, the last to run for minutes."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--n", "2", "--seed", "0", "-o", str(path))
    code, out, err = run(capsys, "discover", str(path), *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and says in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["--mode", "sampled", "--delta", "1e-9"], ["--delta", "1e-300"]]
)
def test_a_delta_whose_swap_budget_cannot_be_run_is_named(capsys, tmp_path, argv):
    """Both used to name ``eps = delta / 4``, an ``eps`` no user sets."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--n", "2", "--seed", "0", "-o", str(path))
    code, out, err = run(capsys, "discover", str(path), *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: delta = {float(argv[-1])} ") and "kappa = 0.05" in err
    assert "eps" not in err and err.count("\n") == 1


def test_an_exact_delta_below_the_floor_exits_2_naming_it(capsys, tmp_path):
    """It used to print ``failure: not a quantum comb`` and exit 1 on a valid comb."""
    path = tmp_path / "u4.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "4", "-o", str(path))
    code, out, err = run(capsys, "discover", str(path), "--delta", "1e-16")
    assert (code, out) == (2, "")
    assert err.startswith("error: delta = 1e-16 is below 1e-12, ") and err.count("\n") == 1


def test_bench_names_an_out_of_range_delta(capsys, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps({"generator": {}, "algorithm": {"name": "general", "delta": 8}, "trials": 1})
    )
    code, out, err = run(capsys, "bench", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: delta must be in (0, 4], got 8.0\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--algorithm", "totalorder", "--chi-min", "-1"], "chi_min"),
        (["--algorithm", "totalorder", "--chi-min", "0"], "chi_min"),
        (["--algorithm", "totalorder", "--chi-min", "nan"], "chi_min"),
        (["--algorithm", "memoryless", "--mode", "sampled", "--n-shots", "1000",
          "--threshold", "-1"], "threshold"),
        (["--algorithm", "memoryless", "--mode", "sampled", "--n-shots", "1000",
          "--threshold", "nan"], "threshold"),
    ],
)
def test_discover_names_a_promise_threshold_that_is_not_positive(capsys, tmp_path, argv, name):
    """It used to exit 1, reporting a broken promise."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "memoryless", "--n", "3", "--seed", "1", "-o", str(path))
    code, out, err = run(capsys, "discover", str(path), *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} must be a positive finite number, got ")


def test_bench_names_a_promise_threshold_that_is_not_positive(capsys, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "generator": {"kind": "memoryless", "n": 3},
                "algorithm": {"name": "memoryless", "n_shots": 1000, "threshold": -1},
                "oracle": {"mode": "sampled"},
                "trials": 1,
            }
        )
    )
    code, out, err = run(capsys, "bench", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: threshold must be a positive finite number, got -1.0\n"


#: The kind line ``gen --seed 7`` prints with every option set; each kind
#: reads its own options and drops the rest.
GEN_LINES = {
    "unitary": "kind=unitary n=3 d=2 d_M=2 true-order=A1:B2,A3:B3,A2:B1",
    "memoryless": "kind=memoryless n=3 d=2 d_M=2 true-order=A1:B1,A2:B3,A3:B2",
    "totalorder": "kind=totalorder n=3 d=2 d_M=2 true-order=A1:B2,A3:B3,A2:B1",
    "signaling": "kind=signaling n=2 d=2 d_M=2 true-order=A1:B1,A2:B2",
    "fig3": "kind=fig3 n=3 d=2 d_M=16 true-order=A1:B1,A2:B2,A3:B3",
}


@pytest.mark.parametrize("kind", GEN_LINES)
def test_gen_drops_the_options_its_kind_does_not_read(capsys, tmp_path, kind):
    """With every option set, the comb is the one the kind's own options build."""
    options = {
        "n": ["--n", "3"], "d": ["--d", "2"], "d_M": ["--d-M", "2"],
        "constant_tooth": ["--constant-tooth"], "corr_floor": ["--corr-floor", "0.05"],
        "dressed": ["--undressed"],
    }
    every = [a for argv in options.values() for a in argv]
    mine = [a for key in GENERATOR_KEYS[kind] for a in options[key]]
    files = [tmp_path / "every.json", tmp_path / "mine.json"]
    for argv, path in zip((every, mine), files):
        code, out, _ = run(capsys, "gen", "--kind", kind, "--seed", "7", *argv, "-o", str(path))
        assert code == 0 and out.splitlines()[1] == GEN_LINES[kind]
    assert files[0].read_bytes() == files[1].read_bytes()


@pytest.mark.parametrize("algorithm", ["general", "totalorder", "memoryless"])
def test_discover_without_algorithm_options_passes_only_the_name(
    capsys, tmp_path, monkeypatch, algorithm
):
    """Every other key takes its one default, in the runner or the library."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "totalorder", "--n", "2", "--seed", "8", "-o", str(path))
    seen = []

    def recording(session, spec, alg):
        seen.append(dict(alg))
        return dispatch(session, spec, alg)

    monkeypatch.setattr(cli, "dispatch", recording)
    code, _, err = run(capsys, "discover", str(path), "--algorithm", algorithm)
    assert code in (0, 1), err
    shots = {} if algorithm == "general" else {"n_shots": 100_000}
    assert seen == [{"name": algorithm, **shots}]


def test_no_generator_algorithm_or_oracle_option_has_a_default():
    """Each such default lives once, in the runner's tables or the library call,
    so none may drift back into the command line; ``--n-shots`` is the one
    default ``discover`` keeps and ``bench`` lacks."""
    keys = {"kind", "name", *ORACLE_KEYS}
    for tables in (GENERATOR_KEYS, ALGORITHM_KEYS):
        keys.update(k for table in tables.values() for k in table)
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    checked = set()
    for command in subparsers.choices.values():
        for action in command._actions:
            if action.dest in keys:
                checked.add(action.dest)
                want = 100_000 if action.dest == "n_shots" else None
                assert action.default == want, (action.option_strings, action.default)
    assert checked == keys
