"""End-to-end command-line behavior, driven through main() in-process."""

import argparse
import json
import re

import pytest

from causalcomb import cli
from causalcomb.cli import format_order, main, parse_order
from causalcomb.runner import ALGORITHM_KEYS, SECTION_KEYS, dispatch
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
        capsys, "gen", "--kind", "totalorder", "--n", "2", "--corr-floor", "3.0",
        "-o", str(tmp_path / "c.json"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: no draw reached pairwise correlation 3.0 in 3 tries")
    assert err.count("\n") == 1
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {
                "generator": {"kind": "totalorder", "n": 2, "corr_floor": 3.0},
                "algorithm": {"name": "totalorder"},
                "trials": 1,
            }
        )
    )
    code, _, err = run(capsys, "bench", str(cfg))
    assert code == 2
    assert err.startswith("error: no draw reached") and err.count("\n") == 1


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
    keys = {"name", *SECTION_KEYS["generator"], *SECTION_KEYS["oracle"]}
    keys.update(k for table in ALGORITHM_KEYS.values() for k in table)
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
