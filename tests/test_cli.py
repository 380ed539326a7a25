"""End-to-end command-line behavior, driven through main() in-process."""

import json

import pytest

from causalcomb.cli import format_order, main, parse_order
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


def test_discover_memoryless_reports_a_broken_promise(capsys, tmp_path):
    """Output 2 of the signaling comb copies input 1, which also reaches output 1."""
    path = tmp_path / "sig.json"
    run(capsys, "gen", "--kind", "signaling", "--seed", "0", "-o", str(path))
    code, out, _ = run(capsys, "discover", str(path), "--algorithm", "memoryless")
    assert code == 1
    assert "more than one partner" in out
    assert "partial:" in out


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


def test_verify_enumerate_scores_all_orders(capsys, tmp_path):
    path = tmp_path / "sig.json"
    run(capsys, "gen", "--kind", "signaling", "--seed", "0", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--enumerate")
    assert code == 0
    assert "2/4 orders valid" in out


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


def test_totalorder_without_floor_exits_2(capsys, tmp_path):
    """A plain unitary comb has no stored correlation floor to fall back on."""
    path = tmp_path / "c.json"
    run(capsys, "gen", "--kind", "unitary", "--n", "2", "--seed", "1", "-o", str(path))
    code, _, err = run(capsys, "discover", str(path), "--algorithm", "totalorder")
    assert code == 2
    assert "chi-min" in err
