"""JSON round-tripping of comb specs and report payloads."""

import json

import numpy as np
import pytest

from causalcomb.combs import build_choi, gen_totalorder_comb, gen_unitary_comb
from causalcomb.serialize import (
    FORMAT_VERSION,
    comb_from_dict,
    comb_to_dict,
    jsonable,
    load_comb,
    load_json,
    save_comb,
    save_json,
)


def test_comb_roundtrip_preserves_choi(tmp_path):
    rng = np.random.default_rng(0)
    spec = gen_unitary_comb(3, 2, 2, rng)
    path = tmp_path / "comb.json"
    save_comb(spec, path)
    back = load_comb(path)
    assert back.n == spec.n
    assert back.input_perm == spec.input_perm
    assert back.output_perm == spec.output_perm
    np.testing.assert_allclose(build_choi(back).matrix, build_choi(spec).matrix, atol=1e-12)


def test_comb_dict_schema():
    rng = np.random.default_rng(1)
    spec = gen_totalorder_comb(2, 2, 2, rng)
    data = comb_to_dict(spec)
    assert data["format_version"] == FORMAT_VERSION
    assert data["kind"] == "comb_spec"
    assert data["n"] == 2
    assert data["d_A"] == 2
    assert data["d_M"] == 2
    assert data["sigma_true"] == list(spec.input_perm)
    assert data["pi_true"] == list(spec.output_perm)
    assert "achieved_chi_min" in data["metadata"]
    # the whole payload must already be plain JSON
    json.dumps(data)


def test_comb_dict_rejects_unknown_version():
    rng = np.random.default_rng(2)
    data = comb_to_dict(gen_unitary_comb(2, 2, 1, rng))
    data["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        comb_from_dict(data)


def test_comb_dict_names_its_missing_keys():
    data = {"format_version": FORMAT_VERSION, "kind": "comb_spec", "n": 2}
    with pytest.raises(ValueError, match="missing keys") as info:
        comb_from_dict(data)
    for key in ("d_A", "d_M", "psi0", "unitaries", "sigma_true", "pi_true"):
        assert repr(key) in str(info.value)
    assert "'n'" not in str(info.value)


def test_jsonable_handles_numpy_and_complex():
    out = jsonable(
        {
            "a": np.float64(1.5),
            "b": np.arange(3),
            "c": np.array([1 + 2j]),
            "d": (np.int64(2), "x"),
        }
    )
    json.dumps(out)
    assert out["a"] == 1.5
    assert out["b"] == [0, 1, 2]
    assert out["c"] == [[1.0, 2.0]]
    assert out["d"] == [2, "x"]


def test_save_json_injects_version(tmp_path):
    path = tmp_path / "report.json"
    save_json({"hello": np.int32(5)}, path)
    data = load_json(path)
    assert data["format_version"] == FORMAT_VERSION
    assert data["hello"] == 5


@pytest.mark.parametrize(
    "key, value",
    [("n", 2.6), ("n", True), ("d_A", 2.5), ("d_M", -1), ("sigma_true", [1.5, 2])],
)
def test_comb_dict_refuses_counts_that_are_not_whole_numbers(key, value):
    """``"n": 2.6`` used to load as a 2-tooth comb and verify as valid."""
    data = comb_to_dict(gen_unitary_comb(2, 2, 1, np.random.default_rng(3)))
    data[key] = value
    with pytest.raises(ValueError, match=f"{key} must be a non-negative whole number"):
        comb_from_dict(data)


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("sigma_true", 5, "a list"),
        ("pi_true", "12", "a list"),
        ("unitaries", 7, "a list"),
        ("psi0", 1.0, "a list"),
        ("metadata", 3, "a dict"),
        ("psi0", [1, 2], "a 1-axis array"),
        ("psi0", [["a", 0]], "a 1-axis array"),
        ("unitaries", [[[1]]], "a 3-axis array"),
        ("unitaries", [1, 2], "a 3-axis array"),
    ],
)
def test_comb_dict_refuses_a_key_of_the_wrong_structure(key, value, kind):
    """A number where a list or mapping belongs, or a list of malformed
    entries, used to raise ``TypeError``."""
    data = comb_to_dict(gen_unitary_comb(2, 2, 1, np.random.default_rng(3)))
    data[key] = value
    with pytest.raises(ValueError, match=f"comb file: {key} must be {kind}"):
        comb_from_dict(data)


def test_comb_dict_reads_a_whole_float_as_its_integer():
    data = comb_to_dict(gen_unitary_comb(2, 2, 1, np.random.default_rng(3)))
    data.update(n=2.0, d_A=2.0)
    spec = comb_from_dict(data)
    assert (spec.n, spec.wire_dim) == (2, 2) and isinstance(spec.n, int)
