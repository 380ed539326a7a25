"""Informationally complete POVMs, frame inversion, and pair statistics."""

import numpy as np
import pytest

from causalcomb.povm import (
    IcPovm,
    born_probs,
    frame_norm_bounds,
    frame_of,
    ic_povm_for_dim,
    pair_probs,
    povm_preset,
    product_born_table,
    reconstruct,
    reconstruct_pair,
    sic_qubit,
    state_set_of,
    tensor_povm,
)
from causalcomb.tensors import (
    Op,
    WireSpace,
    max_entangled_ket,
    random_density,
)


def test_sic_qubit_is_a_symmetric_povm():
    sic = sic_qubit()
    assert len(sic.elements) == 4
    np.testing.assert_allclose(sum(sic.elements), np.eye(2), atol=1e-12)
    # equiangular: all pairwise Hilbert-Schmidt overlaps equal 1/12
    for i in range(4):
        for j in range(4):
            hs = np.trace(sic.elements[i] @ sic.elements[j]).real
            want = 1 / 4 if i == j else 1 / 12
            assert hs == pytest.approx(want, abs=1e-12)


def test_sic_frame_eigenvalues():
    f = frame_of(sic_qubit())
    np.testing.assert_allclose(sorted(f.eigenvalues), [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12)
    assert f.is_ic
    assert f.lambda_min == pytest.approx(1 / 6)


def test_state_set_frame_eigenvalues():
    states = state_set_of(sic_qubit())
    f = frame_of(states)
    np.testing.assert_allclose(sorted(f.eigenvalues), [2 / 3, 2 / 3, 2 / 3, 2.0], atol=1e-12)


def test_povm_validation():
    half = np.eye(2) / 2
    with pytest.raises(ValueError):
        IcPovm((half,), kind="povm")  # doesn't sum to identity
    with pytest.raises(ValueError):
        IcPovm((half, -half, np.eye(2)), kind="povm")  # negative element


def test_not_ic_collection_flagged():
    z = np.diag([1.0, 0.0]).astype(complex)
    povm = IcPovm((z, np.eye(2) - z), kind="povm")
    f = frame_of(povm)
    assert not f.is_ic
    with pytest.raises(ValueError, match="informationally complete"):
        f.inverse()


def test_reconstruct_roundtrip():
    rng = np.random.default_rng(0)
    sic = sic_qubit()
    for _ in range(20):
        rho = random_density(2, rng=rng)
        np.testing.assert_allclose(reconstruct(sic, born_probs(sic, rho)), rho, atol=1e-12)


def test_reconstruct_pair_roundtrip_entangled():
    rng = np.random.default_rng(1)
    sic = sic_qubit()
    v = max_entangled_ket(2)
    bell = np.outer(v, v.conj())
    for rho in [bell, random_density(4, rng=rng)]:
        probs = pair_probs(sic, sic, rho)
        np.testing.assert_allclose(reconstruct_pair(sic, sic, probs), rho, atol=1e-12)


def test_pair_probs_product_state_factorizes():
    rng = np.random.default_rng(2)
    sic = sic_qubit()
    a = random_density(2, rng=rng)
    b = random_density(2, rng=rng)
    joint = pair_probs(sic, sic, np.kron(a, b))
    np.testing.assert_allclose(joint, np.outer(born_probs(sic, a), born_probs(sic, b)), atol=1e-12)


def test_tensor_povm_dimensions_and_probs():
    sic = sic_qubit()
    big = tensor_povm(sic, sic)
    assert big.dim == 4
    assert len(big.elements) == 16
    rng = np.random.default_rng(3)
    rho = random_density(4, rng=rng)
    np.testing.assert_allclose(
        born_probs(big, rho), pair_probs(sic, sic, rho).reshape(-1), atol=1e-12
    )


def test_ic_povm_for_dim_powers_of_two():
    for d in (2, 4):
        povm = ic_povm_for_dim(d)
        assert povm.dim == d
        assert len(povm.elements) == d * d
        assert frame_of(povm).is_ic


def test_ic_povm_for_dim_random_completion():
    povm = ic_povm_for_dim(3, np.random.default_rng(4))
    assert povm.dim == 3
    np.testing.assert_allclose(sum(povm.elements), np.eye(3), atol=1e-10)
    assert frame_of(povm).is_ic
    rng = np.random.default_rng(5)
    rho = random_density(3, rng=rng)
    np.testing.assert_allclose(reconstruct(povm, born_probs(povm, rho)), rho, atol=1e-9)


def test_povm_preset_names():
    assert povm_preset("sic2", 2).dim == 2
    with pytest.raises(ValueError):
        povm_preset("sic4", 2)
    with pytest.raises(ValueError):
        povm_preset("mystery", 2)
    r = povm_preset("random-ic:7", 3)
    assert frame_of(r).is_ic


def test_product_born_table_matches_pair_probs():
    rng = np.random.default_rng(6)
    sic = sic_qubit()
    rho = random_density(4, rng=rng)
    op = Op(WireSpace(("A1", "B1"), (2, 2)), rho)
    table = product_born_table(op, {"A1": sic, "B1": sic})
    np.testing.assert_allclose(table, pair_probs(sic, sic, rho), atol=1e-12)


def test_frame_norm_bounds_bracket_hs_distance():
    rng = np.random.default_rng(7)
    sic = sic_qubit()
    for _ in range(50):
        a = random_density(2, rng=rng)
        b = random_density(2, rng=rng)
        r = frame_norm_bounds(sic, a, b)
        assert r["lower"] <= r["hs"] + 1e-12
        assert r["hs"] <= r["upper"] + 1e-12
