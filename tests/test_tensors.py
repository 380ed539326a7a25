"""Labeled-operator algebra: partial trace, reordering, contraction, norms."""

import numpy as np
import pytest
from conftest import reference_correlation_norm

from causalcomb.combs import Factor
from causalcomb.tensors import (
    Op,
    WireSpace,
    contract_wire,
    correlation_norm,
    correlation_norms,
    haar_unitary,
    max_entangled_ket,
    numerical_rank,
    partial_trace,
    random_density,
    random_pure_state,
    reorder,
    sort_wires,
    tensor,
    trace_norm,
    wire_key,
)


def _bell_op():
    v = max_entangled_ket(2)
    return Op(WireSpace(("A1", "B1"), (2, 2)), np.outer(v, v.conj()))


def test_wire_key_natural_sort():
    labels = ["A10", "A2", "B1", "A1", "B10", "B2"]
    assert sorted(labels, key=wire_key) == ["A1", "A2", "A10", "B1", "B2", "B10"]


@pytest.mark.parametrize("dim", [2.7, True, -2, "2", None])
def test_wire_space_refuses_a_dimension_that_is_not_whole(dim):
    """``2.7`` used to become a dimension of 2; a whole ``2.0`` is still 2."""
    with pytest.raises(ValueError, match="^a wire dimension must be a non-negative whole number"):
        WireSpace(("A1", "B1"), (2, dim))
    space = WireSpace(("A1", "B1"), (2.0, np.int64(3)))
    assert space.dims == (2, 3) and all(type(d) is int for d in space.dims)


def test_wire_space_looks_up_every_label_by_its_position():
    """The label map is no field: two spaces on the same wires are equal."""
    space = WireSpace(["B1", "A2", "A1"], (3, 2, 4))
    assert [space.index(l) for l in space.labels] == [0, 1, 2]
    assert [space.dim_of(l) for l in space.labels] == [3, 2, 4]
    assert space == WireSpace(("B1", "A2", "A1"), (3, 2, 4)) and "_index" not in repr(space)
    with pytest.raises(KeyError, match="no wire 'B2' in"):
        space.index("B2")


def test_op_is_immutable():
    op = _bell_op()
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_op_takes_ownership_of_a_complex_array():
    mat = np.eye(4, dtype=complex) / 4
    op = Op(WireSpace(("A1", "B1"), (2, 2)), mat)
    assert np.shares_memory(op.matrix, mat)
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0


def test_op_converts_lists_and_real_arrays():
    real = np.eye(2) / 2
    from_real = Op(WireSpace(("A1",), (2,)), real)
    from_list = Op(WireSpace(("A1",), (2,)), [[0.5, 0.0], [0.0, 0.5]])
    for op in (from_real, from_list):
        assert op.matrix.dtype == complex
        assert not op.matrix.flags.writeable
        np.testing.assert_array_equal(op.matrix, real)
    assert not np.shares_memory(from_real.matrix, real)
    real[0, 0] = 1.0  # the caller's real array stays its own


def test_tensor_and_partial_trace_roundtrip():
    rng = np.random.default_rng(0)
    a = Op(WireSpace(("A1",), (2,)), random_density(2, rng=rng))
    b = Op(WireSpace(("B1",), (3,)), random_density(3, rng=rng))
    joint = tensor(a, b)
    assert joint.labels == ("A1", "B1")
    back = partial_trace(joint, ["A1"])
    np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-12)


def test_partial_trace_keeps_original_order():
    rng = np.random.default_rng(1)
    ops = [Op(WireSpace((l,), (2,)), random_density(2, rng=rng)) for l in ("B2", "A1", "B1")]
    joint = tensor(tensor(ops[0], ops[1]), ops[2])
    kept = partial_trace(joint, ["B2", "B1"])
    assert kept.labels == ("B2", "B1")
    np.testing.assert_allclose(kept.matrix, np.kron(ops[0].matrix, ops[2].matrix), atol=1e-12)


def test_reorder_is_similarity():
    """Reordering wires permutes indices without changing the spectrum."""
    rng = np.random.default_rng(2)
    joint = Op(WireSpace(("A1", "B1"), (2, 3)), random_density(6, rng=rng))
    flipped = reorder(joint, ["B1", "A1"])
    assert flipped.labels == ("B1", "A1")
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(flipped.matrix)),
        np.sort(np.linalg.eigvalsh(joint.matrix)),
        atol=1e-12,
    )
    np.testing.assert_allclose(reorder(flipped, ["A1", "B1"]).matrix, joint.matrix, atol=1e-12)


def test_sort_wires_orders_inputs_before_outputs():
    rng = np.random.default_rng(3)
    joint = Op(WireSpace(("B1", "A2", "A1"), (2, 2, 2)), random_density(8, rng=rng))
    assert sort_wires(joint).labels == ("A1", "A2", "B1")


def test_contract_wire_feeds_a_state():
    """Contracting the A half of a Bell pair with d*psi^T steers the B half."""
    bell = _bell_op()
    rng = np.random.default_rng(4)
    psi = random_pure_state(2, rng)
    proj = np.outer(psi, psi.conj())
    out = Op(bell.space.restrict(["B1"]), contract_wire(bell, "A1", 2.0 * proj.T))
    assert out.labels == ("B1",)
    np.testing.assert_allclose(out.matrix, proj, atol=1e-12)


def test_contract_wire_with_identity_is_partial_trace():
    rng = np.random.default_rng(5)
    joint = Op(WireSpace(("A1", "B1"), (2, 2)), random_density(4, rng=rng))
    via_contract = Op(joint.space.restrict(["B1"]), contract_wire(joint, "A1", np.eye(2)))
    via_trace = partial_trace(joint, ["B1"])
    np.testing.assert_allclose(via_contract.matrix, via_trace.matrix, atol=1e-12)


def test_contract_wire_on_a_kernel_stack_equals_the_per_kernel_calls_bit_for_bit():
    rng = np.random.default_rng(6)
    x = Op(WireSpace(("A1", "B1", "A2"), (2, 3, 2)), random_density(12, rng=rng))
    for label in x.labels:
        d = x.dim_of(label)
        kernels = rng.standard_normal((2, 5, d, d)) + 1j * rng.standard_normal((2, 5, d, d))
        stack = contract_wire(x, label, kernels)
        assert stack.shape == (2, 5, 12 // d, 12 // d)
        for idx in np.ndindex(2, 5):
            one = contract_wire(x, label, kernels[idx])
            assert one.shape == (12 // d, 12 // d)
            assert np.array_equal(stack[idx], one)


@pytest.mark.parametrize("shape", [(4, 3, 2), (4, 2, 3), (2,), (3, 3), (2, 2, 2, 1)])
def test_contract_wire_refuses_a_kernel_whose_last_axes_are_not_the_wire(shape):
    x = Op(WireSpace(("A1", "B1"), (2, 2)), np.eye(4) / 4)
    with pytest.raises(ValueError, match="contraction kernel shape .* != wire dim 2"):
        contract_wire(x, "A1", np.ones(shape))


@pytest.mark.parametrize("seed", range(6))
def test_fold_gives_a_factor_of_the_partial_trace(seed):
    """Random wire subsets, in random order, of a rank-3 factor on mixed dims."""
    rng = np.random.default_rng([9, seed])
    space = WireSpace(("A1", "A2", "B1", "B2"), (2, 3, 2, 1))
    v = rng.standard_normal((space.dim, 3)) + 1j * rng.standard_normal((space.dim, 3))
    labels = list(rng.permutation(space.labels))
    cut = int(rng.integers(0, len(labels) + 1))
    rows, folded = labels[:cut], labels[cut:]
    k = Factor(space, v).fold(rows, folded)
    want = reorder(partial_trace(Op(space, v @ v.conj().T), rows), rows)
    np.testing.assert_allclose(k @ k.conj().T, want.matrix, atol=1e-12)


def test_trace_norm_of_density_difference():
    # orthogonal pure states are at maximal trace distance
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_norm(a - b) == pytest.approx(2.0)


def test_trace_norm_of_hermitian_input_matches_svd():
    rng = np.random.default_rng(8)
    for dim in (1, 5, 64, 130):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = z + z.conj().T
        # a real symmetric matrix, handed over as a transposed view
        for m in (herm, herm.real.T):
            svd_sum = np.linalg.svd(m, compute_uv=False).sum()
            assert trace_norm(m) == pytest.approx(svd_sum, rel=0, abs=1e-12 * svd_sum)
    diff = random_density(16, rng=rng) - random_density(16, rng=rng)
    svd_sum = np.linalg.svd(diff, compute_uv=False).sum()
    assert trace_norm(diff) == pytest.approx(svd_sum, rel=0, abs=1e-12)


def test_numerical_rank():
    rng = np.random.default_rng(6)
    for r in (1, 2, 5):
        assert numerical_rank(random_density(8, r, rng)) == r


def test_correlation_norm_bell_vs_product():
    assert correlation_norm(_bell_op(), ["A1"]) == pytest.approx(1.5)
    rng = np.random.default_rng(7)
    prod = tensor(
        Op(WireSpace(("A1",), (2,)), random_density(2, rng=rng)),
        Op(WireSpace(("B1",), (2,)), random_density(2, rng=rng)),
    )
    assert correlation_norm(prod, ["A1"]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2)])
def test_correlation_norms_match_the_per_pair_formula(d_a, d_b):
    """Full-rank and rank-deficient states, one stacked call against one operator at a time."""
    rng = np.random.default_rng([40, d_a, d_b])
    d = d_a * d_b
    states = [random_density(d, rank, rng) for rank in (d, d, 2, 1, 1)]
    states.append(np.kron(random_density(d_a, rng=rng), random_density(d_b, rng=rng)))
    stack = np.stack(states).reshape(2, 3, d, d)
    got = correlation_norms(stack, d_a)
    assert got.shape == (2, 3)
    space = WireSpace(("A1", "B1"), (d_a, d_b))
    for k, rho in enumerate(states):
        want = reference_correlation_norm(Op(space, rho), ["A1"])
        assert got.flat[k] == pytest.approx(want, rel=0, abs=1e-12)
        assert correlation_norms(rho, d_a) == pytest.approx(want, rel=0, abs=1e-12)
    assert got[1, 2] == pytest.approx(0.0, abs=1e-12)


def test_correlation_norm_reorders_a_cut_that_is_not_leading():
    rng = np.random.default_rng(41)
    x = Op(WireSpace(("A1", "A2", "B1"), (2, 3, 2)), random_density(12, 3, rng))
    for side_a in (["A2"], ["B1"], ["A1", "B1"], ["B1", "A1"]):
        want = reference_correlation_norm(x, side_a)
        assert correlation_norm(x, side_a) == pytest.approx(want, rel=0, abs=1e-12)
    with pytest.raises(ValueError, match="non-empty"):
        correlation_norm(x, ["A1", "A2", "B1"])


def test_trace_norm_of_a_stack_is_each_matrix_call():
    """Each entry of a Hermitian stack's result is its own matrix's call, bit for bit."""
    rng = np.random.default_rng(42)
    z = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    stack = z + z.conj().swapaxes(-2, -1)
    got = trace_norm(stack)
    assert got.shape == (3,)
    for k in range(3):
        svd_sum = np.linalg.svd(stack[k], compute_uv=False).sum()
        assert got[k] == trace_norm(stack[k])
        assert got[k] == pytest.approx(svd_sum, rel=1e-12)
    assert trace_norm(stack.reshape(1, 3, 6, 6)).shape == (1, 3)


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(4, np.random.default_rng(8))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    v = haar_unitary(4, np.random.default_rng(8))
    np.testing.assert_array_equal(u, v)


def test_haar_unitary_phase_convention_fixes_distribution():
    """Column phases follow QR sign correction, so diag(R) is positive."""
    rng = np.random.default_rng(9)
    samples = [haar_unitary(2, rng)[0, 0] for _ in range(400)]
    # first entries should cover the complex disc, not cluster on an axis
    assert np.std(np.angle(samples)) > 0.5


def test_random_density_properties():
    rng = np.random.default_rng(10)
    rho = random_density(6, 3, rng)
    assert np.trace(rho) == pytest.approx(1.0)
    eig = np.linalg.eigvalsh(rho)
    assert eig.min() > -1e-12
    assert (eig > 1e-12).sum() == 3


def test_max_entangled_ket_marginal_is_mixed():
    v = max_entangled_ket(3)
    rho = np.outer(v, v.conj()).reshape(3, 3, 3, 3)
    marg = np.einsum("ikjk->ij", rho)
    np.testing.assert_allclose(marg, np.eye(3) / 3, atol=1e-12)
