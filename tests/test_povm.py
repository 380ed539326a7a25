"""Informationally complete POVMs, frame inversion, and pair statistics."""

import numpy as np
import pytest
from conftest import pauli6

import causalcomb.povm as povm_module
from causalcomb.povm import (
    IcPovm,
    frame_of,
    ic_povm_for_dim,
    pair_probs,
    povm_preset,
    product_born_table,
    reconstruct_pair,
    sic_qubit,
    state_set_of,
    tensor_povm,
)
from causalcomb.tensors import (
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
    with pytest.raises(ValueError, match="^POVM elements must sum to the identity$"):
        IcPovm((half,), kind="povm")  # rank two, but the sum is refused first
    with pytest.raises(ValueError, match="^elements must be PSD$"):
        IcPovm((half, -half, np.eye(2)), kind="povm")  # negative element


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_element_is_refused_by_name(bad):
    """A NaN used to pass with a warning, and ``frame_of`` then failed to
    converge; an infinity passed silently.  Both are refused before the
    Hermitian check, so no warning is raised on the way."""
    z = np.diag([1.0, 0.0]).astype(complex)
    broken = np.eye(2) - z
    broken[1, 1] = bad
    with pytest.raises(ValueError, match="^element 1 has a non-finite entry$"):
        IcPovm((z, broken), kind="povm")


def test_a_rank_two_element_is_refused_at_construction():
    """``E = diag(0.3, 0.2)`` and the qubit SIC squeezed into ``1 - E`` are five
    PSD outcomes that sum to the identity, the first of them rank two: every
    other check passes, so no session can be handed such a POVM."""
    e = np.diag([0.3, 0.2])
    root = np.sqrt(np.eye(2) - e)
    elements = (e,) + tuple(root @ x @ root for x in sic_qubit().elements)
    np.testing.assert_allclose(sum(elements), np.eye(2), atol=1e-12)
    says = "^element 0 has rank above one: every element must be rank one$"
    with pytest.raises(ValueError, match=says):
        IcPovm(elements, kind="povm")
    with pytest.raises(ValueError, match="^element 1 has rank above one"):
        IcPovm((np.diag([1.0, 0.0]), np.eye(2) / 2), kind="state-set")


def test_a_fault_in_a_later_element_is_named_by_its_index():
    """The checks run on the whole stack at once, and still name the element."""
    z, o = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    plus, minus = np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])
    broken = o.astype(complex)
    broken[0, 1] = np.nan
    with pytest.raises(ValueError, match="^element 2 has a non-finite entry$"):
        IcPovm((z / 2, o / 2, broken, plus / 2, minus / 2), kind="povm")
    says = "^element 3 has rank above one: every element must be rank one$"
    with pytest.raises(ValueError, match=says):
        IcPovm((z, o, plus, np.eye(2) / 2), kind="state-set")


@pytest.mark.parametrize(
    "elements",
    [(1.0,), (np.eye(2), 1.0), (np.eye(2)[0],), (np.ones((2, 3)),), (np.eye(2), np.eye(3))],
    ids=["0-d", "0-d-second", "1-d", "not-square", "unequal"],
)
def test_an_element_that_is_not_a_square_matrix_is_refused_by_shape(elements):
    """A 0-d element used to raise ``IndexError``: tuple index out of range."""
    with pytest.raises(ValueError, match="^all elements must be square of equal dimension$"):
        IcPovm(elements, kind="povm")


_BUILT = (
    [(f"sic{d}", povm_preset(f"sic{d}", d)) for d in (2, 4, 8)]
    + [
        (f"random-ic:{seed}-d{d}", povm_preset(f"random-ic:{seed}", d))
        for d in (1, 2, 3, 4, 5)
        for seed in (0, 1, 7)
    ]
    + [
        ("sic_qubit", sic_qubit()),
        ("sic*pauli6", tensor_povm(sic_qubit(), pauli6())),
        ("states(sic)", state_set_of(sic_qubit())),
    ]
)


@pytest.mark.parametrize("povm", [p for _, p in _BUILT], ids=[name for name, _ in _BUILT])
def test_every_povm_the_package_builds_is_rank_one(povm):
    """One row per element, and each element, one of a read-only complex stack,
    is its row's outer product."""
    els = povm.elements
    assert isinstance(els, np.ndarray) and els.dtype == complex
    assert els.shape == (povm.size, povm.dim, povm.dim) and not els.flags.writeable
    rows = povm.rows
    assert rows.shape == (povm.size, povm.dim) and not rows.flags.writeable
    for r, e in zip(rows, povm.elements):
        np.testing.assert_allclose(np.outer(r.conj(), r), e, rtol=0, atol=1e-12)


def test_not_ic_collection_flagged():
    z = np.diag([1.0, 0.0]).astype(complex)
    povm = IcPovm((z, np.eye(2) - z), kind="povm")
    f = frame_of(povm)
    assert not f.is_ic
    with pytest.raises(ValueError, match="informationally complete"):
        f.inverse()


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
    np.testing.assert_allclose(joint, np.outer(joint.sum(1), joint.sum(0)), atol=1e-12)


def test_tensor_povm_dimensions_and_probs():
    sic = sic_qubit()
    big = tensor_povm(sic, sic)
    assert big.dim == 4
    assert len(big.elements) == 16
    rng = np.random.default_rng(3)
    rho = random_density(4, rng=rng)
    # a trivial partner turns the joint table into the single-wire Born vector
    np.testing.assert_allclose(
        pair_probs(big, ic_povm_for_dim(1), rho)[:, 0], pair_probs(sic, sic, rho).reshape(-1),
        atol=1e-12,
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
    rho = np.kron(random_density(3, rng=rng), random_density(3, rng=rng))
    got = reconstruct_pair(povm, povm, pair_probs(povm, povm, rho))
    np.testing.assert_allclose(got, rho, atol=1e-9)


def test_povm_preset_names():
    assert povm_preset("sic2", 2).dim == 2
    with pytest.raises(ValueError):
        povm_preset("sic4", 2)
    with pytest.raises(ValueError):
        povm_preset("mystery", 2)
    r = povm_preset("random-ic:7", 3)
    assert frame_of(r).is_ic
    np.testing.assert_array_equal(povm_preset("sic4", 4).elements, ic_povm_for_dim(4).elements)
    for seed in (0, 7, 10**20):
        for dim in (2, 3):
            want = ic_povm_for_dim(dim, np.random.default_rng(seed))
            np.testing.assert_array_equal(
                povm_preset(f"random-ic:{seed}", dim).elements, want.elements
            )


@pytest.mark.parametrize(
    "build, says",
    [(lambda: ic_povm_for_dim(0), "needs a dimension of at least 1, got 0"),
     (lambda: povm_preset("sic0", 0), "needs a dimension of at least 1, got 0"),
     (lambda: povm_preset("random-ic:0", 0), "needs a dimension of at least 1, got 0"),
     (lambda: ic_povm_for_dim(-1, np.random.default_rng(0)), "must be a non-negative whole"),
     (lambda: ic_povm_for_dim(True), "must be a non-negative whole number, got True"),
     (lambda: ic_povm_for_dim(2.5), "must be a non-negative whole number, got 2.5")],
    ids=["d=0", "sic0", "random-ic", "d=-1", "d=True", "d=2.5"],
)
def test_a_dimension_below_one_or_not_whole_has_no_ic_povm(build, says):
    """``d = 0`` passed the power-of-two test ``d & (d - 1) == 0`` and got the
    two-dimensional SIC, ``True`` the trivial POVM and ``2.0`` a ``TypeError``."""
    with pytest.raises(ValueError, match=f"^an IC POVM('s dimension)? {says}"):
        build()
    assert ic_povm_for_dim(2.0).name == "sic2"


@pytest.mark.parametrize(
    "name, dim, why",
    [
        ("sicX", 2, "'X' is not a dimension"),
        ("sic", 2, "'' is not a dimension"),
        ("sic4", 2, "d = 4 is not a power of two equal to the wire dimension 2"),
        ("sic3", 3, "d = 3 is not a power of two equal to the wire dimension 3"),
        ("random-ic:", 2, "the seed '' is not a whole number of 0 or more"),
        ("random-ic:abc", 2, "the seed 'abc' is not a whole number of 0 or more"),
        ("random-ic:-1", 2, "the seed '-1' is not a whole number of 0 or more"),
        ("random-ic:1.5", 2, "the seed '1.5' is not a whole number of 0 or more"),
        ("mystery", 2, "there is no such preset"),
    ],
)
def test_a_refused_preset_says_what_was_wrong_and_names_both_forms(name, dim, why):
    """``sicX`` and ``random-ic:abc`` used to raise int()'s message, and
    ``random-ic:-1`` numpy's, none of them naming the preset."""
    with pytest.raises(ValueError) as refused:
        povm_preset(name, dim)
    message = str(refused.value)
    assert message.startswith(f"POVM preset '{name}': {why}; ")
    assert "sic<d>, with d a power of two equal to the wire dimension" in message
    assert "random-ic:<seed>, with a whole seed of 0 or more" in message


def test_product_born_table_matches_pair_probs():
    rng = np.random.default_rng(6)
    sic = sic_qubit()
    rho = random_density(4, rng=rng)
    lam, u = np.linalg.eigh(rho)
    space = WireSpace(("A1", "B1"), (2, 2))
    table = product_born_table(space, u * np.sqrt(lam), sic)
    np.testing.assert_allclose(table, pair_probs(sic, sic, rho), atol=1e-12)


def test_dual_frame_is_computed_once_per_povm(monkeypatch):
    rng = np.random.default_rng(8)
    sic = sic_qubit()
    flat = sic.elements.reshape(sic.size, -1)
    dual = frame_of(sic).inverse() @ flat.T
    calls = []
    original = povm_module.frame_of
    monkeypatch.setattr(povm_module, "frame_of", lambda p: calls.append(1) or original(p))
    for _ in range(10):
        joint = rng.dirichlet(np.ones(16)).reshape(4, 4)
        got = reconstruct_pair(sic, sic, joint)
        # the inversion as it was computed on every call
        v = (dual @ joint @ dual.T).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        np.testing.assert_array_equal(got, (v + v.conj().T) / 2)
    assert len(calls) == 1
    assert sic.dual is sic.dual


def test_reconstruct_pair_of_a_stack_is_the_call_on_each_slice():
    rng = np.random.default_rng(9)
    sic, pauli = sic_qubit(), pauli6()
    joint = rng.dirichlet(np.ones(24), size=(3, 5)).reshape(3, 5, 4, 6)
    got = reconstruct_pair(sic, pauli, joint)
    assert got.shape == (3, 5, 4, 4)
    for k in range(3):
        for l in range(5):
            np.testing.assert_array_equal(got[k, l], reconstruct_pair(sic, pauli, joint[k, l]))
    with pytest.raises(ValueError, match="does not end in"):
        reconstruct_pair(sic, pauli, joint.swapaxes(-2, -1))


def test_pair_probs_of_a_stack_is_the_call_on_each_state():
    rng = np.random.default_rng(10)
    sic, qutrit = sic_qubit(), ic_povm_for_dim(3, np.random.default_rng(0))
    states = np.array([random_density(6, rng=rng) for _ in range(6)]).reshape(2, 3, 6, 6)
    got = pair_probs(sic, qutrit, states)
    assert got.shape == (2, 3, 4, 9)
    for k in range(2):
        for l in range(3):
            np.testing.assert_array_equal(got[k, l], pair_probs(sic, qutrit, states[k, l]))
