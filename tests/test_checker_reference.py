"""The comb-condition checker against its direct, per-prefix reference.

The reference (``conftest.reference_check``) builds each prefix marginal
from the full Choi operator, forms (early marginal) x (maximally mixed
later inputs) with a Kronecker product, sorts both sides' wires and takes
the SVD trace norm of the difference.  The checker instead takes each
prefix's trace norm on the column span of a factor: a spec's
purification, or the verified Cholesky factor of a dense operator, which
it refuses when there is none; deviations and verdicts must agree.
``compatible_orders`` walks the prefix nodes those deviations come from,
and must find exactly the orders the checker passes.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import global_unitary_choi, reference_check

import causalcomb.combs as combs
from causalcomb.combs import (
    build_choi,
    check_comb_condition,
    compatible_orders,
    enumerate_orders,
    gen_fig3_comb,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_unitary_comb,
    verified_factor,
    wire_roles,
)
from causalcomb.oracle import OracleSession
from causalcomb.tensors import Op, WireSpace, sort_wires


def _assert_same(choi, order, spec=None):
    """Check ``choi`` against the reference; with its ``spec``, check that too."""
    got = check_comb_condition(choi, order)
    ref = reference_check(choi, order)
    np.testing.assert_allclose(got.deviations, ref.deviations, rtol=0, atol=1e-12)
    assert got.ok == ref.ok, order
    assert got.worst_deviation == max(got.deviations)
    if spec is not None:
        by_spec = check_comb_condition(spec, order)
        np.testing.assert_allclose(by_spec.deviations, ref.deviations, rtol=0, atol=1e-12)
        assert by_spec.ok == ref.ok, order
        assert by_spec.residual_bound == 0.0
    return got


def _sampled_orders(n, rng, samples):
    orders = enumerate_orders(n)
    return [orders[i] for i in rng.choice(len(orders), size=samples, replace=False)]


@pytest.mark.parametrize("memory_dim", [1, 2])
def test_every_order_at_n3_matches_the_reference(memory_dim):
    spec = gen_unitary_comb(3, 2, memory_dim, np.random.default_rng(30 + memory_dim))
    choi = build_choi(spec)
    verdicts = {o: _assert_same(choi, o, spec).ok for o in enumerate_orders(3)}
    assert verdicts[spec.true_order]
    if memory_dim == 2:
        # with memory every earlier input signals to every later output
        assert sum(verdicts.values()) == 1
    else:
        # independent single-wire teeth may run in any order
        assert sum(verdicts.values()) == 6


@pytest.mark.parametrize("n, samples", [(4, 8), (5, 2)])
@pytest.mark.parametrize("memory_dim", [1, 2])
def test_sampled_orders_match_the_reference(n, samples, memory_dim):
    rng = np.random.default_rng([n, memory_dim, 7])
    spec = gen_unitary_comb(n, 2, memory_dim, rng)
    choi = build_choi(spec)
    picks = _sampled_orders(n, rng, samples)
    assert _assert_same(choi, spec.true_order, spec).ok
    for order in picks:
        _assert_same(choi, order, spec)
    # the generator's teeth run backwards: valid only without memory
    backwards = spec.true_order[::-1]
    assert _assert_same(choi, backwards, spec).ok == (memory_dim == 1)


def _indefinite_with_zero_diagonal_block(n, seed):
    """Unit-trace Hermitian [[P, B], [B^H, 0]]: P a low-rank state, B random.

    Pivots land in the P block only, so a factor judged by its diagonal
    would stop with a small residual diagonal and miss B entirely.
    """
    rng = np.random.default_rng(seed)
    dim, half = 4**n, 4**n // 2
    v = rng.standard_normal((half, 2)) + 1j * rng.standard_normal((half, 2))
    b = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:half, :half] = v @ v.conj().T
    mat[:half, half:] = 0.1 * b
    mat[half:, :half] = 0.1 * b.conj().T
    labels = tuple(f"A{k}" for k in range(1, n + 1)) + tuple(f"B{k}" for k in range(1, n + 1))
    return Op(WireSpace(labels, (2,) * (2 * n)), mat / np.trace(mat).real)


def test_indefinite_operator_with_zero_diagonal_block_is_refused():
    choi = _indefinite_with_zero_diagonal_block(3, 0)
    assert np.linalg.eigvalsh(choi.matrix).min() < -0.01
    rng = np.random.default_rng(1)
    for order in _sampled_orders(3, rng, 6):
        with pytest.raises(ValueError, match="positive semidefinite"):
            check_comb_condition(choi, order)


def test_checker_refuses_an_operator_it_cannot_factor():
    rng = np.random.default_rng(4)
    spec = gen_unitary_comb(3, 2, 2, rng)
    choi = build_choi(spec)
    # a traceless Hermitian term on the last output: every prefix traces it
    # out, so only positivity tells this operator from a comb
    last = spec.true_order[-1][1]
    rest = [l for l in choi.labels if l != last]
    x = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    h = (x + x.conj().T) / 2
    term = Op(WireSpace((*rest, last), (2,) * 6), np.kron(h, np.diag([1.0, -1.0])))
    perturbed = Op(choi.space, choi.matrix + 0.05 * sort_wires(term).matrix)
    assert np.linalg.eigvalsh(perturbed.matrix).min() < -0.1
    assert reference_check(perturbed, spec.true_order).ok
    zero = Op(choi.space, np.zeros_like(choi.matrix))
    y = rng.standard_normal(choi.matrix.shape) + 1j * rng.standard_normal(choi.matrix.shape)
    non_hermitian = Op(choi.space, y / np.trace(y))
    for op in (zero, perturbed, non_hermitian):
        with pytest.raises(ValueError):
            check_comb_condition(op, spec.true_order)


def test_full_rank_noisy_comb_is_checked_on_its_factor():
    rng = np.random.default_rng(2)
    spec = gen_unitary_comb(4, 2, 2, rng)
    choi = build_choi(spec)
    noisy = Op(choi.space, 0.9 * choi.matrix + 0.1 * np.eye(choi.space.dim) / choi.space.dim)
    for order in [spec.true_order, spec.true_order[::-1]] + _sampled_orders(4, rng, 3):
        assert 0.0 < _assert_same(noisy, order).residual_bound <= 1e-13
    # white noise is a valid comb in every order, so mixing keeps the true one
    assert check_comb_condition(noisy, spec.true_order).ok


def test_rank_one_global_unitary_takes_the_factor_and_fails_every_order():
    choi = global_unitary_choi(3, 4)
    for order in enumerate_orders(3):
        got = _assert_same(choi, order)
        assert not got.ok
        assert 0.0 < got.residual_bound < 1e-12


def test_qutrit_comb_matches_the_reference():
    rng = np.random.default_rng(3)
    spec = gen_unitary_comb(3, 3, 2, rng)
    choi = build_choi(spec)
    assert _assert_same(choi, spec.true_order, spec).ok
    for order in _sampled_orders(3, rng, 4):
        assert _assert_same(choi, order, spec).residual_bound > 0.0


@pytest.mark.parametrize("n, memory_dim", [(3, 2), (4, 1), (4, 2), (5, 2), (5, 4)])
def test_haar_comb_factor_bound_is_small(n, memory_dim):
    spec = gen_unitary_comb(n, 2, memory_dim, np.random.default_rng([n, memory_dim]))
    check = check_comb_condition(build_choi(spec), spec.true_order)
    assert check.ok
    assert 0.0 < check.residual_bound < 1e-12


def _counting(monkeypatch, name):
    """Replace ``combs.<name>`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(combs, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(combs, name, counted)
    return calls


def _orders_with_the_true_one(spec, rng, samples):
    others = [o for o in _sampled_orders(spec.n, rng, samples) if o != spec.true_order]
    return [spec.true_order] + others[: samples - 1]


def test_an_operator_is_factored_once_for_many_orders(monkeypatch):
    rng = np.random.default_rng(5)
    spec = gen_unitary_comb(4, 2, 2, rng)
    choi = build_choi(spec)
    orders = _orders_with_the_true_one(spec, rng, 20)
    calls = _counting(monkeypatch, "_pivoted_cholesky")
    # a session opened on the operator shares the checker's factor
    session = OracleSession.from_choi(choi)
    checks = [check_comb_condition(choi, order) for order in orders]
    assert len(calls) == 1
    assert session.wires == choi.labels
    assert sum(c.ok for c in checks) == 1
    for order, check in zip(orders, checks):
        # a new operator on the same matrix carries no memo
        assert check == check_comb_condition(Op(choi.space, choi.matrix), order)
    assert len(calls) == 1 + len(orders)


def test_a_spec_is_simulated_once_for_many_orders(monkeypatch):
    rng = np.random.default_rng(6)
    spec = gen_unitary_comb(4, 2, 2, rng)
    orders = _orders_with_the_true_one(spec, rng, 20)
    calls = _counting(monkeypatch, "choi_factor")
    checks = [check_comb_condition(spec, order) for order in orders]
    assert len(calls) == 1
    for order, check in zip(orders, checks):
        assert check == check_comb_condition(dataclasses.replace(spec), order)
    assert len(calls) == 1 + len(orders)


def test_a_refused_operator_is_refused_again():
    choi = _indefinite_with_zero_diagonal_block(2, 3)
    order = enumerate_orders(2)[0]
    for _ in range(2):
        with pytest.raises(ValueError, match="positive semidefinite"):
            check_comb_condition(choi, order)


def _random_state(n, seed):
    """A full-rank state on ``A1..An, B1..Bn``: its inputs are not maximally mixed."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4**n, 4**n)) + 1j * rng.standard_normal((4**n, 4**n))
    labels = tuple(f"A{k}" for k in range(1, n + 1)) + tuple(f"B{k}" for k in range(1, n + 1))
    return Op(WireSpace(labels, (2,) * (2 * n)), x @ x.conj().T / np.vdot(x, x).real)


def _combs_to_walk():
    for n in (2, 3, 4):
        rng = np.random.default_rng([n, 40])
        yield f"unitary-1 n={n}", gen_unitary_comb(n, 2, 1, rng)
        yield f"unitary-2 n={n}", gen_unitary_comb(n, 2, 2, rng)
        yield f"memoryless n={n}", gen_memoryless_comb(n, 2, rng)
        yield f"memoryless+constant n={n}", gen_memoryless_comb(n, 2, rng, constant_tooth=True)
    yield "unitary-2 n=3 dense", build_choi(gen_unitary_comb(3, 2, 2, np.random.default_rng(41)))
    yield "signaling", gen_signaling_comb(np.random.default_rng(42))
    yield "fig3", gen_fig3_comb()
    yield "global unitary", global_unitary_choi(3, 4)
    yield "random state", _random_state(2, 43)


WALKED = dict(_combs_to_walk())


@pytest.mark.parametrize("name", list(WALKED))
def test_the_walk_finds_exactly_the_orders_the_checker_passes(name):
    choi = WALKED[name]
    space = verified_factor(choi)[0]
    n = len(wire_roles(space.labels)[0])
    checks = {o: check_comb_condition(choi, o) for o in enumerate_orders(n)}
    found, nodes = compatible_orders(choi)
    assert set(found) == {o for o, c in checks.items() if c.ok}
    assert list(found) == sorted(found)  # in lexicographic order of the pairs
    assert nodes <= math.comb(2 * n, n) - 1
    for order, check in found.items():
        assert check.ok and check.tol == 1e-9
        assert check.residual_bound == checks[order].residual_bound
        np.testing.assert_allclose(check.deviations, checks[order].deviations, rtol=0, atol=1e-14)
        assert check.worst_deviation == max(check.deviations)
    if name == "random state":  # the empty prefix already fails
        assert (found, nodes) == ({}, 1)
    if name == "global unitary":  # every first tooth fails
        assert (found, nodes) == ({}, 1 + n**2)


def test_every_node_deviation_matches_the_checker_on_every_path():
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(44))
    space, g, _ = verified_factor(spec)
    ins, outs = wire_roles(space.labels)
    for order in enumerate_orders(3):
        check = check_comb_condition(spec, order)
        for k, dev in enumerate(check.deviations):
            early = {a for a, _ in order[:k]} | {b for _, b in order[:k]}
            node = combs._node_deviation(
                space,
                g,
                [a for a in ins if a in early] + [b for b in outs if b in early],
                [a for a in ins if a not in early],
                [b for b in outs if b not in early],
            )
            assert abs(node - dev) <= 1e-14, (order, k)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_comb_with_one_order_takes_one_plus_the_sum_of_squares_nodes(n):
    spec = gen_unitary_comb(n, 2, 2, np.random.default_rng([n, 45]))
    found, nodes = compatible_orders(spec)
    assert list(found) == [spec.true_order]
    assert nodes == 1 + sum(m * m for m in range(2, n + 1))


def test_the_walk_simulates_a_spec_once(monkeypatch):
    spec = gen_unitary_comb(4, 2, 2, np.random.default_rng(6))
    calls = _counting(monkeypatch, "choi_factor")
    found, _ = compatible_orders(spec)
    assert len(calls) == 1
    assert check_comb_condition(spec, spec.true_order).ok
    assert compatible_orders(spec) == (found, 30)
    assert len(calls) == 1
    assert compatible_orders(dataclasses.replace(spec))[0].keys() == found.keys()
    assert len(calls) == 2
