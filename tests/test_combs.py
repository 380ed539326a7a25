"""Comb construction, the comb-condition checker, and the generator families."""

import itertools
import math
import pickle
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_correlation_norm

import causalcomb.combs as combs
from causalcomb.combs import (
    CombSpec,
    RejectionBudgetError,
    build_choi,
    check_comb_condition,
    enumerate_orders,
    gen_fig3_comb,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_totalorder_comb,
    gen_unitary_comb,
    pairwise_correlation_floor,
    trace_out_tooth,
)
from causalcomb.serialize import comb_to_dict, load_comb, save_comb
from causalcomb.tensors import (
    Op,
    WireSpace,
    contract_wire,
    correlation_norm,
    partial_trace,
    reorder,
    trace_norm,
)


def test_spec_validation_rejects_nonunitary():
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        CombSpec(1, 2, 1, np.ones(1), (bad,), (1,), (1,))


def test_spec_validation_rejects_bad_permutation():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        CombSpec(2, 2, 1, np.ones(1), (u[:2, :2], u[:2, :2]), (1, 1), (1, 2))


def test_identity_comb_choi_is_bell_pairs():
    """A single identity tooth gives the maximally entangled Choi state."""
    spec = CombSpec(1, 2, 1, np.ones(1), (np.eye(2, dtype=complex),), (1,), (1,))
    choi = build_choi(spec)
    assert choi.labels == ("A1", "B1")
    expect = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expect[2 * i + i, 2 * j + j] = 0.5
    np.testing.assert_allclose(choi.matrix, expect, atol=1e-12)


def test_choi_is_positive_unit_trace():
    rng = np.random.default_rng(0)
    spec = gen_unitary_comb(3, 2, 2, rng)
    choi = build_choi(spec)
    assert np.trace(choi.matrix) == pytest.approx(1.0)
    assert np.linalg.eigvalsh(choi.matrix).min() > -1e-12
    assert choi.labels == ("A1", "A2", "A3", "B1", "B2", "B3")


def test_choi_input_marginal_is_maximally_mixed():
    """Tracing out all outputs must leave I/d^n regardless of the teeth."""
    rng = np.random.default_rng(1)
    spec = gen_unitary_comb(2, 2, 4, rng)
    choi = build_choi(spec)
    marg = partial_trace(choi, ["A1", "A2"])
    np.testing.assert_allclose(marg.matrix, np.eye(4) / 4, atol=1e-12)


def test_true_order_passes_checker():
    rng = np.random.default_rng(2)
    for n, dm in [(2, 1), (2, 2), (3, 2), (4, 4)]:
        spec = gen_unitary_comb(n, 2, dm, rng)
        check = check_comb_condition(build_choi(spec), spec.true_order)
        assert check.ok, (n, dm, check.worst_deviation)
        assert check.worst_deviation < 1e-9


def test_checker_deviation_list_has_one_entry_per_prefix():
    rng = np.random.default_rng(3)
    spec = gen_unitary_comb(3, 2, 2, rng)
    check = check_comb_condition(build_choi(spec), spec.true_order)
    assert len(check.deviations) == 3


def test_signaling_comb_rejects_reversed_order():
    spec = gen_signaling_comb()
    choi = build_choi(spec)
    ok = check_comb_condition(choi, spec.true_order)
    assert ok.ok
    reversed_order = (("A2", "B2"), ("A1", "B1"))
    bad = check_comb_condition(choi, reversed_order)
    assert not bad.ok
    assert bad.worst_deviation == pytest.approx(1.0, abs=1e-9)


def test_signaling_comb_copies_first_input_to_second_output():
    spec = gen_signaling_comb()
    choi = build_choi(spec)
    pair = partial_trace(choi, ["A1", "B2"])
    # classical copy: perfectly correlated in the computational basis
    assert correlation_norm(pair, ["A1"]) == pytest.approx(1.0, abs=1e-9)


def test_signaling_dressing_keeps_the_gap():
    rng = np.random.default_rng(4)
    for _ in range(5):
        spec = gen_signaling_comb(rng)
        choi = build_choi(spec)
        assert check_comb_condition(choi, spec.true_order).ok
        bad = check_comb_condition(choi, (("A2", "B2"), ("A1", "B1")))
        assert bad.worst_deviation >= 0.1


def test_trace_out_tooth_reduces_to_smaller_comb():
    rng = np.random.default_rng(5)
    spec = gen_unitary_comb(3, 2, 2, rng)
    choi = build_choi(spec)
    last_in, last_out = spec.true_order[-1]
    reduced = trace_out_tooth(choi, last_in, last_out)
    assert set(reduced.labels) == set(choi.labels) - {last_in, last_out}
    assert np.trace(reduced.matrix) == pytest.approx(1.0)
    assert check_comb_condition(reduced, spec.true_order[:-1]).ok


def test_removing_nonfinal_tooth_depends_on_fed_state():
    """A tooth is only safely removable when nothing downstream sees it.

    For the signaling comb, wiring the first tooth shut leaves a residual
    that shifts with the state fed into A1 (output 2 carries a copy), so
    the (A1, B1) pair cannot be the temporally last tooth.  The true last
    pair leaves an invariant residual.
    """
    spec = gen_signaling_comb()
    choi = build_choi(spec)

    def residual(in_label, out_label, state):
        fed = contract_wire(choi, in_label, 2.0 * state.T)
        keep = [l for l in fed.labels if l != out_label]
        return partial_trace(fed, keep)

    zero = np.diag([1.0, 0.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2
    wrong = trace_norm(residual("A1", "B1", zero).matrix - residual("A1", "B1", mixed).matrix)
    right = trace_norm(residual("A2", "B2", zero).matrix - residual("A2", "B2", mixed).matrix)
    assert wrong >= 0.5
    assert right < 1e-10


def test_enumerate_orders_counts():
    assert len(enumerate_orders(2)) == 4
    assert len(enumerate_orders(3)) == 36
    orders = enumerate_orders(2)
    assert (("A1", "B1"), ("A2", "B2")) in orders
    assert (("A2", "B1"), ("A1", "B2")) in orders


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_orders_matches_per_order_construction(n):
    # the reference builds fresh pairs and labels for every order
    reference = [
        tuple((f"A{i}", f"B{j}") for i, j in zip(ins, outs))
        for ins in itertools.permutations(range(1, n + 1))
        for outs in itertools.permutations(range(1, n + 1))
    ]
    assert enumerate_orders(n) == reference


def test_enumerate_orders_share_their_teeth():
    orders = enumerate_orders(5)
    assert len({id(tooth) for order in orders for tooth in order}) == 25


def test_enumerate_orders_memory():
    # building fresh pairs for every order takes about 12 MB at n = 5
    tracemalloc.start()
    try:
        orders = enumerate_orders(5)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(orders) == 14400
    assert size < 2 * 2**20


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_enumerate_orders_rejects_non_integers(n):
    with pytest.raises(TypeError):
        enumerate_orders(n)


@pytest.mark.parametrize("n", [0, -2])
def test_enumerate_orders_rejects_n_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        enumerate_orders(n)


@pytest.mark.parametrize("n", [7, 8])
def test_enumerate_orders_refuses_more_orders_than_the_cap_before_building(n):
    # n = 7 would build 25,401,600 orders, about 3 GB; listing its 5,040
    # input permutations alone would take far more than the bound below
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"would have {math.factorial(n) ** 2} entries"):
            enumerate_orders(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


@pytest.mark.parametrize("n", [1000, 10**5])
def test_enumerate_orders_refuses_a_huge_n_without_counting_its_orders(n):
    # (1000!)^2 has over 4,300 digits, which str() refuses, and (10^5!)^2
    # takes 0.37 s to form
    start = time.perf_counter()
    with pytest.raises(ValueError, match="would have over 10\\^39 entries, over the cap of"):
        enumerate_orders(n)
    assert time.perf_counter() - start < 0.1


def test_enumerate_orders_allows_exactly_the_cap(monkeypatch):
    monkeypatch.setattr(combs, "MAX_ENTRIES", 36)
    assert len(enumerate_orders(3)) == 36
    with pytest.raises(ValueError, match="over the cap of 36"):
        enumerate_orders(4)


def test_true_order_and_labels_are_derived_once_per_spec():
    spec = gen_unitary_comb(4, 2, 2, np.random.default_rng(5))
    per_tooth = tuple(
        (f"A{spec.input_perm[t]}", f"B{spec.output_perm[t]}") for t in range(spec.n)
    )
    assert spec.true_order == per_tooth
    assert spec.input_labels == ("A1", "A2", "A3", "A4")
    assert spec.output_labels == ("B1", "B2", "B3", "B4")
    for name in ("true_order", "input_labels", "output_labels"):
        assert getattr(spec, name) is getattr(spec, name)


def test_replaced_spec_derives_its_own_true_order():
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(6))
    first = spec.true_order
    other = replace(spec, input_perm=(3, 1, 2), output_perm=(2, 3, 1))
    assert other.true_order == (("A3", "B2"), ("A1", "B3"), ("A2", "B1"))
    assert spec.true_order is first


def test_cached_derivations_leave_equality_repr_files_and_pickles_alone(tmp_path):
    # one tooth on one-dimensional wires and memory: its arrays have a
    # single entry, so two distinct specs compare with ``==``
    tiny = gen_unitary_comb(1, 1, 1, np.random.default_rng(7))
    fresh = replace(tiny)
    before = repr(tiny)
    assert tiny.true_order == (("A1", "B1"),)
    assert repr(tiny) == before
    assert tiny == fresh and fresh == tiny

    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(8))
    written = comb_to_dict(spec)
    for name in ("true_order", "input_labels", "output_labels"):
        getattr(spec, name)
    assert comb_to_dict(spec).keys() == written.keys()
    save_comb(spec, tmp_path / "comb.json")
    loaded = load_comb(tmp_path / "comb.json")
    assert repr(loaded) == repr(spec)
    assert loaded.true_order == spec.true_order
    copied = pickle.loads(pickle.dumps(spec))
    assert repr(copied) == repr(spec)
    assert copied.true_order == spec.true_order
    assert copied.input_labels == spec.input_labels


def test_true_order_reads_build_each_label_once(monkeypatch):
    spec = gen_unitary_comb(5, 2, 1, np.random.default_rng(9))
    calls = []
    label = combs.input_label
    monkeypatch.setattr(combs, "input_label", lambda i: calls.append(i) or label(i))
    orders = {id(spec.true_order) for _ in range(10_000)}
    assert len(orders) == 1
    assert sorted(calls) == [1, 2, 3, 4, 5]


def test_memoryless_comb_factorizes():
    rng = np.random.default_rng(6)
    spec = gen_memoryless_comb(3, 2, rng)
    assert spec.memory_dim == 1
    choi = build_choi(spec)
    # product structure: every paired marginal is pure and uncorrelated with the rest
    for a, b in spec.true_order:
        pair = partial_trace(choi, [a, b])
        purity = float(np.trace(pair.matrix @ pair.matrix).real)
        assert purity == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("wire_dim, memory_dim, name", [(0, 2, "wire_dim"), (2, 0, "memory_dim")])
def test_comb_spec_refuses_a_dimension_below_one(wire_dim, memory_dim, name):
    """``d = 0`` used to fail in a NumPy reduction, and ``d_M = 0`` as an
    unnormalized ``psi0``."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
        gen_unitary_comb(2, wire_dim, memory_dim, rng)
    if name == "wire_dim":
        with pytest.raises(ValueError, match="^wire_dim must be at least 1"):
            gen_memoryless_comb(2, 0, rng)


def test_memoryless_constant_tooth_hides_one_output():
    rng = np.random.default_rng(7)
    spec = gen_memoryless_comb(3, 2, rng, constant_tooth=True)
    assert spec.memory_dim == 2
    choi = build_choi(spec)
    floors = []
    for a in spec.input_labels:
        row = [correlation_norm(partial_trace(choi, [a, b]), [a]) for b in spec.output_labels]
        floors.append(max(row))
    # exactly one input (the constant tooth's) is correlated with no output
    assert sum(f < 1e-9 for f in floors) == 1


def test_totalorder_comb_meets_floor():
    rng = np.random.default_rng(8)
    spec = gen_totalorder_comb(2, 2, 2, rng, corr_floor=0.05)
    floor = pairwise_correlation_floor(spec)
    assert floor >= 0.05
    # the floor read from the purification is the one the dense Choi gives
    choi = build_choi(spec)
    dense = min(
        correlation_norm(partial_trace(choi, [a, b]), [a])
        for i, (a, _) in enumerate(spec.true_order)
        for _, b in spec.true_order[i:]
    )
    assert floor == pytest.approx(dense, abs=1e-12)
    assert spec.metadata["achieved_chi_min"] == pytest.approx(floor)
    assert check_comb_condition(build_choi(spec), spec.true_order).ok


def _reference_floor(spec):
    """The correlation floor one dense pair at a time, with the per-pair formula."""
    choi = build_choi(spec)
    return min(
        reference_correlation_norm(partial_trace(choi, [a, b]), [a])
        for i, (a, _) in enumerate(spec.true_order)
        for _, b in spec.true_order[i:]
    )


@pytest.mark.parametrize("n, d_m", [(1, 1), (2, 2), (3, 4), (4, 1), (4, 2)])
def test_pairwise_correlation_floor_matches_the_per_pair_loop(n, d_m):
    rng = np.random.default_rng([44, n, d_m])
    for _ in range(3):
        spec = gen_unitary_comb(n, 2, d_m, rng)
        want = _reference_floor(spec)
        assert pairwise_correlation_floor(spec) == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_totalorder_generator_draws_what_the_per_pair_loop_draws(n, monkeypatch):
    got = gen_totalorder_comb(n, 2, 2, np.random.default_rng([45, n]))
    monkeypatch.setattr(combs, "pairwise_correlation_floor", _reference_floor)
    want = gen_totalorder_comb(n, 2, 2, np.random.default_rng([45, n]))
    assert (got.input_perm, got.output_perm) == (want.input_perm, want.output_perm)
    np.testing.assert_array_equal(got.psi0, want.psi0)
    for u, v in zip(got.unitaries, want.unitaries, strict=True):
        np.testing.assert_array_equal(u, v)
    chi, want_chi = got.metadata["achieved_chi_min"], want.metadata["achieved_chi_min"]
    assert chi == pytest.approx(want_chi, rel=0, abs=1e-12)


def test_totalorder_rejection_budget_error_carries_best():
    rng = np.random.default_rng(9)
    with pytest.raises(RejectionBudgetError) as info:
        gen_totalorder_comb(2, 2, 2, rng, corr_floor=10.0, budget=5)
    assert info.value.best_floor < 10.0
    assert info.value.best_spec is not None


def test_fig3_comb_pairwise_blind_but_ordered():
    spec = gen_fig3_comb()
    choi = build_choi(spec)
    assert check_comb_condition(choi, spec.true_order).ok
    worst = 0.0
    for a in spec.input_labels:
        for b in spec.output_labels:
            worst = max(worst, correlation_norm(partial_trace(choi, [a, b]), [a]))
    assert worst < 1e-10
    # yet the four-wire joint does not factorize over A3
    joint = partial_trace(choi, ["A1", "A2", "A3", "B3"])
    rest = partial_trace(choi, ["A1", "A2", "B3"])
    prod = Op(
        WireSpace(("A1", "A2", "B3", "A3"), (2, 2, 2, 2)),
        np.kron(rest.matrix, np.eye(2) / 2),
    )
    assert trace_norm(joint.matrix - reorder(prod, joint.labels).matrix) >= 0.1


def test_unitary_comb_hidden_perms_are_recorded():
    rng = np.random.default_rng(10)
    spec = gen_unitary_comb(3, 2, 2, rng, input_perm=(2, 3, 1), output_perm=(3, 1, 2))
    assert spec.true_order == (("A2", "B3"), ("A3", "B1"), ("A1", "B2"))


@pytest.mark.parametrize(
    "n, d, d_m",
    [(2, 2, 1), (4, 2, 1), (2, 1, 2), (1, 1, 2)],
    ids=["d_M=1", "n=4 d_M=1", "d=1", "n=1 d=1"],
)
def test_a_totalorder_floor_no_draw_can_reach_is_refused_before_the_first_draw(n, d, d_m):
    """Without memory an input never reaches a later tooth's output, and on
    one-dimensional wires no pair is correlated: the floor is exactly 0."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="no draw can reach pairwise correlation 1e-20"):
        gen_totalorder_comb(n, d, d_m, rng, corr_floor=1e-20)
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn
    assert gen_totalorder_comb(n, d, d_m, rng, corr_floor=0.0).metadata["achieved_chi_min"] < 1e-12


def test_one_tooth_without_memory_still_reaches_a_floor():
    spec = gen_totalorder_comb(1, 2, 1, np.random.default_rng(0), corr_floor=0.05)
    assert spec.metadata["achieved_chi_min"] >= 0.05
