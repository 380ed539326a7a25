"""Order-discovery algorithms driven through the black-box session only."""

import ast
import dataclasses
import functools
import inspect
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import (
    global_unitary_choi,
    pauli6,
    rank_two_povm,
    reference_correlation_norm,
    session_born_table,
)
from test_verdict_pins import PINS
from test_verdict_pins import _comb as _verdict_comb

import causalcomb.discovery as discovery
import causalcomb.oracle as oracle
from causalcomb.combs import (
    build_choi,
    check_comb_condition,
    compatible_orders,
    enumerate_orders,
    gen_fig3_comb,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_totalorder_comb,
    gen_unitary_comb,
    tooth,
)
from causalcomb.discovery import (
    ASSUMPTION_VIOLATED,
    NOT_A_COMB,
    NOT_MEMORYLESS,
    correlation_error_bound,
    correlation_sample_size,
    discover_general,
    discover_memoryless,
    discover_totalorder,
    find_last,
    independence_matrix,
    xi_constant,
)
from causalcomb.oracle import OracleConfig, OracleSession, PrepRecipe, swap_test_sample_size
from causalcomb.povm import (
    IcPovm,
    ic_povm_for_dim,
    povm_preset,
    reconstruct_pair,
    sic_qubit,
    state_set_of,
)
from causalcomb.tensors import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Op,
    WireSpace,
    partial_trace,
)


def _session(spec, mode="exact", seed=0, policy="actual"):
    return OracleSession(
        spec, OracleConfig(mode=mode, seed=seed, query_policy=policy)
    )


def test_oracle_opacity_of_discovery_source():
    """Discovery never peeks: no spec, no Choi construction, no session internals.

    It reads no ``_``-prefixed attribute off anything, a session included,
    imports no ``_``-prefixed name from another module, and names none of
    the helpers that read a factor of the hidden process.  Nor does it
    draw, bill or marginalize shots: the session hands over a batch's pair
    frequencies already billed.
    """
    src = inspect.getsource(discovery)
    for forbidden in (
        *("_choi", "_spec", "build_choi", "CombSpec", "true_order"),
        *("sample_batch", "note_virtual_queries", "np.split"),
    ):
        assert forbidden not in src, forbidden
    factor_helpers = {"fold", "marginal", "pair_marginals", "choi_factor", "verified_factor"}
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_"), f"reads .{node.attr}"
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert not alias.name.startswith("_"), f"imports {alias.name}"
        named = {getattr(node, f, None) for f in ("id", "attr", "name", "asname")}
        assert not named & factor_helpers, named & factor_helpers


def test_xi_constant_sic_pair():
    sic = sic_qubit()
    want = 1.0 / (96.0 * np.sqrt(3.0))
    assert xi_constant(sic, sic) == pytest.approx(want, rel=1e-12)


def test_correlation_bound_roundtrip():
    sic = sic_qubit()
    n = correlation_sample_size(0.5, 0.05, sic, sic)
    eps = correlation_error_bound(n, 0.05, sic, sic)
    assert eps <= 0.5
    assert correlation_error_bound(n - 1, 0.05, sic, sic) > 0.5 * (1 - 1e-6)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda sic: correlation_sample_size(-1.0, 0.05, sic, sic), "eps"),
        (lambda sic: correlation_sample_size(0.0, 0.05, sic, sic), "eps"),
        (lambda sic: correlation_sample_size(float("nan"), 0.05, sic, sic), "eps"),
        (lambda sic: correlation_sample_size(0.5, 1.5, sic, sic), "kappa"),
        (lambda sic: correlation_sample_size(0.5, 0.0, sic, sic), "kappa"),
        (lambda sic: correlation_error_bound(-5, 0.05, sic, sic), "n_shots"),
        (lambda sic: correlation_error_bound(0, 0.05, sic, sic), "n_shots"),
        (lambda sic: correlation_error_bound(1000, 0.0, sic, sic), "kappa"),
        (lambda sic: correlation_error_bound(1000, 1.0, sic, sic), "kappa"),
        (lambda sic: correlation_error_bound(float("inf"), 0.05, sic, sic), "n_shots"),
        (lambda sic: correlation_error_bound(1.5, 0.05, sic, sic), "n_shots"),
        (lambda sic: correlation_error_bound(True, 0.05, sic, sic), "n_shots"),
    ],
)
def test_budget_helpers_name_an_argument_out_of_their_domain(call, name):
    """``eps = -1`` used to size a budget as ``eps = 1`` did, ``kappa = 1.5``
    returned a budget, and zeros or negative counts broke inside the formula.
    ``n_shots`` = inf gave 0.0, 1.5 and True a bound for shots never taken."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(sic_qubit())


@pytest.mark.parametrize(
    "call",
    [lambda sic, basis: correlation_sample_size(0.1, 0.05, basis, sic),
     lambda sic, basis: correlation_error_bound(1000, 0.05, sic, basis),
     lambda sic, basis: xi_constant(basis, sic),
     lambda sic, basis: xi_constant(sic, basis)],
    ids=["sample_size", "error_bound", "xi_basis_first", "xi_basis_second"],
)
def test_budget_helpers_refuse_a_povm_that_is_not_informationally_complete(call):
    """The computational basis has ``xi = 0``: the budgets divided by zero,
    and ``xi_constant`` returned 0.0."""
    basis = IcPovm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), name="basis")
    with pytest.raises(ValueError, match="^POVM 'basis' is not informationally complete$"):
        call(sic_qubit(), basis)


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("algorithm", ["totalorder", "memoryless"])
def test_promise_algorithms_refuse_a_threshold_that_is_not_positive(algorithm, value):
    """Such a value once ran and reported a broken promise; it is refused,
    named, before anything is billed."""
    spec = gen_memoryless_comb(3, 2, np.random.default_rng(1))
    session = _session(spec, mode="sampled", seed=2)
    run, name = {
        "totalorder": (discover_totalorder, "chi_min"),
        "memoryless": (discover_memoryless, "threshold"),
    }[algorithm]
    with pytest.raises(ValueError, match=f"^{name} must be a positive finite number"):
        run(session, sic_qubit(), 1000, value)
    assert session.query_count == 0


def test_find_last_rejects_wrong_pair_on_signaling_comb():
    spec = gen_signaling_comb()
    res = find_last(_session(spec), delta=1e-6, kappa=0.05)
    assert res.pair is not None
    in_label, out_label = res.pair
    assert in_label == "A2"  # A1 feeds B2 a copy, so A1 cannot be last
    # at least one candidate pair before the accepted one was rejected
    assert res.pairs_tested >= 2
    assert max(res.rejection_gaps.values()) > 0.1


def _xor_loop_session():
    """A pseudo-process where both outputs equal the XOR of both inputs.

    No output can be emitted until both inputs have arrived, so no pair
    can be temporally last — every candidate leaks the other input.
    Built from its Choi operator, since no comb spec generates it.
    (Merely crossing wires, e.g. tooth one mapping A2 to B1, is NOT such
    a counterexample: that is an ordinary comb with a hidden
    permutation, and discovery finds it.)
    """
    mat = np.zeros((16, 16))
    for a1 in range(2):
        for a2 in range(2):
            x = a1 ^ a2
            idx = ((a1 * 2 + a2) * 2 + x) * 2 + x  # wires (A1, A2, B1, B2)
            mat[idx, idx] = 0.25
    choi = Op(WireSpace(("A1", "A2", "B1", "B2"), (2, 2, 2, 2)), mat)
    return OracleSession(choi, OracleConfig(seed=0))


def _last_probe_comb():
    """Two classical teeth read along one Bloch axis, built so that the
    search runs as long as its loop bounds allow.

    B1 copies A1 and B2 is the XOR of both inputs, each input measured
    along the axis orthogonal to r1 - r0 and r2 - r0 of the probe states'
    Bloch vectors.  Probes 0, 1 and 2 then give the same residual state,
    so every rejected pair is rejected only at the last probe, and the
    one valid last tooth, (A2, B2), is the last pair in search order.
    """
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    probes = state_set_of(ic_povm_for_dim(2)).elements
    r = [np.real([np.trace(p @ s) for s in paulis]) for p in probes]
    axis = np.cross(r[1] - r[0], r[2] - r[0])
    _, vecs = np.linalg.eigh(sum(a * s for a, s in zip(axis, paulis)))
    # the Choi operator sees the transpose of what is fed to its input
    proj_in = [np.outer(v.conj(), v) for v in vecs.T]
    proj_out = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    mat = sum(
        functools.reduce(np.kron, [proj_in[a1], proj_in[a2], proj_out[a1], proj_out[a1 ^ a2]])
        for a1 in range(2)
        for a2 in range(2)
    ) / 4
    choi = Op(WireSpace(("A1", "A2", "B1", "B2"), (2, 2, 2, 2)), mat)
    return choi, OracleSession(choi, OracleConfig(query_policy="theoretical"))


def test_theoretical_bound_covers_the_longest_search():
    """n = 2, d = 2: stage 2 runs 4 x 7 tests and stage 1 runs 7, 35 in all."""
    choi, session = _last_probe_comb()
    delta, kappa = 0.1, 0.05
    report = discover_general(session, delta=delta, kappa=kappa)
    assert report.ok
    assert check_comb_condition(choi, report.order).ok
    assert [s["swap_tests"] for s in report.diagnostics["stages"]] == [28, 7]
    runs = swap_test_sample_size(delta / 4.0, kappa)
    assert report.queries == 2 * runs * 35
    assert report.theoretical_queries >= report.queries


def test_each_stage_records_its_margins_around_delta():
    """The accepted gap is at most delta, and every rejection gap above it."""
    spec = gen_unitary_comb(4, 2, 2, np.random.default_rng(21))
    delta = 1e-6
    report = discover_general(_session(spec), delta=delta)
    assert report.ok
    stages = report.diagnostics["stages"]
    for stage in stages:
        assert stage["accepted_gap"] <= delta
        assert stage["min_rejection_gap"] is None or delta < stage["min_rejection_gap"]
    assert stages[0]["min_rejection_gap"] == min(
        find_last(_session(spec), delta, 0.05).rejection_gaps.values()
    )
    assert stages[-1]["min_rejection_gap"] is None  # one tooth left: nothing to reject
    unitary = discover_general(OracleSession(global_unitary_choi(2, 0)), delta=delta)
    assert unitary.diagnostics["stages"][0]["accepted_gap"] is None
    assert unitary.diagnostics["stages"][0]["min_rejection_gap"] > delta


@pytest.mark.parametrize(
    "delta, kappa, name",
    [(8.0, 0.05, "delta"), (-1.0, 0.05, "delta"), (0.0, 0.05, "delta"),
     (float("nan"), 0.05, "delta"), (1e-3, 1.0, "kappa"), (1e-3, 0.0, "kappa")],
)
def test_find_last_names_an_out_of_range_delta_or_kappa(delta, kappa, name):
    """``delta = 8`` used to be refused as ``need 0 < eps <= 1``, an ``eps``
    no caller sets; now the check names the argument, before any billing."""
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(0))
    session = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    for search in (find_last, discover_general):
        with pytest.raises(ValueError, match=f"^{name} must be in"):
            search(session, delta, kappa)
    assert session.query_count == 0


def test_find_last_accepts_the_largest_delta():
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(0))
    assert find_last(OracleSession(spec), 4.0, 0.05).pair is not None


def test_find_last_on_xor_loop():
    res = find_last(_xor_loop_session(), delta=1e-6, kappa=0.05)
    assert res.pair is None
    assert res.pairs_tested == 4  # exhausted every candidate


def test_discover_general_exact_random_combs():
    rng = np.random.default_rng(1)
    for n, dm in [(2, 1), (2, 2), (3, 2), (3, 4)]:
        spec = gen_unitary_comb(n, 2, dm, rng)
        report = discover_general(_session(spec))
        assert report.ok, (n, dm, report.failure)
        check = check_comb_condition(build_choi(spec), report.order, tol=1e-6)
        assert check.ok, (n, dm, check.worst_deviation)


def test_discover_general_fig3():
    report = discover_general(_session(gen_fig3_comb()))
    assert report.ok
    spec = gen_fig3_comb()
    assert check_comb_condition(build_choi(spec), report.order, tol=1e-6).ok


def test_discover_general_not_a_comb_failure():
    report = discover_general(_xor_loop_session())
    assert not report.ok
    assert report.failure == NOT_A_COMB


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_discover_general_global_unitary_is_not_a_comb(n, seed):
    session = OracleSession(global_unitary_choi(n, seed))
    report = discover_general(session)
    assert report.failure == NOT_A_COMB
    assert report.order is None
    # the very first stage rejects every candidate for the last tooth
    assert len(report.diagnostics["stages"]) == 1
    assert report.diagnostics["stages"][0]["pairs_tested"] == n * n


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checker_rejects_every_order_of_a_global_unitary(seed):
    choi = global_unitary_choi(2, seed)
    orders = enumerate_orders(2)
    assert len(orders) == 4
    for order in orders:
        check = check_comb_condition(choi, order)
        assert not check.ok
        assert check.worst_deviation > 0.5, (order, check.worst_deviation)


def test_discover_general_sampled_two_tooth():
    rng = np.random.default_rng(2)
    hits = 0
    for trial in range(10):
        spec = gen_unitary_comb(2, 2, 2, rng)
        session = _session(spec, mode="sampled", seed=100 + trial)
        report = discover_general(session, delta=0.05, kappa=0.2)
        if report.ok and check_comb_condition(build_choi(spec), report.order, tol=1e-6).ok:
            hits += 1
    # loose delta means occasional misses are expected; most runs should land
    assert hits >= 7


def test_independence_matrix_exact_identity_comb():
    rng = np.random.default_rng(3)
    spec = gen_totalorder_comb(2, 2, 2, rng, corr_floor=0.05)
    session = _session(spec)
    sic = sic_qubit()
    m = independence_matrix(session, sic, n_shots=1000, threshold=0.025)
    assert m.estimates.shape == (2, 2)
    # totally ordered: input 1 correlates with both outputs, input 2 with one
    related = ~m.ind
    assert related.sum() == 3


def test_independence_matrix_fig3_sees_nothing():
    session = _session(gen_fig3_comb())
    m = independence_matrix(session, sic_qubit(), n_shots=1000, threshold=0.01)
    assert m.ind.all()


def test_discover_totalorder_exact():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        spec = gen_totalorder_comb(n, 2, 2, rng, corr_floor=0.05)
        chi = spec.metadata["achieved_chi_min"]
        report = discover_totalorder(_session(spec), sic_qubit(), 1000, chi)
        assert report.ok
        assert report.order == spec.true_order


def test_discover_totalorder_sampled():
    rng = np.random.default_rng(5)
    sic = sic_qubit()
    wins = 0
    for trial in range(5):
        spec = gen_totalorder_comb(2, 2, 2, rng, corr_floor=0.05)
        chi = spec.metadata["achieved_chi_min"]
        shots = correlation_sample_size(chi / 3.0, 0.05 / 4.0, sic, sic)
        session = _session(spec, mode="sampled", seed=200 + trial)
        report = discover_totalorder(session, sic, shots, chi)
        wins += report.ok and report.order == spec.true_order
    assert wins >= 4


def test_discover_totalorder_tie_failure_on_fig3():
    """All-independent estimates make every count zero: unresolvable ties."""
    session = _session(gen_fig3_comb())
    report = discover_totalorder(session, sic_qubit(), 1000, chi_min=0.1)
    assert not report.ok
    assert report.failure == ASSUMPTION_VIOLATED
    assert report.order is not None  # best-effort order still emitted


def test_discover_memoryless_exact():
    rng = np.random.default_rng(6)
    for trial in range(5):
        spec = gen_memoryless_comb(3, 2, rng)
        report = discover_memoryless(_session(spec), sic_qubit(), 1000, threshold=0.1)
        assert report.ok
        assert report.order == spec.true_order


def test_discover_memoryless_constant_tooth():
    rng = np.random.default_rng(7)
    spec = gen_memoryless_comb(3, 2, rng, constant_tooth=True)
    report = discover_memoryless(_session(spec), sic_qubit(), 1000, threshold=0.1)
    assert report.ok
    assert check_comb_condition(build_choi(spec), report.order, tol=1e-6).ok


def test_discover_memoryless_lists_the_pairs_it_guessed():
    """Inputs with no visible partner are paired by index, and the report
    says which: none on Haar product combs, the constant tooth's input,
    and all three inputs of the pairwise-blind fig3 comb."""
    for n in (2, 3, 4):
        spec = gen_memoryless_comb(n, 2, np.random.default_rng([8, n]))
        report = discover_memoryless(_session(spec), sic_qubit(), 0, threshold=0.1)
        assert report.ok and report.diagnostics["paired_by_index"] == []
    spec = gen_memoryless_comb(3, 2, np.random.default_rng(7), constant_tooth=True)
    report = discover_memoryless(_session(spec), sic_qubit(), 0, threshold=0.1)
    assert len(report.diagnostics["paired_by_index"]) == 1
    assert report.diagnostics["paired_by_index"][0] in report.order
    report = discover_memoryless(_session(gen_fig3_comb()), sic_qubit(), 0, threshold=0.05)
    assert report.ok and report.diagnostics["paired_by_index"] == list(report.order)


def test_every_invalid_memoryless_order_on_fig3_is_a_reported_guess():
    """Under all 36 relabelings of fig3 the report is ok, and the checker
    rejects 24 of the orders; each of those rests on index pairs."""
    base = gen_fig3_comb()
    rejected = 0
    for inputs in itertools.permutations((1, 2, 3)):
        for outputs in itertools.permutations((1, 2, 3)):
            spec = dataclasses.replace(base, input_perm=inputs, output_perm=outputs)
            report = discover_memoryless(_session(spec), sic_qubit(), 0, threshold=0.05)
            assert report.ok
            if not check_comb_condition(spec, report.order).ok:
                rejected += 1
                assert len(report.diagnostics["paired_by_index"]) == 3
    assert rejected == 24


def test_discover_memoryless_reports_a_broken_promise():
    """A1 reaches both B1 and B2 in the signaling comb: not a product of teeth."""
    report = discover_memoryless(
        _session(gen_signaling_comb()), sic_qubit(), 1000, threshold=0.1
    )
    assert not report.ok
    assert report.failure == NOT_MEMORYLESS
    assert report.order is not None  # best-effort order still emitted
    assert (~(report.diagnostics["estimates"] <= 0.1)).sum(axis=1).max() == 2


def test_report_query_accounting_fields():
    """general bounds its billed queries a priori; a promise run bills its shots."""
    rng = np.random.default_rng(8)
    spec = gen_unitary_comb(2, 2, 2, rng)
    report = discover_general(_session(spec, policy="theoretical"))
    assert report.queries > 0
    assert report.theoretical_queries >= report.queries
    assert report.wall_ms > 0
    assert "stages" in report.diagnostics
    to_spec = gen_totalorder_comb(2, 2, 2, rng, corr_floor=0.05)
    chi = to_spec.metadata["achieved_chi_min"]
    sampled = _session(to_spec, mode="sampled", seed=3)
    report = discover_totalorder(sampled, sic_qubit(), 1000, chi)
    assert report.queries == (3000 if report.diagnostics["retried"] else 1000)
    assert report.theoretical_queries is None
    ml_session = _session(gen_memoryless_comb(2, 2, rng), policy="theoretical")
    report = discover_memoryless(ml_session, sic_qubit(), 1000, threshold=0.1)
    assert report.queries == 1000
    assert report.theoretical_queries is None


def _runs():
    """Each algorithm on a comb that keeps its promise, billed in sampled mode."""
    rng = np.random.default_rng(12)
    to_spec = gen_totalorder_comb(3, 2, 2, rng, corr_floor=0.05)
    chi = to_spec.metadata["achieved_chi_min"]
    return {
        "general": (gen_unitary_comb(3, 2, 2, rng), discover_general),
        "totalorder": (to_spec, lambda s: discover_totalorder(s, sic_qubit(), 1000, chi)),
        "memoryless": (
            gen_memoryless_comb(3, 2, rng),
            lambda s: discover_memoryless(s, sic_qubit(), 1000, 0.1),
        ),
    }


@pytest.mark.parametrize("algorithm", ["general", "totalorder", "memoryless"])
def test_a_report_counts_only_its_own_run_on_a_shared_meter(algorithm):
    """Two runs on one session, and a third on a child from ``reduce``,
    whose meter is the parent's: each report bills its own queries."""
    spec, run = _runs()[algorithm]
    session = _session(spec, mode="sampled", seed=4)
    first = run(session)
    second = run(session)
    assert first.queries > 0 and second.queries > 0
    assert first.queries + second.queries == session.query_count
    child = session.reduce(*first.order[-1])
    before = session.query_count
    third = run(child)
    assert third.queries > 0
    assert third.queries == session.query_count - before == child.query_count - before
    assert third.algorithm == first.algorithm == algorithm


DIAGNOSTIC_KEYS = {
    "general": ["delta", "kappa", "swap_runs_per_test", "swap_tests", "stages"],
    "totalorder": [
        "threshold", "n_shots", "estimates", "chi_min", "input_counts", "output_counts", "retried",
    ],
    "memoryless": ["threshold", "n_shots", "estimates", "paired_by_index"],
}


@pytest.mark.parametrize("algorithm", ["general", "totalorder", "memoryless"])
def test_each_algorithm_reports_its_diagnostics_keys_in_order(algorithm):
    spec, run = _runs()[algorithm]
    report = run(_session(spec))
    assert list(report.diagnostics) == DIAGNOSTIC_KEYS[algorithm]
    assert report.ok


@pytest.mark.parametrize("n, shots", [(2, 410733429), (3, 451090506), (4, 479724308), (5, 501934411)])
def test_correlation_sample_size_is_pinned(n, shots):
    """Criterion 7's budget rule at n teeth; bills depend on these counts."""
    sic = sic_qubit()
    assert correlation_sample_size(0.05 / 3, 0.05 / n**2, sic, sic) == shots


def test_budgets_are_pinned_for_the_sic_and_a_qutrit_povm():
    sic = sic_qubit()
    assert correlation_error_bound(100000, 0.05, sic, sic) == 0.9743125049202696
    qutrit = povm_preset("random-ic:0", 3)
    assert correlation_sample_size(1 / 3, 0.05 / 9, qutrit, qutrit) == 19026016919


def test_one_dimensional_wires_accept_with_no_gap():
    """One probe state leaves no two states to compare, so there is no gap,
    and each stage runs one swap test."""
    spec = gen_unitary_comb(2, 1, 2, np.random.default_rng(0))
    assert find_last(_session(spec), 1e-6, 0.05).accepted_gap is None
    report = discover_general(_session(spec, policy="theoretical"))
    assert report.order == (("A2", "B2"), ("A1", "B1"))
    assert [s["accepted_gap"] for s in report.diagnostics["stages"]] == [None, None]
    assert [s["swap_tests"] for s in report.diagnostics["stages"]] == [1, 1]
    assert report.queries == 472176570126584
    assert report.theoretical_queries == 1180441425316460


def _pair_sums(table, n_in):
    """The pair marginals as full-table sums, one pair at a time."""
    axes = range(table.ndim)
    return [
        [table.sum(axis=tuple(k for k in axes if k not in (i, n_in + j))) for j in range(n_in)]
        for i in range(n_in)
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_marginals_match_the_pair_sums(n):
    spec = gen_unitary_comb(n, 2, 2, np.random.default_rng([21, n]))
    sic = sic_qubit()
    counts = _session(spec, mode="sampled", seed=22).sample_batch(100_000, sic)
    got = _session(spec, mode="sampled", seed=22).pair_frequencies(100_000, sic)
    want = _pair_sums(counts, n)
    for i in range(n):
        for j in range(n):
            np.testing.assert_array_equal(got[i][j], want[i][j] / 100_000)
    # exact mode: the estimates of the old per-pair loop, within roundoff
    session = _session(spec)
    table = session_born_table(session, sic)
    est = independence_matrix(session, sic, n_shots=1000, threshold=0.1).estimates
    for i, row in enumerate(_pair_sums(table, n)):
        for j, pair in enumerate(row):
            want_est = discovery.correlation_from_freqs(pair / pair.sum(), sic, sic)
            assert est[i, j] == pytest.approx(want_est, abs=1e-12)


def test_general_path_forms_no_choi_sized_array():
    """n = 6 with d_M = 2: the dense Choi operator alone would take 256 MB."""
    spec = gen_unitary_comb(6, 2, 2, np.random.default_rng(23))
    tracemalloc.start()
    try:
        report = discover_general(OracleSession(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.order == spec.true_order
    assert peak < 16 * 2**20, peak


def test_born_table_past_the_cap_is_refused_before_it_is_formed():
    """n = 6 on qubits: a sampled table would have 4^12 = 2^24 cells.

    It is refused before it is formed and before a shot is billed.
    """
    spec = gen_unitary_comb(6, 2, 2, np.random.default_rng(24))
    session = _session(spec, mode="sampled", seed=25)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            session.sample_batch(1000, sic_qubit())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert session.query_count == 0


def test_exact_independence_matrix_forms_no_joint_table(monkeypatch):
    import causalcomb.oracle as oracle

    def refuse(*args, **kwargs):
        raise AssertionError("exact mode formed a joint Born table")

    monkeypatch.setattr(oracle, "product_born_table", refuse)
    session = _session(gen_unitary_comb(4, 2, 2, np.random.default_rng(26)), policy="theoretical")
    ind = independence_matrix(session, sic_qubit(), n_shots=1000, threshold=0.1)
    assert ind.estimates.shape == (4, 4)
    assert session.query_count == 1000


@pytest.mark.parametrize("povm", [pauli6(), rank_two_povm()], ids=["pauli6", "rank-two"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_independence_matrix_matches_the_per_pair_loop(mode, povm):
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(28))
    ins, outs = spec.input_labels, spec.output_labels
    est = independence_matrix(_session(spec, mode, 29), povm, 20_000, 0.1).estimates
    if mode == "exact":
        # exact Born values invert to the state: the correlation of each true pair state
        choi = build_choi(spec)
        want = [
            [reference_correlation_norm(partial_trace(choi, [a, b]), [a]) for b in outs]
            for a in ins
        ]
    else:
        # the same draw, from a session with the same seed, one pair at a time
        counts = _session(spec, mode, 29).sample_batch(20_000, povm)
        want = []
        for i, a in enumerate(ins):
            want.append([])
            for j, b in enumerate(outs):
                pair = counts.sum(axis=tuple(k for k in range(6) if k not in (i, 3 + j)))
                rho = reconstruct_pair(povm, povm, pair / pair.sum())
                op = Op(WireSpace((a, b), (2, 2)), rho)
                want[-1].append(reference_correlation_norm(op, [a]))
    np.testing.assert_allclose(est, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_independence_matrix_inverts_once_per_pair_of_povms(mode, monkeypatch):
    calls = []
    original = discovery.reconstruct_pair
    monkeypatch.setattr(
        discovery, "reconstruct_pair", lambda *args: calls.append(args[2].shape) or original(*args)
    )
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(30))
    independence_matrix(_session(spec, mode, 31), sic_qubit(), 10_000, 0.1)
    assert calls == [(3, 3, 4, 4)]


@pytest.mark.parametrize("n", [6, 7])
def test_exact_memoryless_runs_past_the_table_cap(n):
    """A joint table at n = 6 would already have 2^24 cells."""
    spec = gen_memoryless_comb(n, 2, np.random.default_rng([27, n]))
    report = discover_memoryless(_session(spec), sic_qubit(), 0, threshold=0.1)
    assert report.ok
    assert check_comb_condition(spec, report.order).ok


def test_exact_totalorder_runs_past_the_table_cap():
    # about 3 s of rejection sampling for a comb whose every causal pair correlates
    spec = gen_totalorder_comb(6, 2, 2, np.random.default_rng(3))
    chi_min = spec.metadata["achieved_chi_min"]
    report = discover_totalorder(_session(spec), sic_qubit(), 0, chi_min)
    assert report.ok
    assert check_comb_condition(spec, report.order).ok


@pytest.mark.parametrize(
    "mode, delta, says",
    [("sampled", 1e-9, "more than a 64-bit count holds"), ("sampled", 1e-300, "overflow a float"),
     ("exact", 1e-300, "overflow a float")],
)
def test_a_delta_whose_swap_budget_cannot_be_run_is_refused_by_name(mode, delta, says):
    """Both refusals used to name ``eps = delta / 4``, which no caller sets,
    and came from the first swap test rather than from the search."""
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(0))
    config = OracleConfig(mode=mode, seed=0, query_policy="theoretical", query_log=io.StringIO())
    session = OracleSession(spec, config)
    for search in (find_last, discover_general):
        with pytest.raises(ValueError, match=rf"^delta = {delta} .*kappa = 0.05.*{says}"):
            search(session, delta, 0.05)
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    # nothing was drawn: the next estimate is a fresh session's
    fresh = OracleSession(spec, OracleConfig(mode=mode, seed=0))
    recipe = PrepRecipe("A1", np.diag([1.0, 0.0]).astype(complex), "B1")
    assert session.overlap_estimate(recipe, recipe, 0.1, 0.05) == fresh.overlap_estimate(
        recipe, recipe, 0.1, 0.05
    )


def test_a_totalorder_retry_the_session_cannot_draw_is_refused_before_the_first_batch(
    monkeypatch,
):
    """At 600 shots under a 1000-shot limit, the first batch used to be drawn
    and billed, and the tie's 1200-shot retry then refused."""
    for module in (oracle, discovery):  # the limit both read
        monkeypatch.setattr(module, "MAX_SHOTS", 1000)
    spec = gen_memoryless_comb(3, 2, np.random.default_rng(0))
    config = OracleConfig(mode="sampled", seed=1, query_log=io.StringIO())
    session = OracleSession(spec, config)
    with pytest.raises(ValueError, match="at most 1000 shots: a tie's retry of 2 \\* 600"):
        discover_totalorder(session, sic_qubit(), 600, 0.05)
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    # a retry within the limit still runs, and bills both batches
    report = discover_totalorder(session, sic_qubit(), 500, 0.05)
    assert report.diagnostics["retried"] and report.queries == 1500
    # exact mode never retries, so it takes any budget one batch can
    exact = discover_totalorder(_session(spec, policy="theoretical"), sic_qubit(), 600, 0.05)
    assert exact.queries == 600 and not exact.diagnostics["retried"]


@pytest.mark.parametrize("cell", list(PINS), ids=lambda c: "-".join(map(str, c)))
def test_the_pair_test_accepts_exactly_the_last_teeth_of_compatible_orders(cell):
    """At the root session, in exact mode, the pair test's verdict on every
    (input, output) pair is the checker's: some compatible order ends in it."""
    spec = _verdict_comb(*cell)
    last_teeth = {order[-1] for order in compatible_orders(spec)[0]}
    session = _session(spec)
    accepted = {
        (i, j)
        for i, j in itertools.product(session.input_labels, session.output_labels)
        if not any(gap > 1e-6 for gap in discovery._pair_gaps(session, i, j, 1e-6, 0.05))
    }
    assert accepted == last_teeth


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_every_emitted_order_is_made_of_the_shared_teeth(mode):
    """Each tooth of an emitted order, of a stage's accepted pair and of a
    guessed pair is the one tuple ``tooth`` holds for its labels, so a kept
    order costs one n-tuple of references."""
    sic, reports = sic_qubit(), []
    for n in (2, 3, 4):
        rng = np.random.default_rng([9, n])
        spec = gen_totalorder_comb(n, 2, 2, rng, corr_floor=0.05)
        chi = spec.metadata["achieved_chi_min"]
        reports.append(discover_general(_session(spec, mode, seed=n), delta=1e-3))
        reports.append(discover_totalorder(_session(spec, mode, seed=n), sic, 10_000, chi))
        spec = gen_memoryless_comb(n, 2, rng, constant_tooth=True)
        reports.append(discover_memoryless(_session(spec, mode, seed=n), sic, 10_000, 0.1))
    guessed = 0
    for report in reports:
        diag = report.diagnostics
        pairs = [s["pair"] for s in diag.get("stages", [])] + diag.get("paired_by_index", [])
        guessed += len(diag.get("paired_by_index", []))
        assert report.order is not None and None not in pairs
        assert all(pair is tooth(*pair) for pair in [*report.order, *pairs])
    assert guessed  # some constant tooth was paired by index
