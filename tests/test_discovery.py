"""Order-discovery algorithms driven through the black-box session only."""

import inspect
import tracemalloc

import numpy as np
import pytest
from conftest import global_unitary_choi

import causalcomb.discovery as discovery
from causalcomb.combs import (
    build_choi,
    check_comb_condition,
    enumerate_orders,
    gen_fig3_comb,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_totalorder_comb,
    gen_unitary_comb,
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
from causalcomb.oracle import OracleConfig, OracleSession, swap_test_sample_size
from causalcomb.povm import ic_povm_for_dim, sic_qubit, state_set_of
from causalcomb.tensors import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Op,
    WireSpace,
    kron_all,
)


def _session(spec, mode="exact", seed=0, policy="actual"):
    return OracleSession(
        spec, OracleConfig(mode=mode, seed=seed, query_policy=policy)
    )


def test_oracle_opacity_of_discovery_source():
    """Discovery never peeks: no spec, no Choi construction, no session internals."""
    src = inspect.getsource(discovery)
    for forbidden in ("_choi", "_spec", "build_choi", "CombSpec", "true_order"):
        assert forbidden not in src, forbidden


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
    return OracleSession.from_choi(choi, OracleConfig(seed=0))


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
        kron_all([proj_in[a1], proj_in[a2], proj_out[a1], proj_out[a1 ^ a2]])
        for a1 in range(2)
        for a2 in range(2)
    ) / 4
    choi = Op(WireSpace(("A1", "A2", "B1", "B2"), (2, 2, 2, 2)), mat)
    return choi, OracleSession.from_choi(choi, OracleConfig(query_policy="theoretical"))


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
    session = OracleSession.from_choi(global_unitary_choi(n, seed))
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
    rng = np.random.default_rng(8)
    spec = gen_unitary_comb(2, 2, 2, rng)
    report = discover_general(_session(spec, policy="theoretical"))
    assert report.queries > 0
    assert report.theoretical_queries >= report.queries
    assert report.wall_ms > 0
    assert "stages" in report.diagnostics


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
    got, want = discovery._pair_marginals(counts, n), _pair_sums(counts, n)
    for i in range(n):
        for j in range(n):
            np.testing.assert_array_equal(got[i][j], want[i][j])
    # exact mode: the estimates of the old per-pair loop, within roundoff
    session = _session(spec)
    table = session.outcome_distribution(sic)
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
        session = OracleSession(spec, OracleConfig(dim_cap=2**12))
        report = discover_general(session)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.order == spec.true_order
    assert peak < 16 * 2**20, peak
