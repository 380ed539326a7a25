"""Black-box session semantics: state preparation, sampling, query billing."""

import io
import json

import numpy as np
import pytest
from conftest import global_unitary_choi

from causalcomb.combs import (
    CombSpec,
    build_choi,
    gen_signaling_comb,
    gen_unitary_comb,
    trace_out_tooth,
)
from causalcomb.oracle import (
    OracleConfig,
    OracleSession,
    PrepRecipe,
    swap_test_estimate,
    swap_test_sample_size,
)
from causalcomb.povm import IcPovm, pair_probs, product_born_table, sic_qubit
from causalcomb.tensors import Op, WireSpace, haar_unitary, random_pure_state, reorder


def _unitary_channel_spec(u):
    return CombSpec(1, u.shape[0], 1, np.ones(1), (u,), (1,), (1,))


def test_sample_size_formula():
    assert swap_test_sample_size(0.1, 0.05) == 738
    assert swap_test_sample_size(1.0, 0.5) == 3
    with pytest.raises(ValueError):
        swap_test_sample_size(0.0, 0.5)


def test_swap_test_estimate_concentrates():
    rng = np.random.default_rng(0)
    misses = 0
    for _ in range(300):
        a = random_pure_state(2, rng)
        b = random_pure_state(2, rng)
        ov = abs(np.vdot(a, b)) ** 2
        misses += abs(swap_test_estimate(ov, 0.1, 0.05, rng) - ov) > 0.1
    assert misses / 300 <= 0.05 + 2 * np.sqrt(0.05 * 0.95 / 300)


def test_session_labels_and_dims():
    rng = np.random.default_rng(3)
    session = OracleSession(gen_unitary_comb(3, 2, 2, rng))
    assert session.n_teeth == 3
    assert session.input_labels == ("A1", "A2", "A3")
    assert session.output_labels == ("B1", "B2", "B3")
    assert session.dim_of("A2") == 2


def test_outcome_distribution_matches_direct_born():
    rng = np.random.default_rng(4)
    spec = gen_unitary_comb(1, 2, 2, rng)
    session = OracleSession(spec)
    sic = sic_qubit()
    table = session.outcome_distribution(sic)
    choi = reorder(build_choi(spec), ["A1", "B1"])
    np.testing.assert_allclose(table, pair_probs(sic, sic, choi.matrix), atol=1e-12)
    assert table.sum() == pytest.approx(1.0)


def test_sampling_agrees_with_exact_table():
    rng = np.random.default_rng(5)
    spec = gen_unitary_comb(2, 2, 2, rng)
    sic = sic_qubit()
    exact = OracleSession(spec).outcome_distribution(sic)
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=6))
    shots = 200_000
    counts = session.sample_batch(shots, sic)
    assert counts.shape == exact.shape
    assert counts.sum() == shots
    tv = 0.5 * np.abs(counts / shots - exact).sum()
    assert tv < 0.02
    assert session.query_count == shots


def test_negative_probability_mass_raises_and_bills_nothing():
    # unit trace and Hermitian, but -1 on |0000>: the all-|0> SIC outcome,
    # whose elements all contain |0><0| / 2, gets probability (2/16 - 1) / 16
    dim = 16
    mat = 2 * np.eye(dim, dtype=complex) / dim
    mat[0, 0] -= 1.0
    choi = Op(WireSpace(("A1", "A2", "B1", "B2"), (2, 2, 2, 2)), mat)
    exact = OracleSession.from_choi(choi, OracleConfig(query_policy="theoretical"))
    with pytest.raises(ValueError, match="negative probability mass"):
        exact.outcome_distribution(sic_qubit())
    sampled = OracleSession.from_choi(choi, OracleConfig(mode="sampled", seed=1))
    with pytest.raises(ValueError, match="negative probability mass"):
        sampled.sample_batch(1000, sic_qubit())
    assert exact.query_count == sampled.query_count == 0


def test_single_shot_requires_sampled_mode():
    rng = np.random.default_rng(7)
    session = OracleSession(gen_unitary_comb(1, 2, 1, rng))
    with pytest.raises(ValueError, match="sampled mode"):
        session.sample_batch(1, sic_qubit())
    assert session.query_count == 0


def test_prepare_reduces_to_fed_channel_output():
    """Feed psi at A1, discard nothing else: result is the comb acting on psi."""
    rng = np.random.default_rng(11)
    u = haar_unitary(2, rng)
    session = OracleSession(_unitary_channel_spec(u))
    psi = random_pure_state(2, rng)
    proj = np.outer(psi, psi.conj())
    recipe = PrepRecipe("A1", proj, discard_label=None)
    out = session._prepare(recipe)
    np.testing.assert_allclose(out.matrix, u @ proj @ u.conj().T, atol=1e-12)


def test_prepare_rejects_a_discard_label_that_is_no_output_wire():
    session = OracleSession(gen_unitary_comb(2, 2, 2, np.random.default_rng(13)))
    proj = np.diag([1.0, 0.0]).astype(complex)
    for typo in ("b1", "B3", "A2"):
        with pytest.raises(KeyError, match="discard label"):
            session._prepare(PrepRecipe("A1", proj, discard_label=typo))
    assert session._prepare(PrepRecipe("A1", proj, discard_label="B1")).labels == ("A2", "B2")


def test_overlap_estimate_exact_equals_true_overlap():
    spec = gen_signaling_comb()
    session = OracleSession(spec)
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    r0 = PrepRecipe("A1", zero, discard_label="B1")
    r1 = PrepRecipe("A1", one, discard_label="B1")
    same = session.overlap_estimate(r0, r0, eps=0.1, kappa=0.05)
    cross = session.overlap_estimate(r0, r1, eps=0.1, kappa=0.05)
    # residual after feeding |b> is I/2 (x) |b><b| since B2 copies A1:
    # self-overlap is the purity 1/2, cross-overlap vanishes
    assert same == pytest.approx(0.5, abs=1e-9)
    assert cross == pytest.approx(0.0, abs=1e-9)


def test_overlap_estimate_sampled_within_eps():
    spec = gen_signaling_comb()
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=12))
    zero = np.diag([1.0, 0.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2
    r0 = PrepRecipe("A1", zero, discard_label="B1")
    rm = PrepRecipe("A1", mixed, discard_label="B1")
    est = session.overlap_estimate(r0, rm, eps=0.05, kappa=1e-6)
    # Tr[(I/2 (x) |0><0|) . I/4] = 1/4
    assert abs(est - 0.25) <= 0.05
    assert session.query_count == 2 * swap_test_sample_size(0.05, 1e-6)


def test_query_policies():
    """Exact mode bills nothing by default; the theoretical policy bills plans."""
    spec = gen_signaling_comb()
    zero = np.diag([1.0, 0.0]).astype(complex)
    r0 = PrepRecipe("A1", zero, discard_label="B1")

    actual = OracleSession(spec)
    actual.overlap_estimate(r0, r0, eps=0.1, kappa=0.05)
    assert actual.query_count == 0

    theo = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    theo.overlap_estimate(r0, r0, eps=0.1, kappa=0.05)
    assert theo.query_count == 2 * 738


def test_query_log_records_jsonl():
    spec = gen_signaling_comb()
    buf = io.StringIO()
    session = OracleSession(
        spec, OracleConfig(mode="sampled", seed=13, query_log=buf, trial=3)
    )
    session.sample_batch(100, sic_qubit())
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert records[-1]["total"] == session.query_count == 100
    assert records[-1]["trial"] == 3
    assert records[-1]["op"] == "sample_batch"


def test_reduce_shares_meter_and_matches_traced_choi():
    rng = np.random.default_rng(14)
    spec = gen_unitary_comb(2, 2, 2, rng)
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=15))
    last_in, last_out = spec.true_order[-1]
    child = session.reduce(last_in, last_out)
    assert child.n_teeth == 1
    child.sample_batch(50, sic_qubit())
    assert session.query_count == 50  # shared meter
    # the child's statistics agree with the explicitly reduced comb
    from causalcomb.combs import trace_out_tooth

    want = trace_out_tooth(build_choi(spec), last_in, last_out)
    got = child.outcome_distribution(sic_qubit())
    np.testing.assert_allclose(
        got,
        OracleSession.from_choi(want)._joint_table(sic_qubit()),
        atol=1e-12,
    )


def test_sampled_mode_requires_seed():
    with pytest.raises(ValueError):
        OracleConfig(mode="sampled")


def test_dim_cap_refuses_monster_builds():
    rng = np.random.default_rng(16)
    spec = gen_unitary_comb(4, 2, 4, rng)
    with pytest.raises(ValueError, match="cap"):
        OracleSession(spec, OracleConfig(dim_cap=16))


def test_table_cache_is_keyed_by_povm_content():
    """Each POVM gets its own Born table, even when a freed POVM's id is reused."""
    rng = np.random.default_rng(17)
    spec = gen_unitary_comb(2, 2, 2, rng)
    session = OracleSession(spec)
    choi = build_choi(spec)
    sic = sic_qubit()
    for _ in range(4):
        u = haar_unitary(2, rng)
        povm = IcPovm(tuple(u @ e @ u.conj().T for e in sic.elements))
        got = session.outcome_distribution(povm)
        want = product_born_table(choi, {l: povm for l in choi.labels})
        np.testing.assert_allclose(got, want / want.sum(), atol=1e-12)
        del povm  # frees its id for the next POVM


def test_from_choi_matches_the_spec_session():
    rng = np.random.default_rng(18)
    spec = gen_unitary_comb(2, 2, 2, rng)
    choi = build_choi(spec)
    session = OracleSession.from_choi(
        reorder(choi, ["B2", "A1", "B1", "A2"]), OracleConfig(query_policy="theoretical")
    )
    assert session.wires == ("A1", "A2", "B1", "B2")
    np.testing.assert_allclose(
        session.outcome_distribution(sic_qubit()),
        OracleSession(spec).outcome_distribution(sic_qubit()),
        atol=1e-12,
    )
    zero = np.diag([1.0, 0.0]).astype(complex)
    r0 = PrepRecipe("A1", zero, discard_label="B1")
    session.overlap_estimate(r0, r0, eps=0.1, kappa=0.05)
    assert session.query_count == 2 * 738
    with pytest.raises(ValueError, match="cap"):
        OracleSession.from_choi(choi, OracleConfig(dim_cap=8))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("dm", [1, 2, 4])
def test_reduced_factor_matches_the_traced_choi(n, dm):
    """Each reduction along the true order keeps the dense statistics and rank."""
    spec = gen_unitary_comb(n, 2, dm, np.random.default_rng([19, n, dm]))
    session = OracleSession(spec)
    choi = build_choi(spec)
    sic = sic_qubit()
    for pair in reversed(spec.true_order[1:]):
        session = session.reduce(*pair)
        choi = trace_out_tooth(choi, *pair)
        assert session.wires == choi.labels
        assert session._v.shape[1] <= dm
        want = product_born_table(choi, {l: sic for l in choi.labels})
        np.testing.assert_allclose(session.outcome_distribution(sic), want, atol=1e-12)


def test_from_choi_refuses_a_non_hermitian_operator():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        OracleSession.from_choi(Op(WireSpace(("A1", "B1"), (2, 2)), mat))


def test_from_choi_keeps_one_column_for_a_rank_one_operator():
    session = OracleSession.from_choi(global_unitary_choi(2, 0))
    assert session._v.shape == (16, 1)
    assert session._w[0] == pytest.approx(1.0)
