"""Born tables from a factor against the dense reference.

``conftest.reference_born_table`` contracts each wire's POVM elements with
the dense operator.  ``povm.product_born_table`` applies each wire's POVM
rows to the columns of a factor ``C = V V^H`` and never forms ``C``; the
two must agree, and a session's samples must be the multinomial draw of
the reference table.  A session's exact pair distributions must match the
dense partial trace.
"""

import io
import tracemalloc

import numpy as np
import pytest
from conftest import pauli6, rank_two_povm, reference_born_table, session_born_table

import causalcomb.oracle as oracle
from causalcomb.combs import build_choi, choi_factor, gen_unitary_comb, trace_out_tooth
from causalcomb.oracle import OracleConfig, OracleSession, _multinomial
from causalcomb.povm import pair_probs, povm_preset, product_born_table, sic_qubit
from causalcomb.tensors import Op, WireSpace, partial_trace


def _spec_tables(spec, povm):
    factor = choi_factor(spec)
    got = product_born_table(factor.space, factor.v, povm)
    return got, reference_born_table(build_choi(spec), {l: povm for l in factor.space.labels})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dm", [1, 2, 4])
def test_factored_table_matches_the_reference(n, dm):
    spec = gen_unitary_comb(n, 2, dm, np.random.default_rng([40, n, dm]))
    got, want = _spec_tables(spec, sic_qubit())
    assert got.shape == want.shape == (4,) * (2 * n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_qutrit_random_ic_table_matches_the_reference():
    spec = gen_unitary_comb(2, 3, 2, np.random.default_rng(41))
    povm = povm_preset("random-ic:5", 3)
    got, want = _spec_tables(spec, povm)
    assert got.shape == (9,) * 4
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_rank_two_element_rows_sum_into_its_outcome():
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(42))
    rank_two = rank_two_povm()
    rows, owner = rank_two.rows
    assert rows.shape == (6, 2)
    assert owner.tolist() == [0, 0, 1, 2, 3, 4]
    got, want = _spec_tables(spec, rank_two)
    assert got.shape == (5, 5, 5, 5)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "povm", [rank_two_povm(), povm_preset("random-ic:6", 3)], ids=["rank-two", "qutrit"]
)
def test_factor_on_an_odd_number_of_wires(povm):
    """Three wires leave one wire for the last step alone."""
    rng = np.random.default_rng(43)
    d = povm.dim
    space = WireSpace(("A1", "A2", "B1"), (d,) * 3)
    v = rng.normal(size=(d**3, 12)) + 1j * rng.normal(size=(d**3, 12))
    got = product_born_table(space, v, povm)
    want = reference_born_table(Op(space, v @ v.conj().T), {l: povm for l in space.labels})
    assert got.shape == (povm.size,) * 3
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_from_choi_on_a_full_rank_operator_matches_the_reference():
    """An n = 3 comb mixed with 10 % white noise: the factor has all 64 columns."""
    choi = build_choi(gen_unitary_comb(3, 2, 2, np.random.default_rng(48)))
    noisy = Op(choi.space, 0.9 * choi.matrix + 0.1 * np.eye(64) / 64)
    session = OracleSession(noisy)
    assert session._factor.v.shape == (64, 64)
    for povm in (sic_qubit(), rank_two_povm()):
        want = reference_born_table(noisy, {l: povm for l in noisy.labels})
        np.testing.assert_allclose(
            session_born_table(session, povm), want / want.sum(), rtol=0, atol=1e-12
        )


def test_from_choi_refuses_an_indefinite_operator_even_with_a_positive_table():
    """A comb minus ``eta |b><b|`` for ``b`` outside its support is indefinite.

    Below ``eta*``, the smallest ratio of the comb's table to ``b``'s, every
    SIC outcome keeps a positive probability, so no table could tell; at
    ``2 eta*`` one outcome has negative mass.  Both operators are refused
    when the session is opened, before anything is billed.
    """
    rng = np.random.default_rng(44)
    choi = build_choi(gen_unitary_comb(2, 2, 2, rng))
    lam, u = np.linalg.eigh(choi.matrix)
    support = u[:, lam > 1e-12]
    b = rng.normal(size=16) + 1j * rng.normal(size=16)
    b -= support @ (support.conj().T @ b)
    b /= np.linalg.norm(b)
    sic = sic_qubit()
    povms = {l: sic for l in choi.labels}
    comb_table = reference_born_table(choi, povms)
    b_table = reference_born_table(Op(choi.space, np.outer(b, b.conj())), povms)
    eta_star = (comb_table / b_table).min()
    assert eta_star > 1e-6

    def shifted(eta):
        return Op(choi.space, choi.matrix - eta * np.outer(b, b.conj()))

    mixed, bad = shifted(eta_star / 2), shifted(2 * eta_star)
    assert np.linalg.eigvalsh(mixed.matrix).min() < 0
    assert reference_born_table(mixed, povms).min() > 0
    assert reference_born_table(bad, povms).min() < 0
    for op in (mixed, bad):
        for config in (OracleConfig(query_policy="theoretical"), OracleConfig(mode="sampled", seed=1)):
            config.query_log = io.StringIO()
            with pytest.raises(ValueError, match="positive semidefinite"):
                OracleSession(op, config)
            assert config.query_log.getvalue() == ""


@pytest.mark.parametrize("n", [3, 4])
def test_sampled_counts_are_the_multinomial_of_the_reference(n):
    spec = gen_unitary_comb(n, 2, 2, np.random.default_rng([45, n]))
    sic = sic_qubit()
    shots = 100_000
    counts = OracleSession(spec, OracleConfig(mode="sampled", seed=46)).sample_batch(shots, sic)
    choi = build_choi(spec)
    want = np.clip(reference_born_table(choi, {l: sic for l in choi.labels}), 0.0, None)
    want /= want.sum()
    np.testing.assert_array_equal(counts, _multinomial(np.random.default_rng(46), shots, want))


def _staged_weights(monkeypatch, session, n_shots, povm):
    """The weights every ``_multinomial`` call of one batch receives, copied
    before the draw overwrites them: the block totals', then each block's;
    and the batch's counts."""
    seen = []

    def recording(rng, n, weights):
        seen.append(weights.copy())
        return _multinomial(rng, n, weights)

    monkeypatch.setattr(oracle, "_multinomial", recording)
    counts = session.sample_batch(n_shots, povm)
    return seen, counts


@pytest.mark.parametrize(
    "n, block_cells, lead, povm",
    [
        (5, None, 2, sic_qubit()),
        # a lead outcome's rows are the Kronecker product of its elements' rows,
        # so the rank-two element gives blocks of one, two, four and eight rows
        (2, 16, 3, rank_two_povm()),
        (3, 6**3, 3, pauli6()),
    ],
    ids=["sic", "rank-two", "pauli6"],
)
def test_staged_weights_are_the_chain_rule_of_the_reference(
    monkeypatch, n, block_cells, lead, povm
):
    """Block totals from the lead wires' marginal ``q_B``, then each block from
    its own slice: ``q_B`` times the normalized slice is the reference table."""
    spec = gen_unitary_comb(n, 2, 2, np.random.default_rng([50, n]))
    choi = build_choi(spec)
    if block_cells is not None:
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", block_cells)
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=51))
    (q, *blocks), _ = _staged_weights(monkeypatch, session, 10**6, povm)
    sizes = (povm.size,) * (2 * n)
    assert q.shape == (povm.size**lead,) and len(blocks) == q.size  # every block drawn
    assert {b.shape for b in blocks} == {sizes[lead:]}
    staged = np.stack([w * b / b.sum() for w, b in zip(q / q.sum(), blocks)])
    want = reference_born_table(choi, {l: povm for l in choi.labels})
    np.testing.assert_allclose(staged.reshape(sizes), want / want.sum(), rtol=0, atol=1e-12)


def test_staged_counts_are_the_replayed_draws_at_n5(monkeypatch):
    """Each block's draw lands in its own slice unchanged: replaying the
    batch's ``_multinomial`` calls on one stream gives its counts."""
    spec = gen_unitary_comb(5, 2, 2, np.random.default_rng([50, 5]))
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=52))
    (q, *blocks), counts = _staged_weights(monkeypatch, session, 10**5, sic_qubit())
    rng = np.random.default_rng(52)
    totals = _multinomial(rng, 10**5, q)
    assert np.count_nonzero(totals) == len(blocks)
    want = np.zeros((q.size, blocks[0].size), np.int64)
    for b, w in zip(np.flatnonzero(totals), blocks):
        want[b] = _multinomial(rng, totals[b], w).reshape(-1)
    np.testing.assert_array_equal(counts.reshape(q.size, -1), want)


def test_counts_take_four_bytes_below_two_to_the_31_shots():
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(53))
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=54))
    for shots in (1, 10**5, 2**31 - 1):
        counts = session.sample_batch(shots, sic_qubit())
        assert counts.dtype == np.int32 and counts.sum(dtype=np.int64) == shots


def test_counts_take_eight_bytes_from_two_to_the_31_shots():
    """No cell of an int32 array could hold them: one tooth, 16 cells."""
    spec = gen_unitary_comb(1, 2, 2, np.random.default_rng(55))
    counts = OracleSession(spec, OracleConfig(mode="sampled", seed=56)).sample_batch(
        3 * 10**9, sic_qubit()
    )
    assert counts.dtype == np.int64 and counts.sum() == 3 * 10**9


def test_one_table_at_n5_stays_small():
    """n = 5, d_M = 2: the dense Choi operator and its contraction peaked at 64
    MB, and the whole table and one column's amplitudes at 28 MB.  Drawn in
    blocks, the 4 MB of int32 counts are the only cell-sized array; the
    batch peaks near 6.3 MB."""
    spec = gen_unitary_comb(5, 2, 2, np.random.default_rng(47))
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=1))
    tracemalloc.start()
    try:
        counts = session.sample_batch(100_000, sic_qubit())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (4,) * 10
    assert peak < 8 * 2**20, peak


def _dense_pair_probs(choi, pair, povm):
    rho = partial_trace(choi, pair)
    return pair_probs(povm, povm, rho.matrix) / np.trace(rho.matrix).real


@pytest.mark.parametrize("povm", [sic_qubit(), rank_two_povm()], ids=["sic", "rank-two"])
def test_pair_distribution_matches_the_dense_partial_trace(povm):
    """Spec, reduced and full-rank dense-operator sessions, every (input, output) pair.

    The full-rank operator is a comb mixed with white noise, at unit trace.
    """
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(49))
    choi = build_choi(spec)
    last = spec.true_order[-1]
    noisy = Op(choi.space, 0.9 * choi.matrix + 0.1 * np.eye(64) / 64)
    cases = [
        (OracleSession(spec), choi),
        (OracleSession(spec).reduce(*last), trace_out_tooth(choi, *last)),
        (OracleSession(noisy), noisy),
    ]
    for session, dense in cases:
        freqs = session.pair_frequencies(1000, povm)
        for a, row in zip(session.input_labels, freqs):
            for b, got in zip(session.output_labels, row):
                want = _dense_pair_probs(dense, [a, b], povm)
                assert got.shape == (povm.size, povm.size)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
