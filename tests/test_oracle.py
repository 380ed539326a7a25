"""Black-box session semantics: state preparation, sampling, query billing."""

import io
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import global_unitary_choi, pauli6, reference_born_table, session_born_table

import causalcomb.combs as combs
from causalcomb.combs import (
    CombSpec,
    build_choi,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_unitary_comb,
    trace_out_tooth,
)
from causalcomb.discovery import discover_memoryless
from causalcomb.oracle import (
    OracleConfig,
    OracleSession,
    PrepRecipe,
    _multinomial,
    swap_test_estimate,
    swap_test_sample_size,
)
from causalcomb.povm import IcPovm, pair_probs, povm_preset, sic_qubit, state_set_of
from causalcomb.tensors import (
    Op,
    WireSpace,
    contract_wire,
    haar_unitary,
    partial_trace,
    random_density,
    random_pure_state,
    reorder,
)


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


def test_pair_distribution_matches_direct_born():
    rng = np.random.default_rng(4)
    spec = gen_unitary_comb(1, 2, 2, rng)
    session = OracleSession(spec)
    sic = sic_qubit()
    [[table]] = session.pair_frequencies(1000, sic)
    choi = reorder(build_choi(spec), ["A1", "B1"])
    np.testing.assert_allclose(table, pair_probs(sic, sic, choi.matrix), atol=1e-12)
    assert table.sum() == pytest.approx(1.0)


def test_sampled_pair_frequencies_are_the_pair_sums_of_one_draw(monkeypatch):
    """One ``sample_batch`` call, billed once; each pair is its counts' sum over
    every other wire, divided by the shots, bit for bit."""
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(8))
    log = io.StringIO()
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=9, query_log=log))
    draws = []
    sample_batch = OracleSession.sample_batch

    def recording(self, n_shots, povms):
        draws.append(sample_batch(self, n_shots, povms))
        return draws[-1]

    monkeypatch.setattr(OracleSession, "sample_batch", recording)
    povms = {l: (sic_qubit(), pauli6())[k % 2] for k, l in enumerate(session.wires)}
    freqs = session.pair_frequencies(50_000, povms)
    [counts] = draws
    for i in range(3):
        for j in range(3):
            pair = counts.sum(axis=tuple(k for k in range(6) if k not in (i, 3 + j)))
            np.testing.assert_array_equal(freqs[i][j], pair / 50_000)
    assert session.query_count == 50_000
    assert [json.loads(line)["op"] for line in log.getvalue().splitlines()] == ["sample_batch"]


def test_exact_pair_frequencies_bill_only_under_the_theoretical_policy():
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(10))
    for policy, billed in (("actual", 0), ("theoretical", 1000)):
        log = io.StringIO()
        session = OracleSession(spec, OracleConfig(query_policy=policy, query_log=log))
        freqs = session.pair_frequencies(1000, sic_qubit())
        assert [f.sum() for row in freqs for f in row] == pytest.approx([1.0] * 4)
        assert session.query_count == billed
        ops = [json.loads(line)["op"] for line in log.getvalue().splitlines()]
        assert ops == (["independence"] if billed else [])


def test_sampling_agrees_with_exact_table():
    rng = np.random.default_rng(5)
    spec = gen_unitary_comb(2, 2, 2, rng)
    sic = sic_qubit()
    exact = session_born_table(OracleSession(spec), sic)
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=6))
    shots = 200_000
    counts = session.sample_batch(shots, sic)
    assert counts.shape == exact.shape
    assert counts.sum() == shots
    tv = 0.5 * np.abs(counts / shots - exact).sum()
    assert tv < 0.02
    assert session.query_count == shots


class _CallCounter:
    """A generator that counts which of its methods are called."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


@pytest.mark.parametrize(
    "n, weights, branches, draws",
    [
        (40, [5.0, 3.0, 2.0, 0.0], {"poisson", "random", "choice"}, 200_000),  # top-up and thinning
        (5, [1.0, 0.0, 2.0, 3.0, 1.0, 4.0, 2.0, 3.0], {"random"}, 20_000),  # fewer shots than cells
        (1, [1.0, 3.0, 0.0, 2.0], {"random"}, 20_000),
    ],
)
def test_multinomial_draws_the_multinomial_law(n, weights, branches, draws):
    p = np.array(weights) / sum(weights)
    rng = _CallCounter(np.random.default_rng([61, n]))
    x = np.array([_multinomial(rng, n, np.array(weights)) for _ in range(draws)])
    assert set(rng.calls) == branches
    assert (x.sum(axis=1) == n).all() and x.min() >= 0
    assert (x[:, p == 0] == 0).all()

    def within_5_se(terms, want):
        se = terms.std(axis=0) / math.sqrt(draws)
        assert (np.abs(terms.mean(axis=0) - want) <= 5 * se).all()

    dev = x - n * p
    within_5_se(x, n * p)
    within_5_se(dev**2, n * p * (1 - p))
    within_5_se(dev[:, 0] * dev[:, 1], -n * p[0] * p[1])
    # chi-square of cell 0 against its Binomial(n, p_0) pmf, tails lumped
    # until every bin expects at least five draws
    pmf = np.array([math.comb(n, k) * p[0] ** k * (1 - p[0]) ** (n - k) for k in range(n + 1)])
    expected, observed = draws * pmf, np.bincount(x[:, 0], minlength=n + 1)
    lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]

    def lump(a):
        return np.r_[a[: lo + 1].sum(), a[lo + 1 : hi], a[hi:].sum()]

    expected, observed = lump(expected), lump(observed)
    chi2, dof = ((observed - expected) ** 2 / expected).sum(), len(expected) - 1
    assert chi2 <= dof + 5 * math.sqrt(2 * dof), (chi2, dof)


@pytest.mark.parametrize("n", [100_000, 350_000_000])
def test_multinomial_allocates_only_the_counts(n):
    """The table is overwritten in place: at 2^20 cells only the int64 counts
    and at most 1 MB besides are allocated, for one shot in ten cells and
    for the 3.5e8 shots of a criterion-7 budget alike."""
    cells = 2**20
    weights = np.random.default_rng(62).random(cells) ** 4
    tracemalloc.start()
    try:
        counts = _multinomial(np.random.default_rng(63), n, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == n
    assert peak <= counts.nbytes + 2**20, peak


def test_sample_batch_refuses_a_fractional_shot_budget():
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(64))
    config = OracleConfig(mode="sampled", seed=65, query_log=io.StringIO())
    session = OracleSession(spec, config)
    with pytest.raises(TypeError):
        session.sample_batch(1000.5, sic_qubit())
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    assert session.sample_batch(np.int64(1000), sic_qubit()).sum() == 1000
    assert session.query_count == 1000


def test_sample_batch_refuses_a_boolean_or_negative_shot_budget():
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(66))
    config = OracleConfig(mode="sampled", seed=67, query_log=io.StringIO())
    session = OracleSession(spec, config)
    for bad, error in ((True, TypeError), (np.True_, TypeError), (-5, ValueError)):
        with pytest.raises(error):
            session.sample_batch(bad, sic_qubit())
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    # nothing was drawn either: the first counts are those of a fresh session
    fresh = OracleSession(spec, OracleConfig(mode="sampled", seed=67))
    np.testing.assert_array_equal(
        session.sample_batch(100, sic_qubit()), fresh.sample_batch(100, sic_qubit())
    )


@pytest.mark.parametrize("bad, error", [(True, TypeError), (2.5, TypeError), (-5, ValueError)])
def test_exact_pair_frequencies_refuse_a_bad_shot_budget(bad, error):
    """Under the theoretical policy these used to bill 1, 2 and 0 queries, with ``ok=True``."""
    spec = gen_memoryless_comb(3, 2, np.random.default_rng(68))
    config = OracleConfig(query_policy="theoretical", query_log=io.StringIO())
    session = OracleSession(spec, config)
    with pytest.raises(error):
        discover_memoryless(session, sic_qubit(), bad, 0.1)
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    # zero shots stay legal in exact mode: the runner's n_shots default is 0
    report = discover_memoryless(session, sic_qubit(), 0, 0.1)
    assert report.ok and report.queries == 0


def _measure_both_ways(session, povms):
    """Every session call that measures with ``povms``: sampled mode has two."""
    calls = [lambda: session.pair_frequencies(1000, povms)]
    if session.mode == "sampled":
        calls.append(lambda: session.sample_batch(1000, povms))
    return calls


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_a_state_set_is_refused_as_a_measurement(mode):
    """Sampled mode used to bill 1,000 queries and draw from unnormalized weights."""
    spec = gen_memoryless_comb(2, 2, np.random.default_rng(69))
    config = OracleConfig(mode=mode, seed=70, query_policy="theoretical", query_log=io.StringIO())
    session = OracleSession(spec, config)
    states = state_set_of(sic_qubit())
    mixed = {"A1": sic_qubit(), "A2": sic_qubit(), "B1": sic_qubit(), "B2": states}
    for povms, wire in ((states, "A1"), (mixed, "B2")):
        for call in _measure_both_ways(session, povms):
            with pytest.raises(ValueError, match=f"wire {wire} needs a POVM on dimension 2"):
                call()
    with pytest.raises(ValueError, match="wire A1 needs a POVM"):
        discover_memoryless(session, states, 1000, 0.1)
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    if mode == "sampled":  # nothing was drawn either
        fresh = OracleSession(spec, OracleConfig(mode="sampled", seed=70))
        np.testing.assert_array_equal(
            session.sample_batch(100, sic_qubit()), fresh.sample_batch(100, sic_qubit())
        )


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_a_povm_of_the_wrong_dimension_is_refused(mode):
    spec = gen_memoryless_comb(2, 2, np.random.default_rng(71))
    config = OracleConfig(mode=mode, seed=72, query_policy="theoretical", query_log=io.StringIO())
    session = OracleSession(spec, config)
    for call in _measure_both_ways(session, povm_preset("sic4", 4)):
        with pytest.raises(ValueError, match="wire A1 needs a POVM on dimension 2, .* dimension 4"):
            call()
    assert session.query_count == 0 and config.query_log.getvalue() == ""


def test_negative_probability_mass_raises_and_bills_nothing():
    # unit trace and Hermitian, but -7/8 on |0000>: the all-|0> SIC outcome,
    # whose elements all contain |0><0| / 2, gets probability (2/16 - 1) / 16
    dim = 16
    mat = 2 * np.eye(dim, dtype=complex) / dim
    mat[0, 0] -= 1.0
    choi = Op(WireSpace(("A1", "A2", "B1", "B2"), (2, 2, 2, 2)), mat)
    for config in (
        OracleConfig(query_policy="theoretical", query_log=io.StringIO()),
        OracleConfig(mode="sampled", seed=1, query_log=io.StringIO()),
    ):
        with pytest.raises(ValueError, match="positive semidefinite"):
            OracleSession.from_choi(choi, config)
        assert config.query_log.getvalue() == ""


def test_single_shot_requires_sampled_mode():
    rng = np.random.default_rng(7)
    session = OracleSession(gen_unitary_comb(1, 2, 1, rng))
    with pytest.raises(ValueError, match="sampled mode"):
        session.sample_batch(1, sic_qubit())
    assert session.query_count == 0


def test_prepare_reduces_to_fed_channel_output():
    """Product comb, identity wiring: feed a state at A1, discard B2.

    The second tooth's input, traced of its output, is maximally mixed, so
    what is left on (A2, B1) is ``1/2 (x) U1 s U1^H`` and two such states
    overlap by ``Tr(s_a s_b) / 2``.
    """
    rng = np.random.default_rng(11)
    u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
    spec = CombSpec(2, 2, 1, np.ones(1), (u1, u2), (1, 2), (1, 2))
    session = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    psi = random_pure_state(2, rng)
    states = [np.outer(psi, psi.conj()), random_density(2, rng=rng), np.eye(2) / 2]
    for s_a in states:
        for s_b in states:
            got = session.overlap_estimate(
                PrepRecipe("A1", s_a, discard_label="B2"),
                PrepRecipe("A1", s_b, discard_label="B2"),
                eps=0.1,
                kappa=0.05,
            )
            assert got == pytest.approx(0.5 * np.trace(s_a @ s_b).real, abs=1e-12)
    billed = session.query_count
    bad = PrepRecipe("A1", states[0], discard_label=None)
    with pytest.raises(KeyError, match="is not an output wire"):
        session.overlap_estimate(bad, bad, eps=0.1, kappa=0.05)
    assert session.query_count == billed
    fresh = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    with pytest.raises(KeyError, match="is not an output wire"):
        fresh.overlap_estimate(bad, bad, eps=0.1, kappa=0.05)
    assert fresh.query_count == 0


def test_prepare_rejects_a_discard_label_that_is_no_output_wire():
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(13))
    session = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    proj = np.diag([1.0, 0.0]).astype(complex)
    for typo in ("b1", "B3", "A2"):
        bad = PrepRecipe("A1", proj, discard_label=typo)
        with pytest.raises(KeyError, match="discard label .* is not an output wire"):
            session.overlap_estimate(bad, bad, eps=0.1, kappa=0.05)
    assert session.query_count == 0
    good = PrepRecipe("A1", proj, discard_label="B1")
    rho = partial_trace(contract_wire(build_choi(spec), "A1", 2 * proj.T), ["A2", "B2"])
    got = session.overlap_estimate(good, good, eps=0.1, kappa=0.05)
    assert got == pytest.approx(np.trace(rho.matrix @ rho.matrix).real, abs=1e-12)


def test_prepare_rejects_an_input_label_that_is_no_input_wire():
    """Feeding an output wire used to return an overlap and bill its swap test."""
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(13))
    session = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    proj = np.diag([1.0, 0.0]).astype(complex)
    for fed in ("B1", "B2"):
        bad = PrepRecipe(fed, proj, discard_label="B2" if fed == "B1" else "B1")
        with pytest.raises(KeyError, match="input label .* is not an input wire"):
            session.overlap_estimate(bad, bad, eps=0.1, kappa=0.05)
    assert session.query_count == 0


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
    got = session_born_table(child, sic_qubit())
    np.testing.assert_allclose(
        got, session_born_table(OracleSession.from_choi(want), sic_qubit()), atol=1e-12
    )


def test_sampled_mode_requires_seed():
    with pytest.raises(ValueError):
        OracleConfig(mode="sampled")


def test_size_cap_refuses_monster_builds():
    """n = 10, d_M = 2: the purification alone has 2^21 entries, over the cap."""
    rng = np.random.default_rng(16)
    spec = gen_unitary_comb(10, 2, 2, rng)
    assert 4**10 * 2 > combs.MAX_ENTRIES
    with pytest.raises(ValueError, match="cap"):
        OracleSession(spec)


def test_each_povm_gets_its_own_statistics():
    """Nothing is kept between calls: a new POVM, even one that reuses a freed
    POVM's id, gets its own pair distribution and its own sampled table."""
    rng = np.random.default_rng(17)
    spec = gen_unitary_comb(2, 2, 2, rng)
    exact = OracleSession(spec)
    sampled = OracleSession(spec, OracleConfig(mode="sampled", seed=3))
    draws = np.random.default_rng(3)
    choi = build_choi(spec)
    sic = sic_qubit()
    for _ in range(4):
        u = haar_unitary(2, rng)
        povm = IcPovm(tuple(u @ e @ u.conj().T for e in sic.elements))
        want = reference_born_table(choi, {l: povm for l in choi.labels})
        want /= want.sum()
        got = exact.pair_frequencies(1000, povm)[1][0]  # (A2, B1)
        np.testing.assert_allclose(got, want.sum(axis=(0, 3)), atol=1e-12)
        counts = _multinomial(draws, 1000, want)
        np.testing.assert_array_equal(sampled.sample_batch(1000, povm), counts)
        del povm  # frees its id for the next POVM


def test_from_choi_matches_the_spec_session(monkeypatch):
    rng = np.random.default_rng(18)
    spec = gen_unitary_comb(2, 2, 2, rng)
    choi = build_choi(spec)
    session = OracleSession.from_choi(
        reorder(choi, ["B2", "A1", "B1", "A2"]), OracleConfig(query_policy="theoretical")
    )
    assert session.wires == ("A1", "A2", "B1", "B2")
    np.testing.assert_allclose(
        session_born_table(session, sic_qubit()),
        session_born_table(OracleSession(spec), sic_qubit()),
        atol=1e-12,
    )
    zero = np.diag([1.0, 0.0]).astype(complex)
    r0 = PrepRecipe("A1", zero, discard_label="B1")
    session.overlap_estimate(r0, r0, eps=0.1, kappa=0.05)
    assert session.query_count == 2 * 738
    monkeypatch.setattr(combs, "MAX_ENTRIES", choi.space.dim**2 - 1)
    with pytest.raises(ValueError, match="cap"):
        OracleSession.from_choi(choi)


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
        want = reference_born_table(choi, {l: sic for l in choi.labels})
        np.testing.assert_allclose(session_born_table(session, sic), want, atol=1e-12)


def test_from_choi_refuses_a_non_hermitian_operator():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        OracleSession.from_choi(Op(WireSpace(("A1", "B1"), (2, 2)), mat))


def test_from_choi_refuses_an_operator_without_positive_trace():
    """The zero operator would leave an all-NaN outcome table."""
    with pytest.raises(ValueError, match="trace"):
        OracleSession.from_choi(Op(WireSpace(("A1", "B1"), (2, 2)), np.zeros((4, 4))))


def test_from_choi_keeps_one_column_for_a_rank_one_operator():
    session = OracleSession.from_choi(global_unitary_choi(2, 0))
    assert session._v.shape == (16, 1)
    assert np.linalg.norm(session._v) ** 2 == pytest.approx(1.0)


@pytest.mark.parametrize("wire", ["B2", "E1"])
def test_from_choi_refuses_wires_that_are_not_n_inputs_and_n_outputs(wire):
    """An identity tooth on (A1, B1) beside one more wire is no one-tooth comb.

    Taking it for one would leave the extra wire out of the order, or trace
    it out as an environment; the checker used to fail on it with an axes
    error.
    """
    phi = np.eye(2).reshape(4) / np.sqrt(2)
    choi = np.kron(np.outer(phi, phi), np.diag([1.0, 0.0]))
    op = Op(WireSpace(("A1", "B1", wire), (2, 2, 2)), choi)
    with pytest.raises(ValueError, match="inputs A"):
        OracleSession.from_choi(op, OracleConfig(query_policy="theoretical"))
    with pytest.raises(ValueError, match="inputs A"):
        combs.check_comb_condition(op, (("A1", "B1"),))


def test_a_session_reads_its_wire_roles_once():
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(0))
    session = OracleSession(spec)
    assert session.input_labels is session.input_labels
    child = session.reduce(*spec.true_order[-1])
    assert child.input_labels + child.output_labels == child.wires
    assert child.n_teeth == 2
