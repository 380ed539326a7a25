"""Black-box session semantics: state preparation, sampling, query billing."""

import ast
import io
import itertools
import json
import math
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from conftest import (
    global_unitary_choi,
    pauli6,
    reference_born_table,
    session_born_table,
)
from test_private_helpers import SRC

import causalcomb.combs as combs
import causalcomb.oracle as oracle
from causalcomb.combs import (
    CombSpec,
    build_choi,
    gen_fig3_comb,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_unitary_comb,
    trace_out_tooth,
)
from causalcomb.discovery import discover_general, discover_memoryless, independence_matrix
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


@pytest.mark.parametrize("eps, kappa", [(1e-160, 0.05), (1.3e-154, 0.05), (8e-155, 0.999)])
def test_a_swap_budget_that_overflows_a_float_is_refused(eps, kappa):
    """It used to raise ``OverflowError`` from ``eps**-2`` or from ``ceil(inf)``."""
    with pytest.raises(ValueError, match=f"eps = {eps} is too small"):
        swap_test_sample_size(eps, kappa)
    # just above, the count is a Python int, which exact mode bills
    assert swap_test_sample_size(1e-150, 0.05) == math.ceil(2.0 * 1e300 * math.log(40.0))


def test_a_swap_test_past_a_64_bit_count_is_refused_before_it_bills():
    """delta = 1e-9 needs about 1.2e20 runs per test: sampled mode used to bill
    them and then crash in the binomial draw.  Exact mode still runs it."""
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(0))
    config = OracleConfig(mode="sampled", seed=0, query_log=io.StringIO())
    session = OracleSession(spec, config)
    with pytest.raises(ValueError, match="more than a 64-bit count holds"):
        discover_general(session, delta=1e-9)
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    # nothing was drawn: the next estimate is a fresh session's
    fresh = OracleSession(spec, OracleConfig(mode="sampled", seed=0))
    recipe = PrepRecipe("A1", np.diag([1.0, 0.0]).astype(complex), "B1")
    assert session.overlap_estimate(recipe, recipe, 0.1, 0.05) == fresh.overlap_estimate(
        recipe, recipe, 0.1, 0.05
    )
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="64-bit"):
        swap_test_estimate(0.5, 2.5e-10, 0.05, rng)
    assert rng.random() == np.random.default_rng(1).random()
    report = discover_general(OracleSession(spec, OracleConfig(query_policy="theoretical")), 1e-9)
    runs = swap_test_sample_size(2.5e-10, 0.05)
    assert runs > 2**63 and report.ok
    assert report.queries == 2 * runs * report.diagnostics["swap_tests"]


def test_a_direct_overlap_estimate_past_a_64_bit_count_is_refused_before_it_bills():
    """Discovery refuses such a budget by its ``delta`` before any swap test;
    a direct caller still meets the session's own refusal, by ``eps``."""
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(0))
    config = OracleConfig(mode="sampled", seed=0, query_log=io.StringIO())
    session = OracleSession(spec, config)
    recipe = PrepRecipe("A1", np.diag([1.0, 0.0]).astype(complex), "B1")
    with pytest.raises(ValueError, match="eps = 2.5e-10 needs .* more than a 64-bit count holds"):
        session.overlap_estimate(recipe, recipe, 2.5e-10, 0.05)
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    fresh = OracleSession(spec, OracleConfig(mode="sampled", seed=0))
    assert session.overlap_estimate(recipe, recipe, 0.1, 0.05) == fresh.overlap_estimate(
        recipe, recipe, 0.1, 0.05
    )


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

    def recording(self, n_shots, povm):
        draws.append(sample_batch(self, n_shots, povm))
        return draws[-1]

    monkeypatch.setattr(OracleSession, "sample_batch", recording)
    freqs = session.pair_frequencies(50_000, pauli6())
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


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("d, preset", [(2, "sic2"), (3, "random-ic:0")])
def test_pair_frequencies_are_one_float_stack_of_the_per_pair_tables(mode, d, preset):
    """Shape ``(n_in, n_out, m, m)``, bit for bit the tables of one pair at a
    time: in exact mode each pair's state folded from the factor, measured and
    normalized on its own; in sampled mode each pair's sum of the one draw."""
    n = 3 if d == 2 else 2
    spec = gen_unitary_comb(n, d, 2, np.random.default_rng([71, d]))
    povm = povm_preset(preset, d)
    config = OracleConfig(mode=mode, seed=72)
    got = OracleSession(spec, config).pair_frequencies(5000, povm)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == (n, n, povm.size, povm.size)
    pairs = itertools.product(enumerate(spec.input_labels), enumerate(spec.output_labels))
    if mode == "exact":
        factor = combs.verified_factor(spec)[0]
        for (i, a), (j, b) in pairs:
            k = factor.fold([a, b], [l for l in factor.space.labels if l not in (a, b)])
            p = pair_probs(povm, povm, k @ k.conj().T)
            np.testing.assert_array_equal(got[i, j], p / p.sum())
    else:
        counts = OracleSession(spec, config).sample_batch(5000, povm)
        for (i, _), (j, _) in pairs:
            pair = counts.sum(axis=tuple(k for k in range(2 * n) if k not in (i, n + j)))
            np.testing.assert_array_equal(got[i, j], pair / 5000)


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
    _assert_multinomial_law(x, n, p)


def _log_binomial_tails(k, trials, p):
    """``log P(X <= k)`` and ``log P(X >= k)`` for ``X ~ Binomial(trials, p)``, ``0 < p < 1``.

    The pmf is summed in log space over ``k`` and every value within
    40 standard deviations (plus 40) of ``k`` and of the mean; the terms
    left out add less than ``1e-20`` to either tail.
    """
    mean, sd = trials * p, math.sqrt(trials * p * (1 - p))
    reach = 40 * sd + 40
    lo = max(0, math.floor(min(k, mean) - reach))
    hi = min(trials, math.ceil(max(k, mean) + reach))
    j = np.arange(lo, hi + 1)
    log_pmf = math.lgamma(trials + 1) - math.lgamma(lo + 1) - math.lgamma(trials - lo + 1)
    log_pmf += lo * math.log(p) + (trials - lo) * math.log1p(-p)
    # log pmf(j + 1) - log pmf(j) = log((trials - j) / (j + 1)) + log(p / (1 - p))
    steps = np.log((trials - j[:-1]) / (j[:-1] + 1)) + math.log(p) - math.log1p(-p)
    log_pmf = log_pmf + np.r_[0.0, np.cumsum(steps)]
    top = log_pmf.max()
    weights = np.exp(log_pmf - top)
    below, above = weights[j <= k].sum(), weights[j >= k].sum()
    return top + math.log(below), top + math.log(above)


def _assert_multinomial_law(x, n, p):
    """Rows of ``x`` are independent ``Multinomial(n, p)`` draws.

    Each cell's total over the ``draws`` rows is ``Binomial(draws n, p)``,
    and both its tails must exceed ``1e-6`` over the number of cells.  Each
    cell's variance and cells 0 and 1's covariance lie within 5 standard
    errors taken from the exact ``Multinomial(n, p)`` moments, so a cell
    that no draw hits is judged by its law, not by the draws.  Cell 0's
    counts pass a chi-square test.
    """
    draws = len(x)
    assert (x.sum(axis=1) == n).all() and x.min() >= 0
    assert (x[:, p == 0] == 0).all()

    floor = math.log(1e-6 / len(p))
    for total, pc in zip(x.sum(axis=0), p):
        if 0 < pc < 1:
            tails = _log_binomial_tails(int(total), draws * n, pc)
            assert min(tails) > floor, (int(total), draws * n, pc, tails)

    def within_5_se(terms, want, var):
        assert (np.abs(terms.mean(axis=0) - want) <= 5 * np.sqrt(var / draws)).all()

    # central moments of Binomial(n, p): second s2, fourth s2 (1 + 3 (n - 2) p q)
    s2 = n * p * (1 - p)
    s4 = s2 * (1 + 3 * (n - 2) * p * (1 - p))
    dev = x - n * p
    within_5_se(dev**2, s2, s4 - s2**2)
    # dev_c sums n independent one-shot deviations z_c, whose variances are
    # v_c = p_c (1 - p_c) and whose covariance is c = -p_0 p_1, so
    # E[dev_0^2 dev_1^2] = n E[z_0^2 z_1^2] + n (n - 1) (v_0 v_1 + 2 c^2)
    p0, p1 = p[0], p[1]
    c = -p0 * p1
    z22 = p0 * (1 - p0) ** 2 * p1**2 + p1 * p0**2 * (1 - p1) ** 2 + (1 - p0 - p1) * c**2
    m22 = n * z22 + n * (n - 1) * (p0 * (1 - p0) * p1 * (1 - p1) + 2 * c**2)
    within_5_se(dev[:, 0] * dev[:, 1], n * c, m22 - (n * c) ** 2)
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


@pytest.mark.parametrize(
    "n, block_cells, shots, draws, kept",
    [
        (2, 36, 40, 800, ("A1", "A2", "B1", "B2")),  # 1296 cells in 36 blocks; every cell
        (3, 1296, 20, 1000, ("A1", "B2")),  # 46656 cells in 36 blocks; one pair's sums
    ],
)
def test_staged_batches_draw_the_multinomial_law(
    monkeypatch, n, block_cells, shots, draws, kept
):
    """Small blocks: the lead wires' totals, then each block's counts.

    Every wire measures with the six-outcome Pauli POVM, so two lead wires
    give 36 blocks at each n.  At n = 2 every one of the 1296 cells is
    tested; the exact per-cell law holds for cells that few or no draws hit.
    At n = 3 the batches' sums over all wires but (A1, B2), a lead and a
    rest wire, are tested.  A multinomial's sums over cells are multinomial
    too.
    """
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", block_cells)
    spec = gen_unitary_comb(n, 2, 2, np.random.default_rng([64, n]))
    choi = build_choi(spec)
    povm = pauli6()
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=65))
    others = tuple(k for k, l in enumerate(choi.labels) if l not in kept)
    x = np.array([session.sample_batch(shots, povm).sum(axis=others) for _ in range(draws)])
    p = reference_born_table(choi, {l: povm for l in choi.labels}).sum(axis=others)
    _assert_multinomial_law(x.reshape(draws, -1), shots, (p / p.sum()).ravel())


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


def test_a_batch_past_the_exact_shot_limit_is_refused_before_anything_is_drawn():
    """Float64 cumulative counts are exact up to 2**53 shots; a sampled run of
    1e19 shots used to draw for minutes.  Exact mode shares the bound."""
    spec = gen_unitary_comb(2, 2, 2, np.random.default_rng(73))
    config = OracleConfig(mode="sampled", seed=74, query_log=io.StringIO())
    session, sic = OracleSession(spec, config), sic_qubit()
    for call in (session.sample_batch, session.pair_frequencies):
        with pytest.raises(ValueError, match=f"at most {2**52} shots, got {2**52 + 1}"):
            call(2**52 + 1, sic)
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    fresh = OracleSession(spec, OracleConfig(mode="sampled", seed=74))
    np.testing.assert_array_equal(session.sample_batch(100, sic), fresh.sample_batch(100, sic))
    exact = OracleSession(spec, OracleConfig(query_policy="theoretical"))
    with pytest.raises(ValueError, match="at most"):
        exact.pair_frequencies(10**19, sic)
    exact.pair_frequencies(2**52, sic)
    assert exact.query_count == 2**52


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


def _measure_both_ways(session, povm):
    """Every session call that measures with ``povm``: sampled mode has two."""
    calls = [lambda: session.pair_frequencies(1000, povm)]
    if session.mode == "sampled":
        calls.append(lambda: session.sample_batch(1000, povm))
    return calls


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_a_state_set_is_refused_as_a_measurement(mode):
    """Sampled mode used to bill 1,000 queries and draw from unnormalized weights."""
    spec = gen_memoryless_comb(2, 2, np.random.default_rng(69))
    config = OracleConfig(mode=mode, seed=70, query_policy="theoretical", query_log=io.StringIO())
    session = OracleSession(spec, config)
    states = state_set_of(sic_qubit())
    for call in _measure_both_ways(session, states):
        with pytest.raises(ValueError, match="wire A1 needs a POVM on dimension 2, got a state"):
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


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_a_mapping_of_povms_is_refused(mode):
    """One POVM measures every wire: a mapping by wire label is refused,
    even one that gives every wire that POVM, before anything is billed."""
    spec = gen_memoryless_comb(2, 2, np.random.default_rng(73))
    config = OracleConfig(mode=mode, seed=74, query_policy="theoretical", query_log=io.StringIO())
    session = OracleSession(spec, config)
    mapping = {l: sic_qubit() for l in session.wires}
    for call in _measure_both_ways(session, mapping):
        with pytest.raises(ValueError, match="wire A1 needs a POVM on dimension 2, got a dict"):
            call()
    assert session.query_count == 0 and config.query_log.getvalue() == ""


def _qubit_qutrit_choi(rng):
    """Two teeth, qubit A1 into qutrit B1 and qutrit A2 into qubit B2, each a
    random channel: a unit-trace Choi operator on wires of two dimensions."""

    def choi(d_in, d_out):
        # Kraus operators K of a random Stinespring isometry; sum_j |j> (x) K|j> each
        w = haar_unitary(d_out * d_out, rng)[:, :d_in].reshape(d_out, d_out, d_in)
        kets = [k.T.reshape(-1) for k in w]
        return sum(np.outer(k, k.conj()) for k in kets) / d_in

    matrix = np.kron(choi(2, 3), choi(3, 2))
    return Op(WireSpace(("A1", "B1", "A2", "B2"), (2, 3, 3, 2)), matrix)


def test_promise_algorithms_refuse_wires_of_two_dimensions():
    """No one POVM fits a qubit and a qutrit wire, so a promise algorithm is
    refused before anything is billed; the general algorithm probes one wire
    at a time and still recovers an order."""
    op = _qubit_qutrit_choi(np.random.default_rng(75))
    config = OracleConfig(query_policy="theoretical", query_log=io.StringIO())
    session = OracleSession(op, config)
    for povm, wire, d in ((sic_qubit(), "A2", 3), (povm_preset("random-ic:0", 3), "A1", 2)):
        with pytest.raises(ValueError, match=f"wire {wire} needs a POVM on dimension {d}"):
            discover_memoryless(session, povm, 1000, 0.1)
    assert session.query_count == 0 and config.query_log.getvalue() == ""
    report = discover_general(session)
    assert report.ok
    assert combs.check_comb_condition(op, report.order).ok


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
            OracleSession(choi, config)
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
    choi = build_choi(spec)
    fed = Op(choi.space.restrict(["A2", "B1", "B2"]), contract_wire(choi, "A1", 2 * proj.T))
    rho = partial_trace(fed, ["A2", "B2"])
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


def _batch_session(mode, log=None):
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(43))
    config = OracleConfig(mode=mode, seed=44, query_policy="theoretical", query_log=log)
    return OracleSession(spec, config)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_a_batch_bills_nothing_when_opened_and_each_read_in_read_order(mode):
    """Each read is the swap test ``overlap_estimate`` runs on its two states:
    the same estimate from the same draw, and ``2N`` billed as it is read."""
    log = io.StringIO()
    session, twin = _batch_session(mode, log), _batch_session(mode)
    probes = state_set_of(sic_qubit()).elements
    estimate = session.swap_tests("A2", "B3", probes, 0.1, 0.05)
    assert session.query_count == 0 and log.getvalue() == ""
    runs = swap_test_sample_size(0.1, 0.05)
    reads = [(0, 0), (3, 3), (0, 3), (2, 1), (0, 0)]
    for k, (a, b) in enumerate(reads, 1):
        recipes = PrepRecipe("A2", probes[a], "B3"), PrepRecipe("A2", probes[b], "B3")
        assert estimate(a, b) == twin.overlap_estimate(*recipes, 0.1, 0.05)
        assert session.query_count == twin.query_count == 2 * runs * k
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    assert records == [
        {"trial": None, "op": "swap_test", "n": 2 * runs, "total": 2 * runs * k}
        for k in range(1, len(reads) + 1)
    ]


_PROBES = state_set_of(sic_qubit()).elements
_QUTRIT = np.eye(3, dtype=complex) / 3


_REFUSED_BATCHES = [
    (("A1", "B1", _PROBES, 0.0, 0.05), ValueError, "need 0 < eps <= 1"),
    (("A1", "B1", _PROBES, 0.1, 1.0), ValueError, "need 0 < eps <= 1"),
    (("A9", "B1", _PROBES, 0.1, 0.05), KeyError, "no wire 'A9'"),
    (("A1", "B1", [_PROBES[0], _QUTRIT], 0.1, 0.05), ValueError, r"prep state shape \(3, 3\)"),
    (("A1", "B1", _PROBES[0], 0.1, 0.05), ValueError, r"prep state shape \(2,\)"),
    (("B1", "B2", _PROBES, 0.1, 0.05), KeyError, "input label 'B1' is not an input wire"),
    (("A1", "A2", _PROBES, 0.1, 0.05), KeyError, "discard label 'A2' is not an output wire"),
    # two faults: the first in the docstring's order is the one refused
    (("A9", "B1", _PROBES, 0.0, 0.05), ValueError, "need 0 < eps <= 1"),
    (("A9", "A2", [_QUTRIT], 0.1, 0.05), KeyError, "no wire 'A9'"),
    (("A1", "A2", [_QUTRIT], 0.1, 0.05), ValueError, r"prep state shape \(3, 3\)"),
    (("A1", "A2", _PROBES, 2.5e-10, 0.05), KeyError, "discard label 'A2'"),
]
# exact mode runs any countable N
_SAMPLED_ONLY = [(("A1", "B1", _PROBES, 2.5e-10, 0.05), ValueError, "more than a 64-bit count")]


@pytest.mark.parametrize(
    "mode, args, error, message",
    [("exact", *row) for row in _REFUSED_BATCHES]
    + [("sampled", *row) for row in _REFUSED_BATCHES + _SAMPLED_ONLY],
)
def test_a_refused_batch_bills_draws_and_logs_nothing(mode, args, error, message):
    """A refusal comes before anything is billed or drawn: the next estimate is
    a fresh session's."""
    log = io.StringIO()
    session = _batch_session(mode, log)
    with pytest.raises(error, match=message):
        session.swap_tests(*args)
    assert session.query_count == 0 and log.getvalue() == ""
    recipe = PrepRecipe("A1", _PROBES[1], "B2")
    fresh = _batch_session(mode)
    got = session.overlap_estimate(recipe, recipe, 0.1, 0.05)
    assert got == fresh.overlap_estimate(recipe, recipe, 0.1, 0.05)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize(
    "states, message",
    [
        (np.zeros((4, 3, 3), complex), r"prep state shape \(3, 3\) != wire dim 2"),
        (_PROBES[None], r"prep state shape \(4, 2, 2\) != wire dim 2"),
    ],
    ids=["qutrit-stack", "stack-of-stacks"],
)
def test_a_complex_stack_of_another_shape_is_refused_state_by_state(mode, states, message):
    """A ``(K, d, d)`` stack is checked by its first state's shape, any other
    array state by state; each gets the message that names that shape."""
    with pytest.raises(ValueError, match=message):
        _batch_session(mode).swap_tests("A1", "B1", states, 0.1, 0.05)


def _numpy_with_default_rng(default_rng):
    """``numpy`` as ``oracle`` sees it, with ``np.random.default_rng`` replaced."""

    class Numpy:
        random = types.SimpleNamespace(default_rng=default_rng)

        def __getattr__(self, name):
            return getattr(np, name)

    return Numpy()


def test_an_exact_session_makes_no_random_stream(monkeypatch):
    """Exact mode never draws, so neither its root sessions nor their
    reductions seed a generator."""

    def refuse(*args, **kwargs):
        raise AssertionError("an exact session made a random stream")

    monkeypatch.setattr(oracle, "np", _numpy_with_default_rng(refuse))
    for n in (2, 3, 4):
        spec = gen_unitary_comb(n, 2, 2, np.random.default_rng([45, n]))
        report = discover_general(OracleSession(spec))
        assert report.ok and len(report.diagnostics["stages"]) == n
        assert report.order == spec.true_order
    session = OracleSession(gen_memoryless_comb(3, 2, np.random.default_rng(46)))
    estimates = independence_matrix(session, sic_qubit(), 1000, 0.05).estimates
    assert estimates.shape == (3, 3)


def test_a_sampled_session_tree_shares_one_random_stream(monkeypatch):
    """The root makes one generator from its seed, and every reduced child
    draws from that same stream."""
    made = []

    def counting(seed):
        made.append(np.random.default_rng(seed))
        return made[-1]

    monkeypatch.setattr(oracle, "np", _numpy_with_default_rng(counting))
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(47))
    config = OracleConfig(mode="sampled", seed=48)
    report = discover_general(OracleSession(spec, config), delta=0.1)
    assert report.ok and len(report.diagnostics["stages"]) == 3
    assert len(made) == 1
    root = OracleSession(spec, config)
    child = root.reduce(*spec.true_order[-1])
    grandchild = child.reduce(*spec.true_order[-2])
    assert len(made) == 2
    assert root._rng is child._rng is grandchild._rng is made[1]


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


@pytest.mark.parametrize(
    "n, pair, error, message",
    [
        (2, ("A1", "A2"), KeyError, "discard label 'A2' is not an output wire"),
        (2, ("B1", "A1"), KeyError, "input label 'B1' is not an input wire"),
        (2, ("A1", "B9"), KeyError, "discard label 'B9' is not an output wire"),
        (1, ("A1", "B1"), ValueError, "the last tooth cannot be shut"),
    ],
)
def test_reduce_refuses_wires_in_the_wrong_role_before_folding(
    monkeypatch, n, pair, error, message
):
    """``("A1", "A2")`` used to run the eigensolve and fail in ``wire_roles``,
    and ``("B1", "A1")`` to return a child.  The last tooth of a session
    reduced to one used to be folded and eigensolved, and then refused by
    ``wire_roles`` with a message about the empty wire set."""
    session = OracleSession(gen_unitary_comb(2, 2, 2, np.random.default_rng(14)))
    if n == 1:
        session = session.reduce("A2", "B2")
    monkeypatch.setattr(combs.Factor, "fold", lambda *args: pytest.fail("folded"))
    with pytest.raises(error, match=message):
        session.reduce(*pair)


class _RotatedFactor(combs.Factor):
    """``V U`` for a fresh Haar unitary ``U`` on the columns, again after every shut."""

    def __init__(self, factor, rng):
        super().__init__(factor.space, factor.v @ haar_unitary(factor.v.shape[1], rng))
        self.rng = rng

    def shut(self, i, j):
        return _RotatedFactor(super().shut(i, j), self.rng)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("dm", [1, 2, 4])
def test_no_session_read_depends_on_the_factors_column_basis(n, dm):
    """``V`` and ``V U`` factor the same operator: discovery emits the same
    order and bills, and every stage the same overlaps and pair tables."""
    spec = gen_unitary_comb(n, 2, dm, np.random.default_rng([41, n, dm]))
    rng = np.random.default_rng([42, n, dm])

    def sessions():
        config = OracleConfig(query_policy="theoretical")
        plain, rotated = OracleSession(spec, config), OracleSession(spec, config)
        rotated._factor = _RotatedFactor(rotated._factor, rng)
        return plain, rotated

    reports = [discover_general(s) for s in sessions()]
    assert reports[0].ok
    assert reports[0].order == reports[1].order
    assert reports[0].queries == reports[1].queries
    gaps = ("accepted_gap", "min_rejection_gap")
    for want, got in zip(*(r.diagnostics["stages"] for r in reports)):
        assert [got.pop(k) for k in gaps] == pytest.approx([want.pop(k) for k in gaps], abs=1e-12)
        assert got == want
    probes = [*state_set_of(sic_qubit()).elements, np.diag([0.7, 0.3]).astype(complex)]
    sic = sic_qubit()
    plain, rotated = sessions()
    for stage, pair in enumerate(reversed(reports[0].order)):
        for i in plain.input_labels:
            for j in plain.output_labels:
                for s_a in probes:
                    for s_b in probes:
                        recipes = PrepRecipe(i, s_a, j), PrepRecipe(i, s_b, j)
                        want = plain.overlap_estimate(*recipes, eps=0.1, kappa=0.05)
                        got = rotated.overlap_estimate(*recipes, eps=0.1, kappa=0.05)
                        assert got == pytest.approx(want, abs=1e-12)
        tables = plain.pair_frequencies(1000, sic), rotated.pair_frequencies(1000, sic)
        for want, got in zip(*tables):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert plain.query_count == rotated.query_count
        if stage < n - 1:
            plain, rotated = plain.reduce(*pair), rotated.reduce(*pair)
            assert isinstance(rotated._factor, _RotatedFactor)


def test_only_the_factor_knows_its_layout():
    """No module reads a factor's array or its tensor view, or folds it,
    outside ``combs.Factor`` and the three ``combs`` functions that build a
    factor or read it whole."""
    builders = {"Factor", "choi_factor", "verified_factor", "build_choi"}
    layout = ("v", "fold", "_tensor")
    reads, seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.stem == "combs" and getattr(top, "name", None) in builders:
                seen.add(top.name)
                continue
            reads += [
                f"{path.name}:{node.lineno} .{node.attr}"
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr in layout
            ]
    assert seen == builders
    assert reads == []


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
        got, session_born_table(OracleSession(want), sic_qubit()), atol=1e-12
    )


@pytest.mark.parametrize("kind", ["fig3", "unitary"])
def test_a_session_on_reversed_wires_discovers_as_on_sorted_ones(kind):
    """The factor comes in sorted wire order whatever the operator's, so a
    session on reversed wires has sorted wires and the same order, swap
    tests and bill; fig3's operators get different Cholesky factors."""
    if kind == "fig3":
        spec = gen_fig3_comb()
    else:
        spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(19))
    choi = build_choi(spec)
    flipped = reorder(choi, list(reversed(choi.labels)))
    config = OracleConfig(query_policy="theoretical")
    sessions = OracleSession(choi, config), OracleSession(flipped, config)
    assert sessions[1].wires == sessions[0].wires == choi.labels
    want, got = (discover_general(s) for s in sessions)
    assert want.ok and got.order == want.order
    assert got.diagnostics["swap_tests"] == want.diagnostics["swap_tests"]
    assert got.queries == want.queries


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
    session = OracleSession(
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
        OracleSession(choi)


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
        assert session._factor.v.shape[1] <= dm
        want = reference_born_table(choi, {l: sic for l in choi.labels})
        np.testing.assert_allclose(session_born_table(session, sic), want, atol=1e-12)


def test_from_choi_refuses_a_non_hermitian_operator():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        OracleSession(Op(WireSpace(("A1", "B1"), (2, 2)), mat))


def test_from_choi_refuses_an_operator_without_positive_trace():
    """The zero operator would leave an all-NaN outcome table."""
    with pytest.raises(ValueError, match="trace"):
        OracleSession(Op(WireSpace(("A1", "B1"), (2, 2)), np.zeros((4, 4))))


def test_from_choi_keeps_one_column_for_a_rank_one_operator():
    session = OracleSession(global_unitary_choi(2, 0))
    assert session._factor.v.shape == (16, 1)
    assert np.linalg.norm(session._factor.v) ** 2 == pytest.approx(1.0)


def test_a_spec_session_opens_on_the_purification():
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(4))
    np.testing.assert_array_equal(OracleSession(spec)._factor.v, combs.choi_factor(spec).v)


@pytest.mark.parametrize("trace", [8.0, 0.5])
def test_a_session_refuses_a_choi_operator_whose_trace_is_not_one(trace):
    """Exact overlaps scale with (Tr C)^2, so ``delta`` loses its meaning.

    At trace 8 (d^n, the other common convention) a sampled
    ``discover_general`` run on this comb emitted an order the checker
    rejects.
    """
    choi = build_choi(gen_unitary_comb(3, 2, 2, np.random.default_rng(5)))
    config = OracleConfig(mode="sampled", seed=3, query_log=io.StringIO())
    with pytest.raises(ValueError, match=f"trace {trace:g}, not 1"):
        OracleSession(Op(choi.space, trace * choi.matrix), config)
    assert config.query_log.getvalue() == ""
    assert OracleSession(choi, config).wires == choi.labels


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
        OracleSession(op, OracleConfig(query_policy="theoretical"))
    with pytest.raises(ValueError, match="inputs A"):
        combs.check_comb_condition(op, (("A1", "B1"),))


def test_a_session_reads_its_wire_roles_once():
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(0))
    session = OracleSession(spec)
    assert session.input_labels is session.input_labels
    child = session.reduce(*spec.true_order[-1])
    assert child.input_labels + child.output_labels == child.wires
    assert child.n_teeth == 2
