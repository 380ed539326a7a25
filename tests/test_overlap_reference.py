"""Session overlaps and the last-tooth search against a per-test reference.

The reference prepares both states of every swap test from the full Choi
operator: feed the probe into the input wire, trace out the discarded
output, sort the wires, and take ``Tr[rho_a rho_b]`` of the matrix
product.  The session instead holds the Choi operator as a factor
``V V^H``: once per batch of swap tests, one (input, discard) pair and a
stack of states, it folds the input and the discarded output out of the
rows, takes the Gram of the result on its smaller side, and contracts
that into the swap operator, a ``d^2 x d^2`` operator on the input and a
copy of it.  The whole stack is fed into the swap operator with one call,
and every overlap of the batch is read off one product of the fed stack
against the states.  Both must give the same overlaps, one at a time
through ``overlap_estimate`` (a batch of two) or a pair's whole batch,
the same search and the same bill.
"""

import itertools

import numpy as np
import pytest

import causalcomb.combs as combs
import causalcomb.oracle as oracle
from causalcomb.combs import build_choi, gen_unitary_comb, trace_out_tooth
from causalcomb.discovery import find_last
from causalcomb.oracle import OracleConfig, OracleSession, PrepRecipe, swap_test_sample_size
from causalcomb.povm import ic_povm_for_dim, state_set_of
from causalcomb.tensors import Op, contract_wire, partial_trace, sort_wires

PROBES = state_set_of(ic_povm_for_dim(2)).elements

# (n teeth, memory dim) of the Haar combs, 20 in all
SHAPES = [(n, dm) for n in (2, 3, 4) for dm in (1, 2, 4)] * 2 + [(3, 2), (4, 2)]


def _reference_prepare(choi, recipe):
    d = choi.dim_of(recipe.input_label)
    rest = [l for l in choi.labels if l != recipe.input_label]
    kernel = d * np.asarray(recipe.state).T
    fed = Op(choi.space.restrict(rest), contract_wire(choi, recipe.input_label, kernel))
    keep = [l for l in fed.labels if l != recipe.discard_label]
    return sort_wires(partial_trace(fed, keep))


def _reference_overlap(choi, recipe_a, recipe_b):
    rho_a = _reference_prepare(choi, recipe_a)
    rho_b = _reference_prepare(choi, recipe_b)
    return float(np.trace(rho_a.matrix @ rho_b.matrix).real)


def _reference_find_last(choi, delta, kappa, rng=None):
    """The early-exit search of ``find_last`` on reference overlaps.

    Exact overlaps without ``rng``; with it, one binomial swap-circuit
    draw per test, in test order.  Returns the search result and the
    queries the tests bill.
    """
    runs = swap_test_sample_size(delta / 4.0, kappa)
    billed = 0

    def estimate(recipe_a, recipe_b):
        nonlocal billed
        billed += 2 * runs
        overlap = _reference_overlap(choi, recipe_a, recipe_b)
        if rng is None:
            return overlap
        p = min(max((1.0 + overlap) / 2.0, 0.0), 1.0)
        return 2.0 * rng.binomial(runs, p) / runs - 1.0

    ins = [l for l in choi.labels if l.startswith("A")]
    outs = [l for l in choi.labels if l.startswith("B")]
    swap_tests, pairs_tested, gaps = 0, 0, {}
    for i in ins:
        for j in outs:
            pairs_tested += 1
            recipes = [PrepRecipe(i, s, j) for s in PROBES]
            p1 = estimate(recipes[0], recipes[0])
            swap_tests += 1
            accept = True
            for k in range(1, len(recipes)):
                pk = estimate(recipes[k], recipes[k])
                p1k = estimate(recipes[0], recipes[k])
                swap_tests += 2
                gap = p1 + pk - 2.0 * p1k
                if gap > delta:
                    gaps[(i, j)] = gap
                    accept = False
                    break
            if accept:
                return ((i, j), swap_tests, pairs_tested, gaps), billed
    return (None, swap_tests, pairs_tested, gaps), billed


def _haar_combs():
    for k, (n, dm) in enumerate(SHAPES):
        yield gen_unitary_comb(n, 2, dm, np.random.default_rng([2012, k]))


def _with_white_noise(choi):
    """``0.9 C + 0.1 I / dim``: full rank, so its factor is wide."""
    dim = choi.space.dim
    return Op(choi.space, 0.9 * choi.matrix + 0.1 * np.eye(dim) / dim)


def _assert_overlaps_match(session, choi, probes, rng):
    """Every probe pair of every (input, discard) pair, in a shuffled order,
    one ``overlap_estimate`` each; then each pair's batch, all its overlaps."""
    calls = [
        (i, j, a, b)
        for i in session.input_labels
        for j in session.output_labels
        for a in range(len(probes))
        for b in range(len(probes))
    ]
    ref = {
        (i, j, a): _reference_prepare(choi, PrepRecipe(i, probes[a], j)).matrix
        for i, j, a, _ in calls
    }
    # a shuffled order also moves between (input, discard) pairs often
    for idx in rng.permutation(len(calls)):
        i, j, a, b = calls[idx]
        ra, rb = PrepRecipe(i, probes[a], j), PrepRecipe(i, probes[b], j)
        got = session.overlap_estimate(ra, rb, eps=0.1, kappa=0.05)
        want = np.trace(ref[i, j, a] @ ref[i, j, b]).real
        assert got == pytest.approx(want, abs=1e-12)
    for i in session.input_labels:
        for j in session.output_labels:
            estimate = session.swap_tests(i, j, probes, eps=0.1, kappa=0.05)
            for a, b in itertools.product(range(len(probes)), repeat=2):
                want = np.trace(ref[i, j, a] @ ref[i, j, b]).real
                assert estimate(a, b) == pytest.approx(want, abs=1e-12)


def test_exact_overlaps_match_the_reference():
    rng = np.random.default_rng(31)
    for spec in _haar_combs():
        _assert_overlaps_match(OracleSession(spec), build_choi(spec), PROBES, rng)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dm", [1, 3])
def test_qutrit_overlaps_match_the_reference(n, dm):
    spec = gen_unitary_comb(n, 3, dm, np.random.default_rng([32, n, dm]))
    probes = state_set_of(ic_povm_for_dim(3, np.random.default_rng(0))).elements
    rng = np.random.default_rng(33)
    _assert_overlaps_match(OracleSession(spec), build_choi(spec), probes[:4], rng)


def test_wide_factor_overlaps_match_and_stay_within_the_pair_operator(monkeypatch):
    """A full-rank dense-operator factor has more columns than rows.

    Its swap operator comes from the row Gram, which holds no more entries
    than the dense pair operator ``Tr_discard C`` on the input and the span
    of the rest: ``(d_in * min(rest, d_in * d_out * rank))^2``.
    """
    noisy = _with_white_noise(build_choi(gen_unitary_comb(3, 2, 2, np.random.default_rng(34))))
    session = OracleSession(noisy)
    rank = session._factor.v.shape[1]
    assert rank == noisy.space.dim
    sizes = []
    monkeypatch.setattr(combs, "check_entries", lambda entries, what: sizes.append(entries))
    _assert_overlaps_match(session, noisy, PROBES, np.random.default_rng(35))
    rest = noisy.space.dim // 4
    assert sizes and max(sizes) <= (2 * min(rest, 4 * rank)) ** 2


def test_a_pair_feeds_each_probe_into_the_swap_operator_once(monkeypatch):
    """One ``contract_wire`` call per tested pair, on that pair's own swap
    operator, and its one kernel stack holds every probe, ``d s^T``."""
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(36))
    fed = []

    def counting(x, label, k):
        fed.append((x, np.array(k)))
        return contract_wire(x, label, k)

    monkeypatch.setattr(oracle, "contract_wire", counting)
    res = find_last(OracleSession(spec), 1e-6, 0.05)
    assert res.pairs_tested > 1
    assert len(fed) == len({id(x) for x, _ in fed}) == res.pairs_tested
    kernels = 2 * np.array(PROBES).transpose(0, 2, 1)
    for _, k in fed:
        np.testing.assert_array_equal(k, kernels)


def test_overlaps_and_reduction_need_no_qr(monkeypatch):
    specs = list(_haar_combs())
    noisy = _with_white_noise(build_choi(specs[0]))
    sessions = [OracleSession(spec) for spec in specs] + [OracleSession(noisy)]

    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for session in sessions:
        while True:
            res = find_last(session, 1e-6, 0.05)
            if len(session.input_labels) == 1:
                break
            session = session.reduce(*res.pair)


def test_exact_search_matches_the_reference_at_every_stage():
    delta, kappa = 1e-6, 0.05
    for spec in _haar_combs():
        session = OracleSession(spec, OracleConfig(query_policy="theoretical"))
        choi = build_choi(spec)
        for _ in range(spec.n):
            before = session.query_count
            res = find_last(session, delta, kappa)
            (pair, swap_tests, pairs_tested, gaps), billed = _reference_find_last(
                choi, delta, kappa
            )
            assert res.pair == pair
            assert (res.swap_tests, res.pairs_tested) == (swap_tests, pairs_tested)
            assert res.rejection_gaps.keys() == gaps.keys()
            assert session.query_count - before == billed
            if len(session.input_labels) > 1:
                session = session.reduce(*pair)
                choi = trace_out_tooth(choi, *pair)


def test_sampled_search_draws_what_the_reference_draws():
    delta, kappa, seed = 0.1, 0.05, 77
    spec = gen_unitary_comb(3, 2, 2, np.random.default_rng(78))
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=seed))
    choi = build_choi(spec)
    rng = np.random.default_rng(seed)
    for _ in range(spec.n):
        before = session.query_count
        res = find_last(session, delta, kappa)
        (pair, swap_tests, pairs_tested, gaps), billed = _reference_find_last(
            choi, delta, kappa, rng
        )
        assert res.pair == pair
        assert (res.swap_tests, res.pairs_tested) == (swap_tests, pairs_tested)
        assert res.rejection_gaps == gaps
        assert session.query_count - before == billed
        if pair is None or len(session.input_labels) == 1:
            break
        session = session.reduce(*pair)
        choi = trace_out_tooth(choi, *pair)
