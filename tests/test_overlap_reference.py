"""Session overlaps and the last-tooth search against a per-test reference.

The reference prepares both states of every swap test from the full Choi
operator: feed the probe into the input wire, trace out the discarded
output, sort the wires, and take ``Tr[rho_a rho_b]`` of the matrix
product.  The session instead holds the Choi operator as a factor
``V diag(w) V^H``: once per (input, discard) pair it folds the discarded
output into the factor's columns, projects them onto their span where
that is smaller than the remaining wires, and feeds each distinct probe
into the small operator this gives once.  Both must give the same
overlaps, the same search and the same bill.
"""

import numpy as np
import pytest

from causalcomb.combs import build_choi, gen_unitary_comb, trace_out_tooth
from causalcomb.discovery import find_last
from causalcomb.oracle import OracleConfig, OracleSession, PrepRecipe, swap_test_sample_size
from causalcomb.povm import ic_povm_for_dim, state_set_of
from causalcomb.tensors import contract_wire, partial_trace, sort_wires

PROBES = state_set_of(ic_povm_for_dim(2)).elements

# (n teeth, memory dim) of the Haar combs, 20 in all
SHAPES = [(n, dm) for n in (2, 3, 4) for dm in (1, 2, 4)] * 2 + [(3, 2), (4, 2)]


def _reference_prepare(choi, recipe):
    d = choi.dim_of(recipe.input_label)
    fed = contract_wire(choi, recipe.input_label, d * np.asarray(recipe.state).T)
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


def test_exact_overlaps_match_the_reference():
    rng = np.random.default_rng(31)
    for spec in _haar_combs():
        session = OracleSession(spec)
        choi = build_choi(spec)
        calls = [
            (i, j, a, b)
            for i in session.input_labels
            for j in session.output_labels
            for a in range(len(PROBES))
            for b in range(len(PROBES))
        ]
        ref = {
            (i, j, a): _reference_prepare(choi, PrepRecipe(i, PROBES[a], j)).matrix
            for i, j, a, _ in calls
        }
        # a shuffled order also replaces the session's prepared pair often
        for idx in rng.permutation(len(calls)):
            i, j, a, b = calls[idx]
            ra, rb = PrepRecipe(i, PROBES[a], j), PrepRecipe(i, PROBES[b], j)
            got = session.overlap_estimate(ra, rb, eps=0.1, kappa=0.05)
            want = np.trace(ref[i, j, a] @ ref[i, j, b]).real
            assert got == pytest.approx(want, abs=1e-12)


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
