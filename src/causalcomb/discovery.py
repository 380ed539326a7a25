"""Causal order discovery from black-box access.

Three strategies, in decreasing order of generality and cost:

``discover_general``
    Peels teeth off the back.  A pair (input i, output j) can be the last
    tooth exactly when, after discarding output j, the process output no
    longer depends on what was fed into input i.  That is tested by
    probing input i with an informationally complete state set and
    comparing the resulting states via destructive swap-circuit overlap
    estimates; the first pair (row-major over sorted wires) whose
    pairwise squared distances all stay below ``delta`` is accepted,
    the tooth is wired shut, and the search recurses.  Exhausting all
    pairs at any stage means no compatible ordering exists at all.

``discover_totalorder``
    Assumes every causally-possible (input, output) pair is visibly
    correlated.  One shared table of prepare-and-measure shots yields a
    correlation estimate for every pair; inputs are ranked by how many
    outputs they touch (descending) and outputs by how many inputs touch
    them (ascending), which pins down both hidden permutations from
    purely pairwise data.

``discover_memoryless``
    Assumes the process is a product of single-wire teeth.  Each input is
    matched to the first output it is visibly correlated with; inputs
    with no visible partner (constant teeth) are paired up with the
    leftover outputs in index order, any choice being equally valid, and
    the report lists those pairs as guesses.  A wire visibly correlated
    with two partners breaks the promise, and the run reports it.

All three time and bill a run the same way, and return a
:class:`DiscoveryReport` of the queries it added to the session meter.

Correlations are estimated by two-sided linear inversion of the pairwise
outcome frequencies of one batch (:func:`correlation_from_freqs`, which
takes a whole stack of pairs in one call); the frame
eigenvalues of the POVMs give non-asymptotic accuracy bounds
(:func:`correlation_error_bound`) used to size shot budgets
(:func:`correlation_sample_size`).

This module sees sessions only through their public statistics API; it
never touches the hidden spec or Choi operator, nor draws or bills a
shot itself, and a test pins that.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .combs import CausalOrder
from .oracle import OracleSession, PrepRecipe, swap_test_sample_size
from .povm import IcPovm, frame_of, ic_povm_for_dim, reconstruct_pair, state_set_of
from .tensors import correlation_norms

__all__ = [
    "IndMatrix",
    "FindLastResult",
    "DiscoveryReport",
    "correlation_from_freqs",
    "xi_constant",
    "correlation_error_bound",
    "correlation_sample_size",
    "independence_matrix",
    "find_last",
    "discover_general",
    "discover_totalorder",
    "discover_memoryless",
]

NOT_A_COMB = "not a quantum comb"
ASSUMPTION_VIOLATED = "assumption violated: ties in correlation counts"
NOT_MEMORYLESS = "assumption violated: a wire correlates with more than one partner"


# ---------------------------------------------------------------------------
# correlation estimation


def correlation_from_freqs(freqs: np.ndarray, povm_a: IcPovm, povm_b: IcPovm):
    """Correlation estimates from joint outcome frequency matrices.

    Reconstructs each bipartite state by two-sided linear inversion and
    returns its trace-norm distance from the product of its marginals.
    Exact Born frequencies give the exact correlation.  ``freqs`` may
    carry leading axes, a stack of pairs measured with the same two
    POVMs; then the result is an array of that leading shape, and one
    matrix gives a float.
    """
    return correlation_norms(reconstruct_pair(povm_a, povm_b, freqs), povm_a.dim)


def xi_constant(povm_a: IcPovm, povm_b: IcPovm) -> float:
    """Error-propagation constant from outcome frequencies to correlation.

    A frequency vector within ``xi * eps`` of the Born values (in the
    2-norm sense captured by the frame sandwich) keeps the reconstructed
    correlation within ``eps`` of the truth.
    """
    da, db = povm_a.dim, povm_b.dim
    lam = frame_of(povm_a).lambda_min * frame_of(povm_b).lambda_min
    return math.sqrt(lam) / (math.sqrt(da**2 * db**2 + 4 * db**2 + 4 * da**2) * da * db)


def _budget_terms(kappa: float, povm_a: IcPovm, povm_b: IcPovm) -> tuple[float, float]:
    """``log(2 K / kappa)`` and ``2 xi^2``, the two terms both shot budgets share.

    ``K = da^2 db^2 + da^2 + db^2`` counts a pair's outcome classes: the
    joint outcomes and each side's own.  Needs ``0 < kappa < 1``, else
    ``ValueError``.
    """
    if not 0 < kappa < 1:
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    da, db = povm_a.dim, povm_b.dim
    classes = da**2 * db**2 + da**2 + db**2
    return math.log(2.0 * classes / kappa), 2.0 * xi_constant(povm_a, povm_b) ** 2


def correlation_error_bound(
    n_shots: int, kappa: float, povm_a: IcPovm, povm_b: IcPovm
) -> float:
    """Accuracy ``eps`` achieved with failure probability ``kappa`` at ``n_shots``.

    Needs ``n_shots >= 1`` and ``0 < kappa < 1``, else ``ValueError``.
    """
    if not n_shots >= 1:
        raise ValueError(f"n_shots must be at least 1, got {n_shots}")
    log_term, two_xi_sq = _budget_terms(kappa, povm_a, povm_b)
    return math.sqrt(log_term / (two_xi_sq * n_shots))


def correlation_sample_size(
    eps: float, kappa: float, povm_a: IcPovm, povm_b: IcPovm
) -> int:
    """Shots needed for accuracy ``eps`` at failure probability ``kappa``.

    Needs ``eps > 0`` and ``0 < kappa < 1``, else ``ValueError``.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be a positive finite number, got {eps}")
    log_term, two_xi_sq = _budget_terms(kappa, povm_a, povm_b)
    return math.ceil(log_term / (two_xi_sq * eps**2))


# ---------------------------------------------------------------------------
# pairwise independence matrix


@dataclass(frozen=True)
class IndMatrix:
    """Pairwise independence verdicts, one per (input, output) pair."""

    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    estimates: np.ndarray  # (n_in, n_out) correlation estimates
    threshold: float
    n_shots: int

    @property
    def ind(self) -> np.ndarray:
        """True where the pair looks independent (estimate <= threshold)."""
        return self.estimates <= self.threshold


def independence_matrix(
    session: OracleSession, povm: IcPovm, n_shots: int, threshold: float
) -> IndMatrix:
    """Estimate every (input, output) correlation from pair statistics.

    The session hands over every pair's frequencies from one batch of
    ``n_shots`` prepare-and-measure shots, each wire measured with ``povm``
    (:meth:`~causalcomb.oracle.OracleSession.pair_frequencies`): sampled
    or exact, and billed as its mode and policy say.  All the pairs are
    estimated together, in one stacked :func:`correlation_from_freqs` call.
    """
    ins, outs = session.input_labels, session.output_labels
    freqs = session.pair_frequencies(n_shots, povm)
    pairs = np.stack([f for row in freqs for f in row])
    est = correlation_from_freqs(pairs, povm, povm).reshape(len(ins), len(outs))
    est.setflags(write=False)
    return IndMatrix(
        input_labels=ins,
        output_labels=outs,
        estimates=est,
        threshold=float(threshold),
        n_shots=int(n_shots),
    )


# ---------------------------------------------------------------------------
# last-tooth search


@dataclass(frozen=True)
class FindLastResult:
    pair: tuple[str, str] | None
    swap_tests: int
    pairs_tested: int
    rejection_gaps: dict  # (input, output) -> first gap estimate that exceeded delta
    accepted_gap: float | None = None  # the accepted pair's largest gap estimate


@functools.cache
def _probe_states(dim: int) -> tuple[np.ndarray, ...]:
    # deterministic IC probe set; seeded construction for exotic dimensions.
    # The elements are frozen arrays, so every caller may share them.
    povm = ic_povm_for_dim(dim, np.random.default_rng(0))
    return state_set_of(povm).elements


def find_last(session: OracleSession, delta: float, kappa: float) -> FindLastResult:
    """Search for a pair that can be the process's final tooth.

    For each candidate (input i, output j), row-major over sorted wires,
    probe input i with an informationally complete state set while
    discarding output j and estimate the squared distances
    ``||rho_1 - rho_k||_2^2`` via three overlap tests each; the pair is
    rejected as soon as one estimate exceeds ``delta`` and accepted if
    none does.  Returns the first accepted pair and its largest gap
    estimate, or ``None`` when every pair is rejected — in which case no
    ordering whatsoever is compatible with the process.  On a
    one-dimensional input the probe set has one state, so there are no
    two probe states to compare: the pair is accepted with no gap, and
    ``accepted_gap`` is ``None``.

    ``kappa`` is the failure probability of each swap test, not of the
    search: with ``m`` teeth and probe sets of ``d^2`` states the loop
    runs at most ``m^2 (2 d^2 - 1)`` tests, and a union bound over them
    is the search's failure probability.  Needs ``0 < delta <= 4``, so
    that each test's accuracy ``delta / 4`` is at most 1, and
    ``0 < kappa < 1``; else ``ValueError``, before anything is billed.
    """
    if not 0 < delta <= 4:
        raise ValueError(f"delta must be in (0, 4], got {delta}")
    if not 0 < kappa < 1:
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    eps = delta / 4.0
    swap_tests = 0
    pairs_tested = 0
    gaps: dict = {}
    for i in session.input_labels:
        states = _probe_states(session.dim_of(i))
        for j in session.output_labels:
            pairs_tested += 1
            recipes = [PrepRecipe(i, s, j) for s in states]
            p1 = session.overlap_estimate(recipes[0], recipes[0], eps, kappa)
            swap_tests += 1
            accept, worst = True, -math.inf
            for k in range(1, len(recipes)):
                pk = session.overlap_estimate(recipes[k], recipes[k], eps, kappa)
                p1k = session.overlap_estimate(recipes[0], recipes[k], eps, kappa)
                swap_tests += 2
                gap = p1 + pk - 2.0 * p1k
                worst = max(worst, gap)
                if gap > delta:
                    gaps[(i, j)] = gap
                    accept = False
                    break
            if accept:
                return FindLastResult(
                    pair=(i, j),
                    swap_tests=swap_tests,
                    pairs_tested=pairs_tested,
                    rejection_gaps=gaps,
                    accepted_gap=worst if len(states) > 1 else None,
                )
    return FindLastResult(
        pair=None, swap_tests=swap_tests, pairs_tested=pairs_tested, rejection_gaps=gaps
    )


# ---------------------------------------------------------------------------
# reports


@dataclass
class DiscoveryReport:
    """Outcome of one discovery run.

    ``order`` lists teeth first-to-last as (input, output) label pairs.
    ``queries`` is what the run added to the session meter, which a
    session shares with its children from ``reduce``.  ``theoretical_queries``
    is an a-priori bound on those billed queries, set from the loop bounds
    of the general algorithm; it is ``None`` for the promise algorithms,
    which bill exactly the shots they are given.
    ``failure`` is ``None`` on success, else a short reason string.
    """

    algorithm: str
    order: CausalOrder | None
    queries: int
    theoretical_queries: int | None
    wall_ms: float
    diagnostics: dict = field(default_factory=dict)
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.order is not None


def _report(algorithm, session, start_queries, t0, order, failure, theoretical, diagnostics):
    """The report of a run that read the meter at ``start_queries`` and the clock at ``t0``."""
    return DiscoveryReport(
        algorithm=algorithm,
        order=order,
        queries=session.query_count - start_queries,
        theoretical_queries=theoretical,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        diagnostics=diagnostics,
        failure=failure,
    )


# ---------------------------------------------------------------------------
# last-tooth elimination: general combs


def discover_general(
    session: OracleSession, delta: float = 1e-6, kappa: float = 0.05
) -> DiscoveryReport:
    """Recover a compatible tooth ordering of a general comb.

    Repeatedly finds a valid last tooth and wires it shut, building the
    order back to front.  Fails with ``"not a quantum comb"`` when some
    stage rejects every remaining pair.

    ``kappa`` is passed to every swap test as its own failure
    probability, so a run can fail with probability up to the number of
    tests it runs times ``kappa``.  ``theoretical_queries`` bounds the
    billed queries by the loop bounds: stage ``m`` runs at most
    ``m^2 (2 d^2 - 1)`` tests of ``2 * runs`` queries each.

    Each stage's margins sit next to ``delta`` in its diagnostics:
    ``accepted_gap``, the accepted pair's largest gap (``None`` if none
    was accepted, or if its input is one-dimensional, so that there are
    no two probe states to compare), and ``min_rejection_gap``, the
    smallest gap that rejected a pair (``None`` if none was rejected).
    """
    t0 = time.perf_counter()
    n = session.n_teeth
    d_max = max((session.dim_of(l) for l in session.input_labels), default=1)
    start_queries = session.query_count
    order: list[tuple[str, str]] = []
    stages = []
    current = session
    failure = None
    for remaining in range(n, 0, -1):
        res = find_last(current, delta, kappa)
        stage = dict(
            teeth_remaining=remaining, pair=res.pair, swap_tests=res.swap_tests,
            pairs_tested=res.pairs_tested, accepted_gap=res.accepted_gap,
            min_rejection_gap=min(res.rejection_gaps.values(), default=None),
        )
        stages.append(stage)
        if res.pair is None:
            failure = NOT_A_COMB
            break
        order.insert(0, res.pair)
        if remaining > 1:
            current = current.reduce(*res.pair)
    runs = swap_test_sample_size(delta / 4.0, kappa)
    theoretical = 2 * runs * (2 * d_max**2 - 1) * sum(m * m for m in range(1, n + 1))
    diagnostics = dict(
        delta=delta, kappa=kappa, swap_runs_per_test=runs,
        swap_tests=sum(s["swap_tests"] for s in stages), stages=stages,
    )
    found = tuple(order) if failure is None else None
    return _report("general", session, start_queries, t0, found, failure, theoretical, diagnostics)


# ---------------------------------------------------------------------------
# promise algorithms: relation counts from independence matrices


def _relation_counts(ind: IndMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per input and per output, how many wires it is related to."""
    related = ~ind.ind
    return related.sum(axis=1), related.sum(axis=0)


# ---------------------------------------------------------------------------
# correlation-count sorting: totally ordered combs


def _has_ties(values: np.ndarray) -> bool:
    return len(set(values.tolist())) != len(values)


def discover_totalorder(
    session: OracleSession, povm: IcPovm, n_shots: int, chi_min: float
) -> DiscoveryReport:
    """Recover both hidden permutations of a fully correlated comb, from
    batches that measure every wire with ``povm``.

    ``chi_min`` is the promised smallest correlation over causally
    related pairs; pairs estimated above ``chi_min / 2`` are declared
    related.  Row/column counts of the relation matrix then sort the
    inputs and outputs into temporal position.  A tie in either count
    profile triggers one retry with a doubled shot budget (sampled mode);
    persisting ties mean the promise does not hold for this process.
    In sampled mode, or under the theoretical policy, the run bills
    ``n_shots`` queries, or ``3 * n_shots`` after a retry.  A ``chi_min``
    that is not a positive finite number, or a ``povm`` that is not a POVM
    on every wire's dimension, raises ``ValueError`` first.
    """
    if not 0 < chi_min < math.inf:
        raise ValueError(f"chi_min must be a positive finite number, got {chi_min}")
    t0 = time.perf_counter()
    start_queries = session.query_count
    threshold = chi_min / 2.0
    ind = independence_matrix(session, povm, n_shots, threshold)
    c_in, c_out = _relation_counts(ind)
    tied = _has_ties(c_in) or _has_ties(c_out)
    retried = tied and session.mode == "sampled"
    if retried:
        ind = independence_matrix(session, povm, 2 * n_shots, threshold)
        c_in, c_out = _relation_counts(ind)
        tied = _has_ties(c_in) or _has_ties(c_out)
    in_rank = np.argsort(-c_in, kind="stable")
    out_rank = np.argsort(c_out, kind="stable")
    order = tuple(
        (ind.input_labels[i], ind.output_labels[j]) for i, j in zip(in_rank, out_rank)
    )
    diagnostics = dict(
        threshold=threshold, n_shots=ind.n_shots, estimates=ind.estimates, chi_min=chi_min,
        input_counts=c_in, output_counts=c_out, retried=retried,
    )
    failure = ASSUMPTION_VIOLATED if tied else None
    return _report("totalorder", session, start_queries, t0, order, failure, None, diagnostics)


# ---------------------------------------------------------------------------
# pair matching: memoryless combs


def discover_memoryless(
    session: OracleSession, povm: IcPovm, n_shots: int, threshold: float
) -> DiscoveryReport:
    """Recover the input-output pairing of a product-of-teeth comb, from
    one batch that measures every wire with ``povm``.

    Each input takes the first output it is visibly correlated with;
    since a product comb correlates each input with at most one output,
    the leftover (constant-tooth) inputs can be paired with the leftover
    outputs in any way, and index order is used.  Those pairs rest on no
    evidence, and ``diagnostics["paired_by_index"]`` lists them: on a
    comb that only looks pairwise uncorrelated, such as
    :func:`~causalcomb.combs.gen_fig3_comb`, they are guesses that the
    checker may reject, though the report is ok.  A wire related to more
    than one partner breaks that promise: the report fails with
    ``NOT_MEMORYLESS`` and still carries the matched order.  In sampled
    mode, or under the theoretical policy, the run bills ``n_shots`` queries.
    A ``threshold`` that is not a positive finite number, or a ``povm``
    that is not a POVM on every wire's dimension, raises ``ValueError``
    first.
    """
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be a positive finite number, got {threshold}")
    t0 = time.perf_counter()
    start_queries = session.query_count
    ind = independence_matrix(session, povm, n_shots, threshold)
    ins, outs = ind.input_labels, ind.output_labels
    pairing: dict[int, int] = {}
    for i in range(len(ins)):
        for j in range(len(outs)):
            if not ind.ind[i, j] and j not in pairing.values():
                pairing[i] = j
                break
    leftovers = [j for j in range(len(outs)) if j not in pairing.values()]
    guessed = [i for i in range(len(ins)) if i not in pairing]
    for i in guessed:
        pairing[i] = leftovers.pop(0)
    order = tuple((ins[i], outs[pairing[i]]) for i in range(len(ins)))
    c_in, c_out = _relation_counts(ind)
    diagnostics = dict(
        threshold=threshold, n_shots=ind.n_shots, estimates=ind.estimates,
        paired_by_index=[(ins[i], outs[pairing[i]]) for i in guessed],
    )
    failure = NOT_MEMORYLESS if max(c_in.max(), c_out.max()) > 1 else None
    return _report("memoryless", session, start_queries, t0, order, failure, None, diagnostics)
