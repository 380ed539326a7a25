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
    leftover outputs in index order, any choice being equally valid.  A
    wire visibly correlated with two partners breaks the promise, and the
    run reports it.

Correlations are estimated by two-sided linear inversion of the pairwise
outcome frequencies (:func:`correlation_from_freqs`); the frame
eigenvalues of the POVMs give non-asymptotic accuracy bounds
(:func:`correlation_error_bound`) used to size shot budgets
(:func:`correlation_sample_size`).

This module sees sessions only through their public statistics API; it
never touches the hidden spec or Choi operator, and a test pins that.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .combs import CausalOrder
from .oracle import OracleSession, PrepRecipe, swap_test_sample_size
from .povm import (
    IcPovm,
    frame_of,
    ic_povm_for_dim,
    povm_by_label,
    reconstruct_pair,
    state_set_of,
)
from .tensors import Op, WireSpace, correlation_norm

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


def correlation_from_freqs(
    freqs: np.ndarray, povm_a: IcPovm, povm_b: IcPovm
) -> float:
    """Correlation estimate from a joint outcome frequency matrix.

    Reconstructs the bipartite state by two-sided linear inversion and
    returns its trace-norm distance from the product of its marginals.
    Exact Born frequencies give the exact correlation.
    """
    hat = reconstruct_pair(povm_a, povm_b, freqs)
    op = Op(WireSpace(("L", "R"), (povm_a.dim, povm_b.dim)), hat)
    return correlation_norm(op, ["L"])


def xi_constant(povm_a: IcPovm, povm_b: IcPovm) -> float:
    """Error-propagation constant from outcome frequencies to correlation.

    A frequency vector within ``xi * eps`` of the Born values (in the
    2-norm sense captured by the frame sandwich) keeps the reconstructed
    correlation within ``eps`` of the truth.
    """
    da, db = povm_a.dim, povm_b.dim
    lam = frame_of(povm_a).lambda_min * frame_of(povm_b).lambda_min
    return math.sqrt(lam) / (math.sqrt(da**2 * db**2 + 4 * db**2 + 4 * da**2) * da * db)


def _outcome_classes(povm_a: IcPovm, povm_b: IcPovm) -> int:
    da, db = povm_a.dim, povm_b.dim
    return da**2 * db**2 + da**2 + db**2


def correlation_error_bound(
    n_shots: int, kappa: float, povm_a: IcPovm, povm_b: IcPovm
) -> float:
    """Accuracy ``eps`` achieved with failure probability ``kappa`` at ``n_shots``."""
    xi = xi_constant(povm_a, povm_b)
    arg = 2.0 * _outcome_classes(povm_a, povm_b) / kappa
    return math.sqrt(math.log(arg) / (2.0 * xi**2 * n_shots))


def correlation_sample_size(
    eps: float, kappa: float, povm_a: IcPovm, povm_b: IcPovm
) -> int:
    """Shots needed for accuracy ``eps`` at failure probability ``kappa``."""
    xi = xi_constant(povm_a, povm_b)
    arg = 2.0 * _outcome_classes(povm_a, povm_b) / kappa
    return math.ceil(math.log(arg) / (2.0 * xi**2 * eps**2))


# ---------------------------------------------------------------------------
# pairwise independence matrix


@dataclass(frozen=True)
class IndMatrix:
    """Pairwise independence verdicts from one shared shot table."""

    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    estimates: np.ndarray  # (n_in, n_out) correlation estimates
    threshold: float
    n_shots: int

    @property
    def ind(self) -> np.ndarray:
        """True where the pair looks independent (estimate <= threshold)."""
        return self.estimates <= self.threshold


def _indicators(shape: tuple[int, ...]) -> np.ndarray:
    """One-hot outcome indicators of a row-major index over axes of ``shape``.

    Row ``r`` holds a 1 in block ``a`` at the column of axis ``a``'s value
    in flat index ``r``, so the blocks are ``len(shape)`` side by side.
    """
    cols = np.indices(shape).reshape(len(shape), -1).T + np.cumsum((0,) + shape[:-1])
    ind = np.zeros((len(cols), sum(shape)))
    ind[np.arange(len(cols))[:, None], cols] = 1.0
    return ind


def _pair_marginals(table: np.ndarray, n_in: int) -> list[list[np.ndarray]]:
    """Every (input, output) pair marginal of a joint outcome table.

    ``table`` has one axis per input, then one per output; entry ``[i][j]``
    is the table summed over every axis but input ``i``'s and output
    ``j``'s.  All of them come from one product ``X^T (T Y)``, with ``T``
    the table as an (inputs x outputs) matrix and ``X``, ``Y`` the one-hot
    indicators of its row and column indices.  It runs in float64, so
    integer counts below ``2^53`` come out exact.
    """
    x, y = _indicators(table.shape[:n_in]), _indicators(table.shape[n_in:])
    m = x.T @ (table.reshape(len(x), len(y)).astype(float, copy=False) @ y)
    rows = np.cumsum(table.shape[:n_in])[:-1]
    cols = np.cumsum(table.shape[n_in:])[:-1]
    return [np.split(block, cols, axis=1) for block in np.split(m, rows, axis=0)]


def independence_matrix(
    session: OracleSession, povms, n_shots: int, threshold: float
) -> IndMatrix:
    """Estimate every (input, output) correlation from one shot table.

    In sampled mode this draws ``n_shots`` joint prepare-and-measure
    shots once and reuses them for all pairs.  In exact mode the Born
    table stands in for the empirical frequencies (the infinite-shot
    limit); the nominal budget is still billed under the theoretical
    query policy.
    """
    ins, outs = session.input_labels, session.output_labels
    pmap = povm_by_label(povms, session.wires)
    if session.mode == "sampled":
        table = session.sample_batch(n_shots, povms)
    else:
        table = session.outcome_distribution(povms)
        session.note_virtual_queries(n_shots, op="independence")
    # sorted wires: the inputs' axes precede the outputs'
    marginals = _pair_marginals(table, len(ins))
    est = np.zeros((len(ins), len(outs)))
    for i, a in enumerate(ins):
        for j, b in enumerate(outs):
            pair = marginals[i][j]
            est[i, j] = correlation_from_freqs(pair / pair.sum(), pmap[a], pmap[b])
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


def _probe_states(dim: int) -> tuple[np.ndarray, ...]:
    # deterministic IC probe set; seeded construction for exotic dimensions
    povm = ic_povm_for_dim(dim, np.random.default_rng(0))
    return state_set_of(povm).elements


def find_last(
    session: OracleSession,
    delta: float,
    kappa: float,
    probe_states: Mapping[str, Sequence[np.ndarray]] | None = None,
) -> FindLastResult:
    """Search for a pair that can be the process's final tooth.

    For each candidate (input i, output j), row-major over sorted wires,
    probe input i with an informationally complete state set while
    discarding output j and estimate the squared distances
    ``||rho_1 - rho_k||_2^2`` via three overlap tests each; the pair is
    rejected as soon as one estimate exceeds ``delta`` and accepted if
    none does.  Returns the first accepted pair, or ``None`` when every
    pair is rejected — in which case no ordering whatsoever is
    compatible with the process.

    ``kappa`` is the failure probability of each swap test, not of the
    search: with ``m`` teeth and probe sets of ``d^2`` states the loop
    runs at most ``m^2 (2 d^2 - 1)`` tests, and a union bound over them
    is the search's failure probability.
    """
    eps = delta / 4.0
    swap_tests = 0
    pairs_tested = 0
    gaps: dict = {}
    for i in session.input_labels:
        states = (
            probe_states[i] if probe_states is not None else _probe_states(session.dim_of(i))
        )
        for j in session.output_labels:
            pairs_tested += 1
            recipes = [PrepRecipe(i, s, j) for s in states]
            p1 = session.overlap_estimate(recipes[0], recipes[0], eps, kappa)
            swap_tests += 1
            accept = True
            for k in range(1, len(recipes)):
                pk = session.overlap_estimate(recipes[k], recipes[k], eps, kappa)
                p1k = session.overlap_estimate(recipes[0], recipes[k], eps, kappa)
                swap_tests += 2
                gap = p1 + pk - 2.0 * p1k
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
    ``queries`` is the session meter after the run; ``theoretical_queries``
    is the a-priori worst-case bookkeeping for the same parameters.
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
        stages.append(
            {
                "teeth_remaining": remaining,
                "pair": res.pair,
                "swap_tests": res.swap_tests,
                "pairs_tested": res.pairs_tested,
            }
        )
        if res.pair is None:
            failure = NOT_A_COMB
            break
        order.insert(0, res.pair)
        if remaining > 1:
            current = current.reduce(*res.pair)
    runs = swap_test_sample_size(delta / 4.0, kappa)
    theoretical = 2 * runs * (2 * d_max**2 - 1) * sum(m * m for m in range(1, n + 1))
    return DiscoveryReport(
        algorithm="general",
        order=tuple(order) if failure is None else None,
        queries=session.query_count - start_queries,
        theoretical_queries=theoretical,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        diagnostics={
            "delta": delta,
            "kappa": kappa,
            "swap_runs_per_test": runs,
            "swap_tests": sum(s["swap_tests"] for s in stages),
            "stages": stages,
        },
        failure=failure,
    )


# ---------------------------------------------------------------------------
# promise algorithms: one shared shot table, then an ordering rule


def _promise_discovery(
    algorithm: str,
    session: OracleSession,
    povms,
    threshold: float,
    eps: float,
    kappa_target: float,
    rule: Callable,
) -> DiscoveryReport:
    """Time, bill and report one promise algorithm's ordering ``rule``.

    ``rule(measure)`` draws independence matrices with ``measure(n_shots)``
    and returns the last one, the order, the failure (``None`` on success)
    and its own diagnostics.  ``eps`` is the per-pair theoretical accuracy.
    """
    t0 = time.perf_counter()
    start_queries = session.query_count
    ind, order, failure, diagnostics = rule(
        lambda n_shots: independence_matrix(session, povms, n_shots, threshold)
    )
    pmap = povm_by_label(povms, session.wires)
    a0, b0 = session.input_labels[0], session.output_labels[0]
    theoretical = correlation_sample_size(
        eps, kappa_target / session.n_teeth**2, pmap[a0], pmap[b0]
    )
    return DiscoveryReport(
        algorithm=algorithm,
        order=order,
        queries=session.query_count - start_queries,
        theoretical_queries=theoretical,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        diagnostics={
            "threshold": threshold,
            "n_shots": ind.n_shots,
            "estimates": np.asarray(ind.estimates),
            **diagnostics,
        },
        failure=failure,
    )


def _relation_counts(ind: IndMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per input and per output, how many wires it is related to."""
    related = ~ind.ind
    return related.sum(axis=1), related.sum(axis=0)


# ---------------------------------------------------------------------------
# correlation-count sorting: totally ordered combs


def _has_ties(values: np.ndarray) -> bool:
    return len(set(values.tolist())) != len(values)


def discover_totalorder(
    session: OracleSession,
    povms,
    n_shots: int,
    chi_min: float,
    kappa_target: float = 0.05,
) -> DiscoveryReport:
    """Recover both hidden permutations of a fully correlated comb.

    ``chi_min`` is the promised smallest correlation over causally
    related pairs; pairs estimated above ``chi_min / 2`` are declared
    related.  Row/column counts of the relation matrix then sort the
    inputs and outputs into temporal position.  A tie in either count
    profile triggers one retry with a doubled shot budget (sampled mode);
    persisting ties mean the promise does not hold for this process.
    """

    def rank(measure):
        ind = measure(n_shots)
        c_in, c_out = _relation_counts(ind)
        retried = session.mode == "sampled" and (_has_ties(c_in) or _has_ties(c_out))
        if retried:
            ind = measure(2 * n_shots)
            c_in, c_out = _relation_counts(ind)
        failure = ASSUMPTION_VIOLATED if (_has_ties(c_in) or _has_ties(c_out)) else None
        in_rank = np.argsort(-c_in, kind="stable")
        out_rank = np.argsort(c_out, kind="stable")
        order = tuple(
            (ind.input_labels[i], ind.output_labels[j]) for i, j in zip(in_rank, out_rank)
        )
        return ind, order, failure, {
            "chi_min": chi_min,
            "input_counts": c_in,
            "output_counts": c_out,
            "retried": retried,
        }

    return _promise_discovery(
        "totalorder", session, povms, chi_min / 2.0, chi_min / 3.0, kappa_target, rank
    )


# ---------------------------------------------------------------------------
# pair matching: memoryless combs


def discover_memoryless(
    session: OracleSession,
    povms,
    n_shots: int,
    threshold: float,
    kappa_target: float = 0.05,
) -> DiscoveryReport:
    """Recover the input-output pairing of a product-of-teeth comb.

    Each input takes the first output it is visibly correlated with;
    since a product comb correlates each input with at most one output,
    the leftover (constant-tooth) inputs can be paired with the leftover
    outputs in any way, and index order is used.  A wire related to more
    than one partner breaks that promise: the report fails with
    ``NOT_MEMORYLESS`` and still carries the matched order.
    """

    def match(measure):
        ind = measure(n_shots)
        ins, outs = ind.input_labels, ind.output_labels
        pairing: dict[int, int] = {}
        for i in range(len(ins)):
            for j in range(len(outs)):
                if not ind.ind[i, j] and j not in pairing.values():
                    pairing[i] = j
                    break
        leftovers = [j for j in range(len(outs)) if j not in pairing.values()]
        for i in range(len(ins)):
            if i not in pairing:
                pairing[i] = leftovers.pop(0)
        order = tuple((ins[i], outs[pairing[i]]) for i in range(len(ins)))
        c_in, c_out = _relation_counts(ind)
        failure = NOT_MEMORYLESS if max(c_in.max(), c_out.max()) > 1 else None
        return ind, order, failure, {}

    return _promise_discovery(
        "memoryless", session, povms, threshold, threshold, kappa_target, match
    )
