"""Numerical consistency battery for the statistical machinery.

Each check exercises one quantitative guarantee the discovery algorithms
rely on — estimator calibration, frame inversion, norm inequalities,
rank bookkeeping, sampling fidelity — on seeded random instances, and
reports a pass/fail verdict with its measured margin.  A check runs the
function discovery runs, not a stand-in for it: the two-sided inversion
``reconstruct_pair`` of ``pair_probs`` tables, the product frame whose
smallest eigenvalue ``xi_constant`` puts into every shot budget, and the
reduction ``Factor.shut`` that ``OracleSession.reduce`` runs.
The CLI ``lemmas`` subcommand and the acceptance suite both run
:func:`lemma_suite`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combs import CombSpec, build_choi, gen_unitary_comb, trace_out_tooth, verified_factor
from .discovery import correlation_error_bound, correlation_from_freqs
from .oracle import OracleConfig, OracleSession, swap_test_estimate
from .povm import frame_of, pair_probs, reconstruct_pair, sic_qubit
from .tensors import (
    haar_unitary,
    max_entangled_ket,
    numerical_rank,
    random_density,
    random_pure_state,
    trace_norm,
)

__all__ = ["CheckResult", "lemma_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float  # how much room was left before failing (positive = good)
    details: str


def check_overlap_calibration(
    seed: int = 0, trials: int = 1000, eps: float = 0.1, kappa: float = 0.05
) -> CheckResult:
    """Swap-circuit estimates miss by more than eps at most a kappa fraction."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        a = random_pure_state(2, rng)
        b = random_pure_state(2, rng)
        overlap = abs(np.vdot(a, b)) ** 2
        est = swap_test_estimate(overlap, eps, kappa, rng)
        failures += abs(est - overlap) > eps
    rate = failures / trials
    limit = kappa + 2 * np.sqrt(kappa * (1 - kappa) / trials)
    return CheckResult(
        name=f"overlap-calibration(eps={eps},kappa={kappa})",
        passed=rate <= limit,
        margin=limit - rate,
        details=f"failure rate {rate:.4f}, allowed {limit:.4f} over {trials} trials",
    )


def check_correlation_confidence(
    seed: int = 0, trials: int = 200, n_shots: int = 100_000, kappa: float = 0.05
) -> CheckResult:
    """Sampled correlation estimates stay within the frame-derived error bound."""
    rng = np.random.default_rng(seed)
    sic = sic_qubit()
    eps = correlation_error_bound(n_shots, kappa, sic, sic)
    phi = max_entangled_ket(2)
    targets = [
        (np.outer(phi, phi.conj()), 1.5),  # maximally correlated
        (np.kron(np.eye(2) / 2, np.diag([0.7, 0.3])), 0.0),  # product
    ]
    worst_rate = 0.0
    lines = []
    for rho, chi_true in targets:
        p = pair_probs(sic, sic, rho)
        # one draw per trial, in turn, then every estimate in one call
        counts = np.stack([rng.multinomial(n_shots, p.reshape(-1)) for _ in range(trials)])
        est = correlation_from_freqs(counts.reshape((trials,) + p.shape) / n_shots, sic, sic)
        rate = np.count_nonzero(np.abs(est - chi_true) > eps) / trials
        worst_rate = max(worst_rate, rate)
        lines.append(f"chi={chi_true}: rate {rate:.3f}")
    return CheckResult(
        name=f"correlation-confidence(N={n_shots})",
        passed=worst_rate <= kappa,
        margin=kappa - worst_rate,
        details=f"eps(kappa={kappa})={eps:.3f}; " + "; ".join(lines),
    )


def check_reconstruction(seed: int = 0, trials: int = 100) -> CheckResult:
    """Two-sided inversion of exact SIC x SIC tables gives back random two-qubit states."""
    rng = np.random.default_rng(seed)
    sic = sic_qubit()
    rho = np.stack([random_density(4, rng=rng) for _ in range(trials)])
    worst = float(np.abs(reconstruct_pair(sic, sic, pair_probs(sic, sic, rho)) - rho).max())
    return CheckResult(
        name="frame-reconstruction",
        passed=worst < 1e-10,
        margin=1e-10 - worst,
        details=f"worst elementwise error {worst:.2e} over {trials} states",
    )


def check_frame_sandwich(seed: int = 0, trials: int = 1000) -> CheckResult:
    """SIC x SIC table distances bracket the Hilbert-Schmidt distance of two-qubit states.

    The product frame's eigenvalues run from ``lambda_min^2`` to
    ``lambda_max^2`` of the qubit SIC's frame, so
    ``lambda_min^2 ||rho - sigma||_2^2 <= ||p - q||^2 <= lambda_max^2 ||rho - sigma||_2^2``;
    the lower side is the eigenvalue :func:`~causalcomb.discovery.xi_constant` reads.
    """
    rng = np.random.default_rng(seed)
    sic = sic_qubit()
    frame = frame_of(sic)
    slack = 1e-12
    pairs = np.stack([[random_density(4, rng=rng) for _ in range(2)] for _ in range(trials)])
    probs = pair_probs(sic, sic, pairs)
    gap = ((probs[:, 0] - probs[:, 1]) ** 2).sum(axis=(1, 2))
    hs = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=(1, 2)) ** 2
    lower = gap - frame.lambda_min**2 * hs
    upper = frame.lambda_max**2 * hs - gap
    worst = float(min(lower.min(), upper.min())) + slack
    return CheckResult(
        name="frame-sandwich",
        passed=worst >= 0,
        margin=worst,
        details=f"smallest slack {worst:.2e} over {trials} pairs",
    )


def check_norm_chain(seed: int = 0, trials: int = 1000) -> CheckResult:
    """Trace-norm / rank / Hilbert-Schmidt chain on low-rank state pairs."""
    rng = np.random.default_rng(seed)
    slack = 1e-9
    worst = np.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 6))
        ra = int(rng.integers(1, dim + 1))
        rb = int(rng.integers(1, dim + 1))
        a = random_density(dim, ra, rng)
        b = random_density(dim, rb, rng)
        diff = a - b
        l1sq = trace_norm(diff) ** 2
        hs2 = float(np.linalg.norm(diff) ** 2)
        mid = numerical_rank(diff) * hs2
        hi = (ra + rb) * hs2
        worst = min(worst, mid - l1sq + slack, hi - mid + slack)
    return CheckResult(
        name="trace-norm-rank-chain",
        passed=worst >= 0,
        margin=worst,
        details=f"smallest slack {worst:.2e} over {trials} pairs",
    )


def check_constant_channel_rank(seed: int = 0) -> CheckResult:
    """Choi rank of a constant channel is input dim times output-state rank."""
    rng = np.random.default_rng(seed)
    ok = True
    lines = []
    for d, r in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        sigma = random_density(d, r, rng)
        got = numerical_rank(np.kron(np.eye(d) / d, sigma))
        ok &= got == d * r
        lines.append(f"d={d},rank={r}: choi rank {got} (want {d * r})")
    return CheckResult(
        name="constant-channel-rank",
        passed=ok,
        margin=1.0 if ok else -1.0,
        details="; ".join(lines),
    )


def check_reduction_rank(seed: int = 0, combs: int = 20) -> CheckResult:
    """Choi rank stays at most the memory dimension through valid reductions.

    Each comb's true order is peeled from its last tooth with
    :meth:`~causalcomb.combs.Factor.shut`, as ``OracleSession.reduce``
    peels it, and the rank read as the reduced factor's column count; its
    Gram must match the dense :func:`trace_out_tooth` chain to 1e-12.
    """
    rng = np.random.default_rng(seed)
    worst_excess, worst_gram = -np.inf, 0.0
    for _ in range(combs):
        n = int(rng.integers(2, 5))
        dm = int(rng.choice([1, 2, 4]))
        spec = gen_unitary_comb(n, 2, dm, rng)
        factor, choi = verified_factor(spec)[0], build_choi(spec)
        order = list(spec.true_order)
        while order:
            worst_excess = max(worst_excess, factor.terms - dm)
            worst_gram = max(worst_gram, float(np.abs(factor.dense() - choi.matrix).max()))
            a, b = order.pop()  # peel the temporally last tooth
            if order:
                factor, choi = factor.shut(a, b), trace_out_tooth(choi, a, b)
    return CheckResult(
        name="reduction-rank-bound",
        passed=worst_excess <= 0 and worst_gram <= 1e-12,
        margin=float(min(-worst_excess, 1e-12 - worst_gram)),
        details=f"worst rank excess over memory dim: {worst_excess}; "
        f"worst Gram error {worst_gram:.2e}",
    )


def check_channel_statistics(seed: int = 0, shots: int = 1_000_000) -> CheckResult:
    """Prepare-measure sampling matches the Born distribution of the Choi."""
    rng = np.random.default_rng(seed)
    sic = sic_qubit()
    u = haar_unitary(2, rng)
    spec = CombSpec(1, 2, 1, np.ones(1), (u,), (1,), (1,))
    session = OracleSession(spec, OracleConfig(mode="sampled", seed=seed + 1))
    counts = session.sample_batch(shots, sic)
    # independent ground truth: direct Born table of the explicitly built Choi
    truth = pair_probs(sic, sic, build_choi(spec).matrix)
    tv = 0.5 * np.abs(counts / shots - truth).sum()
    return CheckResult(
        name=f"channel-statistics(shots={shots})",
        passed=tv < 0.01,
        margin=0.01 - tv,
        details=f"total variation {tv:.5f}",
    )


def lemma_suite(seed: int = 0) -> list[CheckResult]:
    """Run the whole battery with derived per-check seeds."""
    return [
        check_overlap_calibration(seed),
        check_overlap_calibration(seed + 1, eps=0.05, kappa=0.01),
        check_correlation_confidence(seed + 2),
        check_reconstruction(seed + 3),
        check_frame_sandwich(seed + 4),
        check_norm_chain(seed + 5),
        check_constant_channel_rank(seed + 6),
        check_reduction_rank(seed + 7),
        check_channel_statistics(seed + 8),
    ]
