"""The three benchmark workloads and the correctness gate on their outputs.

Each workload is a fixed list of tasks (one *pass*) made from the seed, and
a warm-up list with one task per shape on combs of its own.  Every task is
one closed-loop operation: the next starts only after it returns.

``general-exact``
    ``OracleSession`` plus exact-mode ``discover_general`` (theoretical
    query policy, so billed queries are the paper's count) on Haar
    ``gen_unitary_comb`` combs, d = 2, cycling n in {3, 4, 5} x d_M in
    {1, 2, 4}.  Nearly all the time is wire contraction for overlap tests;
    no POVM table or sampling is touched.  The search cost of an instance
    is set by where the last tooth of each stage sits in the row-major
    (input, output) pair order.  Every instance hides the one order whose
    last tooth sits in the middle cell at every stage, the average search
    length; its unitaries and memory state are Haar random per seed.  With
    random hidden orders, op costs spread so thinly that a run's p50 and
    p90 fall between a few ops far apart and move by 15-30 % between runs.
``promise-sampled``
    Sampled-mode ``discover_totalorder`` (shot budget of acceptance
    criterion 7) alternating with ``discover_memoryless`` (1e5 shots,
    threshold 0.1), n in {3, 4, 5}.  Time goes to Born tables, the
    multinomial draw and marginal sums; it makes no overlap tests.
``verify-orders``
    ``check_comb_condition`` on Choi operators built during set-up: every
    order at n = 4, and at n = 5 the true order plus a seeded sample, so
    n = 5 checks are a fifth of the pass and p90 sits inside that group.
    No oracle call happens in its loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import causalcomb.combs as combs
from causalcomb import (
    CombSpec,
    OracleConfig,
    OracleSession,
    build_choi,
    correlation_sample_size,
    discover_general,
    discover_memoryless,
    discover_totalorder,
    enumerate_orders,
    gen_memoryless_comb,
    gen_totalorder_comb,
    gen_unitary_comb,
    sic_qubit,
)

#: Tolerance of the dense checker in the correctness gate.
GATE_TOL = 1e-9


@dataclass
class Outcome:
    """What one task returned, reduced to what the metrics and gate read."""

    order: tuple | None = None
    failure: str | None = None
    queries: int = 0
    expected_queries: int = 0  # what the algorithm's own test or shot count bills
    swap_tests: int = 0
    pairs_tested: int = 0
    stages_accepted: int = 0
    retried: bool = False
    verdict: bool | None = None  # verify-orders: the checker's ok flag


@dataclass(frozen=True)
class Task:
    label: str
    spec: CombSpec  # the comb behind the task, for the gate only
    call: Callable[[], Outcome]
    valid: bool | None = None  # verify-orders: whether the checked order is the true one

    def run(self) -> Outcome:
        """One operation; an exception becomes a reported failure, not a crash."""
        try:
            return self.call()
        except Exception as exc:  # the loop must go on and report every failing op
            return Outcome(failure=f"raised {type(exc).__name__}: {exc}")


@dataclass
class Workload:
    tasks: list[Task]
    warmup: list[Task]


# ---------------------------------------------------------------------------
# general-exact


def _general_task(spec: CombSpec, label: str) -> Task:
    def call() -> Outcome:
        session = OracleSession(spec, OracleConfig(query_policy="theoretical"))
        report = discover_general(session)
        diag = report.diagnostics
        return Outcome(
            order=report.order,
            failure=report.failure,
            queries=report.queries,
            expected_queries=2 * diag["swap_runs_per_test"] * diag["swap_tests"],
            swap_tests=diag["swap_tests"],
            pairs_tested=sum(s["pairs_tested"] for s in diag["stages"]),
            stages_accepted=sum(s["pair"] is not None for s in diag["stages"]),
        )

    return Task(label, spec, call)


def _middle_path_comb(n: int, memory_dim: int, rng) -> CombSpec:
    ins, outs = list(range(1, n + 1)), list(range(1, n + 1))
    input_perm, output_perm = [], []
    for m in range(n, 0, -1):
        i, j = divmod(m * m // 2, m)
        input_perm.insert(0, ins.pop(i))
        output_perm.insert(0, outs.pop(j))
    return gen_unitary_comb(n, 2, memory_dim, rng, input_perm, output_perm)


def _general(seed: int, tiny: bool) -> Workload:
    ns, dms, per_shape = ((2, 3), (1, 2), 2) if tiny else ((3, 4, 5), (1, 2, 4), 12)
    columns, warmup = [], []
    for n in ns:
        for dm in dms:
            rng = np.random.default_rng([seed, 1, n, dm])
            columns.append(
                [
                    _general_task(_middle_path_comb(n, dm, rng), f"general n={n} d_M={dm} #{k}")
                    for k in range(per_shape)
                ]
            )
            spec = _middle_path_comb(n, dm, np.random.default_rng([seed, 101, n, dm]))
            warmup.append(_general_task(spec, f"warm-up general n={n} d_M={dm}"))
    tasks = [col[k] for k in range(per_shape) for col in columns]
    return Workload(tasks, warmup)


# ---------------------------------------------------------------------------
# promise-sampled


def _sampled_session(spec: CombSpec, seed: int) -> OracleSession:
    return OracleSession(spec, OracleConfig(mode="sampled", seed=seed))


def _totalorder_task(spec: CombSpec, povm, seed: int, label: str) -> Task:
    chi = spec.metadata["achieved_chi_min"]
    shots = correlation_sample_size(chi / 3.0, 0.05 / spec.n**2, povm, povm)

    def call() -> Outcome:
        report = discover_totalorder(_sampled_session(spec, seed), povm, shots, chi)
        retried = bool(report.diagnostics["retried"])
        return Outcome(
            order=report.order,
            failure=report.failure,
            queries=report.queries,
            expected_queries=shots * (3 if retried else 1),
            retried=retried,
        )

    return Task(label, spec, call)


def _memoryless_task(spec: CombSpec, povm, seed: int, label: str) -> Task:
    shots = 100_000

    def call() -> Outcome:
        report = discover_memoryless(_sampled_session(spec, seed), povm, shots, 0.1)
        return Outcome(
            order=report.order,
            failure=report.failure,
            queries=report.queries,
            expected_queries=shots,
        )

    return Task(label, spec, call)


def _promise(seed: int, tiny: bool) -> Workload:
    # per_shape distinct combs per (algorithm, n), reused round-robin over
    # the cycles with a fresh sampling seed each time, because totalorder
    # rejection sampling at n = 5 costs up to about a second per comb
    ns, per_shape, cycles = ((2, 3), 1, 3) if tiny else ((3, 4, 5), 2, 17)
    sic = sic_qubit()
    columns, warmup = [], []
    for n in ns:
        rng = np.random.default_rng([seed, 2, n])
        specs = {
            "totalorder": [gen_totalorder_comb(n, 2, 2, rng) for _ in range(per_shape)],
            "memoryless": [gen_memoryless_comb(n, 2, rng) for _ in range(per_shape)],
        }
        warm_rng = np.random.default_rng([seed, 102, n])
        warm = {
            "totalorder": gen_totalorder_comb(n, 2, 2, warm_rng),
            "memoryless": gen_memoryless_comb(n, 2, warm_rng),
        }
        makers = (("totalorder", _totalorder_task), ("memoryless", _memoryless_task))
        for a, (alg, make) in enumerate(makers):
            seeds = np.random.SeedSequence([seed, 2, n, a]).generate_state(cycles)
            columns.append(
                [
                    make(
                        specs[alg][c % per_shape],
                        sic,
                        int(seeds[c]),
                        f"{alg} n={n} #{c % per_shape} cycle {c}",
                    )
                    for c in range(cycles)
                ]
            )
            warmup.append(make(warm[alg], sic, seed, f"warm-up {alg} n={n}"))
    tasks = [col[c] for c in range(cycles) for col in columns]
    return Workload(tasks, warmup)


# ---------------------------------------------------------------------------
# verify-orders


def _verify_task(spec: CombSpec, choi, order, label: str) -> Task:
    def call() -> Outcome:
        # looked up at call time so that a traced run sees the wrapped name
        check = combs.check_comb_condition(choi, order, tol=GATE_TOL)
        return Outcome(order=order, verdict=check.ok)

    # a Haar comb with memory signals from every earlier input to every later
    # output, so its true order is the only one the checker may accept
    return Task(label, spec, call, valid=order == spec.true_order)


def _verify(seed: int, tiny: bool) -> Workload:
    n_all, n_sampled = (2, 3) if tiny else (4, 5)
    rng = np.random.default_rng([seed, 3])
    spec_all = gen_unitary_comb(n_all, 2, 2, rng)
    spec_sampled = gen_unitary_comb(n_sampled, 2, 2, rng)
    choi_all, choi_sampled = build_choi(spec_all), build_choi(spec_sampled)

    full = enumerate_orders(n_all)
    full = [full[i] for i in rng.permutation(len(full))]
    others = [o for o in enumerate_orders(n_sampled) if o != spec_sampled.true_order]
    picks = rng.choice(len(others), size=len(full) // 4 - 1, replace=False)
    sampled = [spec_sampled.true_order] + [others[i] for i in picks]
    sampled = [sampled[i] for i in rng.permutation(len(sampled))]

    tasks = []
    for g, order in enumerate(sampled):
        for i in range(4 * g, 4 * g + 4):
            tasks.append(_verify_task(spec_all, choi_all, full[i], f"check n={n_all} #{i}"))
        tasks.append(_verify_task(spec_sampled, choi_sampled, order, f"check n={n_sampled} #{g}"))

    warmup = []
    for n in (n_all, n_sampled):
        spec = gen_unitary_comb(n, 2, 2, np.random.default_rng([seed, 103, n]))
        warmup.append(_verify_task(spec, build_choi(spec), spec.true_order, f"warm-up check n={n}"))
    return Workload(tasks, warmup)


WORKLOADS = {"general-exact": _general, "promise-sampled": _promise, "verify-orders": _verify}


def build(name: str, seed: int, tiny: bool = False, draw: int = 0) -> Workload:
    """Generate a workload's combs and tasks from ``seed``.

    ``draw`` > 0 gives an independent set of combs for the same workload,
    used to time set-up again without reusing one seed's rejection-sampling
    luck.
    """
    if draw:
        seed = int(np.random.SeedSequence([seed, draw]).generate_state(1)[0])
    return WORKLOADS[name](seed, tiny)


# ---------------------------------------------------------------------------
# correctness gate


def gate(tasks: list[Task], outcomes: list[Outcome]) -> list[str]:
    """One message per outcome the gate rejects; outcome i came from task i mod len(tasks)."""
    checker = _Gate()
    failures = []
    for i, out in enumerate(outcomes):
        task = tasks[i % len(tasks)]
        why = checker.reason(task, out)
        if why is not None:
            failures.append(f"op {i} ({task.label}): {why}")
    return failures


class _Gate:
    """Dense checks are cached per comb and order: a pass repeats its inputs."""

    def __init__(self) -> None:
        self._chois: dict[int, tuple] = {}  # id -> (spec, choi); holding spec pins the id
        self._checks: dict[tuple, object] = {}

    def _dense_check(self, spec: CombSpec, order):
        key = (id(spec), order)
        if key not in self._checks:
            if id(spec) not in self._chois:
                self._chois[id(spec)] = (spec, build_choi(spec))
            choi = self._chois[id(spec)][1]
            self._checks[key] = combs.check_comb_condition(choi, order, tol=GATE_TOL)
        return self._checks[key]

    def reason(self, task: Task, out: Outcome) -> str | None:
        """Why ``out`` is wrong, or ``None`` when it passes."""
        if out.failure is not None:
            return f"reported failure: {out.failure}"
        if task.valid is not None:
            if out.verdict != task.valid:
                return f"checker said ok={out.verdict} on {'the true' if task.valid else 'a wrong'} order"
            return None
        if out.order is None:
            return "no order emitted"
        if out.queries != out.expected_queries:
            return f"billed {out.queries} queries, its own tests imply {out.expected_queries}"
        check = self._dense_check(task.spec, out.order)
        if not check.ok:
            return f"dense checker rejects order (worst deviation {check.worst_deviation:.3e})"
        return None
