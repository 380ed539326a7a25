"""Batch experiment driver: generate combs, run a discovery algorithm, score.

A run is described by three small dictionaries (generator, algorithm,
oracle) plus trial bookkeeping, so configurations serialize naturally to
JSON for the command line.  Every trial gets its own derived seed; the
emitted order of each successful trial is verified against the ground
truth by the exact comb-condition checker, never by comparison with the
hidden permutations — algorithms are allowed to find any valid order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

import numpy as np

from .combs import (
    CombSpec,
    build_choi,
    check_comb_condition,
    gen_fig3_comb,
    gen_memoryless_comb,
    gen_signaling_comb,
    gen_totalorder_comb,
    gen_unitary_comb,
)
from .discovery import (
    DiscoveryReport,
    discover_general,
    discover_memoryless,
    discover_totalorder,
)
from .oracle import OracleConfig, OracleSession
from .povm import povm_preset

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialResult",
    "RunSummary",
    "generate_comb",
    "dispatch",
    "run_trial",
    "run_experiment",
]

GENERATOR_KINDS = ("unitary", "memoryless", "totalorder", "signaling", "fig3")
ALGORITHM_NAMES = ("general", "totalorder", "memoryless")
PROMISE_ALGORITHMS = ("totalorder", "memoryless")


class ConfigError(ValueError):
    """Raised for malformed experiment configurations."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _require_shots(name: str, mode: str, policy: str, n_shots) -> None:
    """A promise algorithm draws its shot budget in sampled mode and bills it
    under the theoretical policy; either way the budget must be named."""
    if name in PROMISE_ALGORITHMS and (mode == "sampled" or policy == "theoretical"):
        _require(
            int(n_shots or 0) > 0,
            f"algorithm {name!r} needs n_shots in sampled mode or under the "
            "theoretical query policy",
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one batch experiment.

    generator: {"kind", "n", "d", "d_M", "constant_tooth", "corr_floor", "dressed"}
    algorithm: {"name", "delta", "kappa", "povm", "n_shots", "chi_min",
                "threshold", "kappa_target"} (subset relevant to the name)
    oracle:    {"mode", "query_policy"}
    """

    generator: Mapping[str, Any]
    algorithm: Mapping[str, Any]
    oracle: Mapping[str, Any] = field(default_factory=dict)
    trials: int = 20
    seed: int = 0
    success_tol: float = 1e-9
    min_success_rate: float = 1.0
    workers: int = 0

    def __post_init__(self):
        _require(isinstance(self.generator, Mapping), "generator must be a mapping")
        _require(isinstance(self.algorithm, Mapping), "algorithm must be a mapping")
        _require(isinstance(self.oracle, Mapping), "oracle must be a mapping")
        kind = self.generator.get("kind")
        _require(
            kind in GENERATOR_KINDS,
            f"generator.kind must be one of {GENERATOR_KINDS}, got {kind!r}",
        )
        name = self.algorithm.get("name")
        _require(
            name in ALGORITHM_NAMES,
            f"algorithm.name must be one of {ALGORITHM_NAMES}, got {name!r}",
        )
        mode = self.oracle.get("mode", "exact")
        policy = self.oracle.get("query_policy", "actual")
        try:
            OracleConfig(mode=mode, seed=self.seed, query_policy=policy)
        except ValueError as exc:
            raise ConfigError(f"bad oracle section: {exc}") from None
        _require(self.trials >= 1, "trials must be >= 1")
        _require(self.success_tol > 0, "success_tol must be positive")
        _require(
            0.0 <= self.min_success_rate <= 1.0, "min_success_rate must be in [0, 1]"
        )
        _require(self.workers >= 0, "workers must be >= 0")
        _require_shots(name, mode, policy, self.algorithm.get("n_shots"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        extra = set(data) - {f.name for f in fields(cls)}
        _require(not extra, f"unknown config keys: {sorted(extra)}")
        _require("generator" in data, "config needs a 'generator' section")
        _require("algorithm" in data, "config needs an 'algorithm' section")
        return cls(**dict(data))


@dataclass(frozen=True)
class TrialResult:
    trial: int
    ok: bool
    order: tuple[tuple[str, str], ...] | None
    queries: int
    wall_ms: float
    worst_deviation: float | None  # checker result for the emitted order
    failure: str | None


@dataclass(frozen=True)
class RunSummary:
    trials: int
    successes: int
    ok: bool  # success rate reached min_success_rate
    success_rate: float
    mean_queries: float
    max_queries: int
    wall_ms: float
    results: tuple[TrialResult, ...]

    def line(self) -> str:
        return (
            f"{self.successes}/{self.trials} trials succeeded "
            f"(rate {self.success_rate:.3f}), "
            f"mean queries {self.mean_queries:.1f}, wall {self.wall_ms:.0f} ms"
        )


def generate_comb(gen: Mapping[str, Any], rng: np.random.Generator) -> CombSpec:
    """Instantiate the comb family described by a generator mapping."""
    kind = gen["kind"]
    n = int(gen.get("n", 2))
    d = int(gen.get("d", 2))
    if kind == "unitary":
        return gen_unitary_comb(n, d, int(gen.get("d_M", 2)), rng)
    if kind == "memoryless":
        return gen_memoryless_comb(n, d, rng, bool(gen.get("constant_tooth", False)))
    if kind == "totalorder":
        return gen_totalorder_comb(
            n, d, int(gen.get("d_M", 2)), rng, float(gen.get("corr_floor", 0.05))
        )
    if kind == "signaling":
        return gen_signaling_comb(rng if gen.get("dressed", True) else None)
    if kind == "fig3":
        return gen_fig3_comb()
    raise ConfigError(f"unknown generator kind {kind!r}")


def dispatch(
    session: OracleSession, spec: CombSpec, alg: Mapping[str, Any]
) -> DiscoveryReport:
    """Run the algorithm that ``alg`` names; missing keys take the defaults below.

    ``n_shots`` has no default: a promise algorithm without one runs only
    in exact mode under the actual policy, where no shot is drawn or billed.
    """
    name = alg["name"]
    if name == "general":
        return discover_general(
            session,
            delta=float(alg.get("delta", 1e-6)),
            kappa=float(alg.get("kappa", 0.05)),
        )
    d = spec.wire_dim
    povms = povm_preset(alg.get("povm", f"sic{d}"), d)
    _require_shots(name, session.mode, session.query_policy, alg.get("n_shots"))
    n_shots = int(alg.get("n_shots", 0))
    if name == "totalorder":
        chi_min = alg.get("chi_min", spec.metadata.get("achieved_chi_min"))
        _require(chi_min is not None, "totalorder needs chi_min (--chi-min) or generator metadata")
        return discover_totalorder(
            session,
            povms,
            n_shots,
            float(chi_min),
            kappa_target=float(alg.get("kappa_target", 0.05)),
        )
    if name == "memoryless":
        return discover_memoryless(
            session,
            povms,
            n_shots,
            float(alg.get("threshold", 0.1)),
            kappa_target=float(alg.get("kappa_target", 0.05)),
        )
    raise ConfigError(f"unknown algorithm {name!r}")


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    """Generate one comb, run the configured algorithm, verify the order."""
    t0 = time.perf_counter()
    rng = np.random.default_rng([config.seed, trial])
    spec = generate_comb(config.generator, rng)
    ocfg = OracleConfig(
        mode=config.oracle.get("mode", "exact"),
        seed=_trial_seed(config.seed, trial),
        query_policy=config.oracle.get("query_policy", "actual"),
        trial=trial,
    )
    report = dispatch(OracleSession(spec, ocfg), spec, config.algorithm)
    wall = (time.perf_counter() - t0) * 1e3
    if not report.ok:
        return TrialResult(trial, False, None, report.queries, wall, None, report.failure)
    check = check_comb_condition(build_choi(spec), report.order, tol=config.success_tol)
    failure = None if check.ok else f"emitted order deviates by {check.worst_deviation:.3g}"
    return TrialResult(
        trial, check.ok, report.order, report.queries, wall, check.worst_deviation, failure
    )


def run_experiment(config: ExperimentConfig) -> RunSummary:
    """Run all trials (optionally in worker processes) and summarize."""
    t0 = time.perf_counter()
    if config.workers > 0:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(run_trial, [config] * config.trials, range(config.trials)))
    else:
        results = [run_trial(config, t) for t in range(config.trials)]
    wall = (time.perf_counter() - t0) * 1e3
    successes = sum(r.ok for r in results)
    queries = [r.queries for r in results]
    rate = successes / config.trials
    return RunSummary(
        trials=config.trials,
        successes=successes,
        ok=rate >= config.min_success_rate,
        success_rate=rate,
        mean_queries=float(np.mean(queries)),
        max_queries=int(max(queries)),
        wall_ms=wall,
        results=tuple(results),
    )
