"""Batch experiment driver: generate combs, run a discovery algorithm, score.

A run is described by three small dictionaries (generator, algorithm,
oracle) plus trial bookkeeping, so configurations serialize naturally to
JSON for the command line.  Every trial gets its own derived seed; the
emitted order of each successful trial is verified against the ground
truth by the exact comb-condition checker, never by comparison with the
hidden permutations — algorithms are allowed to find any valid order.
The checker works on the comb's purification, so no trial forms the
dense Choi operator.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, get_type_hints

import numpy as np

from .combs import (
    CausalOrder,
    CombCheck,
    CombSpec,
    SizeCapError,
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
from .tensors import is_whole

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialResult",
    "RunSummary",
    "read_section",
    "generate_comb",
    "dispatch",
    "verify_order",
    "run_trial",
    "run_experiment",
]

#: The keys each comb kind and algorithm reads, as ``key: (type, default)``;
#: any other would have no effect, so it is refused.  The first kind and name
#: are the defaults.  A default of ``None`` fills nothing in: the key reaches
#: its library call only when given, so that call's default applies.
#: :func:`dispatch` fills in ``povm`` and ``chi_min``, which depend on the comb.
GENERATOR_KEYS = {
    "unitary": {"n": (int, 2), "d": (int, 2), "d_M": (int, 2)},
    "memoryless": {"n": (int, 2), "d": (int, 2), "constant_tooth": (bool, None)},
    "totalorder": {"n": (int, 2), "d": (int, 2), "d_M": (int, 2), "corr_floor": (float, None)},
    "signaling": {"dressed": (bool, True)},
    "fig3": {},
}
ALGORITHM_KEYS = {
    "general": {"delta": (float, None), "kappa": (float, None)},
    "totalorder": {"povm": (str, None), "n_shots": (int, 0), "chi_min": (float, None)},
    "memoryless": {"povm": (str, None), "n_shots": (int, 0), "threshold": (float, 0.1)},
}
#: The key that picks a section's table, and its tables; the oracle has one.
SELECTORS = {"generator": ("kind", GENERATOR_KEYS), "algorithm": ("name", ALGORITHM_KEYS)}
ORACLE_KEYS = {"mode": (str, None), "query_policy": (str, None)}
#: What each type admits.  An int is a whole number, never negative: each
#: counts something or seeds a generator.  A boolean is never a number.
_TYPE_NAMES = {
    int: "a non-negative whole number", float: "a real number",
    bool: "true or false", str: "a string",
}


class ConfigError(ValueError):
    """Raised for malformed experiment configurations."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _typed(where: str, kind, value):
    """``value`` as a ``kind`` of the key tables, or a ``ConfigError``."""
    if isinstance(kind, tuple):
        _require(value in kind, f"{where} must be one of {kind}, got {value!r}")
        return value
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    ok = is_whole(value) if kind is int else number if kind is float else isinstance(value, kind)
    _require(ok, f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


def read_section(section: str, values: Mapping[str, Any]) -> dict[str, Any]:
    """The ``generator`` (table picked by ``kind``), ``algorithm`` (by ``name``)
    or ``oracle`` section, typed, with its table's defaults filled in; another
    key or a wrong type is a ``ConfigError``.  A section reads back unchanged."""
    _require(isinstance(values, Mapping), f"{section} must be a mapping")
    table, owner = ORACLE_KEYS, section
    if section in SELECTORS:
        key, tables = SELECTORS[section]
        choices = tuple(tables)
        choice = _typed(f"{section}.{key}", choices, values.get(key, choices[0]))
        table, owner = {key: (choices, choices[0]), **tables[choice]}, f"{section} {choice!r}"
    extra = set(values) - set(table)
    _require(not extra, f"unknown {section} keys: {sorted(extra)} ({owner} takes {tuple(table)})")
    return {
        key: _typed(f"{section}.{key}", kind, values[key]) if key in values else default
        for key, (kind, default) in table.items()
        if key in values or default is not None
    }


def _require_budget(alg: Mapping[str, Any], mode: str, policy: str) -> None:
    """A promise algorithm draws its ``n_shots`` in sampled mode and bills
    them under the theoretical policy; either way it must name some."""
    if "n_shots" in alg and (mode == "sampled" or policy == "theoretical"):
        _require(
            alg["n_shots"] > 0,
            f"algorithm {alg['name']!r} needs n_shots in sampled mode or under the "
            "theoretical query policy",
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one batch experiment.

    Each section is read by :func:`read_section`, and each other field by
    the same rule for its annotated type; an unknown key or a value of the
    wrong type is a ``ConfigError``.  The fields then hold the typed
    values, the sections with their defaults filled in.
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
        types = get_type_hints(ExperimentConfig)
        for f in fields(self):
            value, kind = getattr(self, f.name), types[f.name]
            if kind in _TYPE_NAMES:
                value = _typed(f.name, kind, value)
            else:
                value = read_section(f.name, value)
            object.__setattr__(self, f.name, value)
        try:
            oracle = OracleConfig(seed=self.seed, **self.oracle)
        except ValueError as exc:
            raise ConfigError(f"bad oracle section: {exc}") from None
        _require(self.trials >= 1, "trials must be >= 1")
        _require(
            0 < self.success_tol < math.inf,
            f"success_tol must be a positive finite number, got {self.success_tol}",
        )
        _require(
            0.0 <= self.min_success_rate <= 1.0, "min_success_rate must be in [0, 1]"
        )
        _require_budget(self.algorithm, oracle.mode, oracle.query_policy)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """The config a JSON object holds; its ``format_version``, which
        every file :func:`~causalcomb.serialize.save_json` writes carries,
        is not a key and is skipped."""
        _require(isinstance(data, Mapping), f"a config is a mapping, not a {type(data).__name__}")
        data = {k: v for k, v in data.items() if k != "format_version"}
        extra = set(data) - {f.name for f in fields(cls)}
        _require(not extra, f"unknown config keys: {sorted(extra)}")
        _require("generator" in data, "config needs a 'generator' section")
        _require("algorithm" in data, "config needs an 'algorithm' section")
        return cls(**data)


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
    """Instantiate the comb family a generator section describes.

    The section is read by :func:`read_section`: only its kind's keys, with
    ``constant_tooth`` and ``corr_floor`` passed on only when given.
    """
    gen = read_section("generator", gen)
    kind, n, d, d_M = map(gen.get, ("kind", "n", "d", "d_M"))
    if kind == "unitary":
        return gen_unitary_comb(n, d, d_M, rng)
    if kind == "memoryless":
        return gen_memoryless_comb(n, d, rng, **given(gen, ["constant_tooth"]))
    if kind == "totalorder":
        return gen_totalorder_comb(n, d, d_M, rng, **given(gen, ["corr_floor"]))
    if kind == "signaling":
        return gen_signaling_comb(rng if gen["dressed"] else None)
    return gen_fig3_comb()


def given(values: Mapping[str, Any], keys) -> dict[str, Any]:
    """The entries of ``values`` under ``keys`` that are set: not ``None``."""
    return {k: v for k, v in values.items() if k in keys and v is not None}


def dispatch(
    session: OracleSession, spec: CombSpec, alg: Mapping[str, Any]
) -> DiscoveryReport:
    """Run the algorithm that ``alg`` names, read by :func:`read_section`.

    An unset key takes its library call's default, except ``povm``
    (``random-ic:0``, which every wire dimension has: ``sic<d>`` when ``d``
    is a power of two) and ``chi_min`` (the floor the generator stored).
    ``n_shots`` defaults to 0, no budget: a promise algorithm without one
    runs only in exact mode under the actual policy, where no shot is
    drawn or billed.
    """
    alg = read_section("algorithm", alg)
    if alg["name"] == "general":
        return discover_general(session, **given(alg, ["delta", "kappa"]))
    povm = povm_preset(alg.get("povm", "random-ic:0"), spec.wire_dim)
    _require_budget(alg, session.mode, session.query_policy)
    if alg["name"] == "totalorder":
        chi_min = alg.get("chi_min", spec.metadata.get("achieved_chi_min"))
        _require(chi_min is not None, "totalorder needs chi_min (--chi-min) or generator metadata")
        # a given chi_min is read already, so only a stored floor can fail here
        chi_min = _typed("the comb's achieved_chi_min", float, chi_min)
        return discover_totalorder(session, povm, alg["n_shots"], chi_min)
    return discover_memoryless(session, povm, alg["n_shots"], alg["threshold"])


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


def verify_order(
    spec: CombSpec, order: CausalOrder, tol: float
) -> tuple[CombCheck | None, str | None]:
    """The comb check of an emitted ``order`` and its failure, ``None`` if it holds.

    An order the checker refuses for its size (a prefix over
    :data:`~causalcomb.combs.MAX_ENTRIES` entries, from n = 8 on qubit
    wires with d_M = 2) has no check and a failure that starts
    ``not verified:``; any other refusal is raised.
    """
    try:
        check = check_comb_condition(spec, order, tol=tol)
    except SizeCapError as exc:
        return None, f"not verified: {exc}"
    return check, None if check.ok else f"emitted order deviates by {check.worst_deviation:.3g}"


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    """Generate one comb, run the configured algorithm, and judge its order
    by :func:`verify_order`; an unverified order is kept but not ok."""
    t0 = time.perf_counter()
    rng = np.random.default_rng([config.seed, trial])
    spec = generate_comb(config.generator, rng)
    ocfg = OracleConfig(seed=_trial_seed(config.seed, trial), trial=trial, **config.oracle)
    report = dispatch(OracleSession(spec, ocfg), spec, config.algorithm)
    wall = (time.perf_counter() - t0) * 1e3
    if not report.ok:
        return TrialResult(trial, False, None, report.queries, wall, None, report.failure)
    check, failure = verify_order(spec, report.order, config.success_tol)
    worst = None if check is None else check.worst_deviation
    return TrialResult(trial, failure is None, report.order, report.queries, wall, worst, failure)


def run_experiment(config: ExperimentConfig) -> RunSummary:
    """Run all trials (optionally in worker processes) and summarize."""
    t0 = time.perf_counter()
    if config.workers > 0:
        # imported here: the pool machinery costs every process that loads it
        from concurrent.futures import ProcessPoolExecutor

        # on fork every worker starts at the first submit: no more than there are trials
        with ProcessPoolExecutor(max_workers=min(config.workers, config.trials)) as pool:
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
