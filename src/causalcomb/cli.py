"""Command-line front end.

Subcommands
-----------
gen       generate a comb instance and write it to JSON
discover  run a discovery algorithm against a stored comb
verify    check a candidate tooth order against a stored comb
lemmas    run the numerical consistency battery
bench     run a batch experiment from a JSON config

Exit codes: 0 on success, 1 when a discovery or check fails, 2 for bad
configuration or arguments (an unknown key, a value of the wrong type, a
malformed comb file, and a correlation floor that no draw reaches within
the rejection budget), 3 when a numerical routine fails (for example an
eigensolver that does not converge).  An unset generator, algorithm or
oracle option takes the default of the runner's key tables or of the
library call, as in ``bench``; only ``--n-shots`` has one of its own.
``CAUSALCOMB_OUT_DIR`` sets the default output directory for generated
files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .checks import lemma_suite
from .combs import RejectionBudgetError, check_comb_condition, compatible_orders
from .oracle import OracleConfig, OracleSession
from .runner import ALGORITHM_KEYS, ALGORITHM_NAME, GENERATOR_KINDS, SECTION_KEYS, ConfigError
from .runner import ExperimentConfig, dispatch, generate_comb, given, read_section, run_experiment
from .serialize import load_comb, load_json, save_comb, save_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def format_order(order) -> str:
    return ",".join(f"{a}:{b}" for a, b in order)


def parse_order(text: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"bad order token {chunk!r}; expected like A1:B2")
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def _out_dir(explicit: str | None) -> Path:
    path = Path(explicit or os.environ.get("CAUSALCOMB_OUT_DIR", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_gen(args: argparse.Namespace) -> int:
    gen = read_section("generator", given(vars(args), SECTION_KEYS["generator"]))
    spec = generate_comb(gen, np.random.default_rng(args.seed))
    kind, out = gen["kind"], args.out
    if out is None:
        out = _out_dir(None) / f"{kind}_n{spec.n}_d{spec.wire_dim}_s{args.seed}.json"
    save_comb(spec, out)
    print(f"wrote {out}")
    print(
        f"kind={kind} n={spec.n} d={spec.wire_dim} d_M={spec.memory_dim} "
        f"true-order={format_order(spec.true_order)}"
    )
    return EXIT_OK


def cmd_discover(args: argparse.Namespace) -> int:
    spec = load_comb(args.comb)
    # only the set options the named algorithm reads; an unset one keeps its default
    alg = given(vars(args), ["name", *ALGORITHM_KEYS[args.name or ALGORITHM_NAME[1]]])
    oracle = given(vars(args), SECTION_KEYS["oracle"])
    log = open(args.query_log, "w") if args.query_log else None
    try:
        config = OracleConfig(seed=args.seed, query_log=log, **oracle)
        report = dispatch(OracleSession(spec, config), spec, alg)
    finally:
        if log is not None:
            log.close()
    print(f"algorithm: {report.algorithm}")
    bound = report.theoretical_queries
    bound_note = "" if bound is None else f" (theoretical bound {bound})"
    print(f"queries:   {report.queries}{bound_note}")
    print(f"wall:      {report.wall_ms:.1f} ms")
    if not report.ok:
        print(f"failure:   {report.failure}")
        if report.order is not None:
            print(f"partial:   {format_order(report.order)}")
        return EXIT_FAIL
    print(f"order:     {format_order(report.order)}")
    if args.verify:
        check = check_comb_condition(spec, report.order, tol=args.tol)
        verdict = "valid" if check.ok else "INVALID"
        print(f"verify:    {verdict} (worst deviation {check.worst_deviation:.3g})")
        if not check.ok:
            return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spec = load_comb(args.comb)
    if args.enumerate:
        found, _ = compatible_orders(spec, tol=args.tol)
        for order, check in found.items():
            print(f"ok  {format_order(order):40s} worst={check.worst_deviation:.3g}")
        print(f"{len(found)}/{math.factorial(spec.n) ** 2} orders valid at tol={args.tol}")
        return EXIT_OK if found else EXIT_FAIL
    order = parse_order(args.order) if args.order else spec.true_order
    check = check_comb_condition(spec, order, tol=args.tol)
    print(f"order:  {format_order(order)}")
    print(
        f"worst:  {check.worst_deviation:.6g} (tol {args.tol}, "
        f"factor residual bound {check.residual_bound:.3g})"
    )
    print("valid" if check.ok else "INVALID")
    return EXIT_OK if check.ok else EXIT_FAIL


def cmd_lemmas(args: argparse.Namespace) -> int:
    results = lemma_suite(args.seed)
    bad = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        bad += not r.passed
        print(f"{tag} {r.name:45s} margin={r.margin:+.3g}  {r.details}")
    print(f"{len(results) - bad}/{len(results)} checks passed")
    return EXIT_OK if bad == 0 else EXIT_FAIL


def cmd_bench(args: argparse.Namespace) -> int:
    data = load_json(args.config)
    data.pop("format_version", None)
    config = ExperimentConfig.from_dict(data)
    summary = run_experiment(config)
    print(summary.line())
    for r in summary.results:
        state = "ok  " if r.ok else "fail"
        order = format_order(r.order) if r.order else "-"
        print(
            f"  trial {r.trial:3d} {state} queries={r.queries:<12d} "
            f"order={order}" + (f"  ({r.failure})" if r.failure else "")
        )
    if args.out:
        save_json(
            {
                "config": data,
                "trials": summary.trials,
                "successes": summary.successes,
                "success_rate": summary.success_rate,
                "ok": summary.ok,
                "mean_queries": summary.mean_queries,
                "max_queries": summary.max_queries,
                "wall_ms": summary.wall_ms,
                "results": [vars(r) for r in summary.results],
            },
            args.out,
        )
        print(f"wrote {args.out}")
    return EXIT_OK if summary.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="causalcomb", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    # a config option defaults to None, unset: its default is the runner's or the library's
    g = sub.add_parser("gen", help="generate a comb and write it to JSON")
    g.add_argument("--kind", choices=GENERATOR_KINDS)
    g.add_argument("--n", type=int, help="number of teeth")
    g.add_argument("--d", type=int, help="wire dimension")
    g.add_argument("--d-M", dest="d_M", type=int, help="memory dimension")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--constant-tooth", action="store_const", const=True,
                   help="memoryless: make the last tooth a constant channel")
    g.add_argument("--corr-floor", type=float,
                   help="totalorder: required pairwise correlation floor")
    g.add_argument("--undressed", dest="dressed", action="store_const", const=False,
                   help="signaling: skip the random local dressing")
    g.add_argument("-o", "--out", default=None, help="output path")
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("discover", help="run a discovery algorithm on a stored comb")
    d.add_argument("comb", help="comb JSON written by gen")
    d.add_argument("--algorithm", dest="name", choices=ALGORITHM_NAME[0])
    d.add_argument("--mode", choices=["exact", "sampled"])
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--query-policy", choices=["actual", "theoretical"])
    d.add_argument("--query-log", default=None,
                   help="write one JSON line per oracle charge to this file")
    d.add_argument("--delta", type=float,
                   help="general: distance threshold for rejecting a pair")
    d.add_argument("--kappa", type=float,
                   help="general: failure probability of each swap test, so a run "
                        "may fail with up to (number of tests) x kappa")
    d.add_argument("--n-shots", type=int, default=100_000,
                   help="promise algorithms: prepare-and-measure shots per independence "
                        "matrix, drawn in sampled mode and billed under the theoretical policy")
    d.add_argument("--chi-min", type=float,
                   help="totalorder: promised minimum causal correlation")
    d.add_argument("--threshold", type=float,
                   help="memoryless: correlation level declaring a pair related")
    d.add_argument("--povm", help="POVM preset, sic<d> or random-ic:<seed> (default random-ic:0, "
                                  "which is sic<d> when d is a power of two)")
    d.add_argument("--verify", action="store_true",
                   help="check the emitted order against the stored comb")
    d.add_argument("--tol", type=float, default=1e-9,
                   help="tolerance for --verify")
    d.set_defaults(func=cmd_discover)

    v = sub.add_parser("verify", help="check a tooth order against a stored comb")
    v.add_argument("comb")
    v.add_argument("--order", default=None,
                   help='like "A1:B1,A2:B2" (default: the stored true order)')
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--enumerate", action="store_true",
                   help="list every compatible order instead, found by walking the "
                        "prefix nodes from the empty prefix")
    v.set_defaults(func=cmd_verify)

    l = sub.add_parser("lemmas", help="run the numerical consistency battery")
    l.add_argument("--seed", type=int, default=0)
    l.set_defaults(func=cmd_lemmas)

    b = sub.add_parser("bench", help="run a batch experiment from a JSON config")
    b.add_argument("config", help="experiment config JSON")
    b.add_argument("--out", default=None, help="write a JSON report here")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, so it must come first
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, RejectionBudgetError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
