"""Command-line front end.

Subcommands
-----------
gen       generate a comb instance and write it to JSON
discover  run a discovery algorithm against a stored comb
verify    check a candidate tooth order against a stored comb
lemmas    run the numerical consistency battery
bench     run a batch experiment from a JSON config

Exit codes: 0 on success, 1 when a discovery or check fails, 2 for bad
configuration or arguments, 3 when a numerical routine fails (for example
an eigensolver that does not converge).  ``CAUSALCOMB_OUT_DIR`` sets the
default output directory for generated files.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .checks import lemma_suite
from .combs import build_choi, check_comb_condition, enumerate_orders
from .oracle import OracleConfig, OracleSession
from .runner import ConfigError, ExperimentConfig, dispatch, generate_comb, run_experiment
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
    gen = {
        "kind": args.kind,
        "n": args.n,
        "d": args.d,
        "d_M": args.d_m,
        "constant_tooth": args.constant_tooth,
        "corr_floor": args.corr_floor,
        "dressed": not args.undressed,
    }
    spec = generate_comb(gen, np.random.default_rng(args.seed))
    out = args.out
    if out is None:
        out = _out_dir(None) / f"{args.kind}_n{spec.n}_d{spec.wire_dim}_s{args.seed}.json"
    save_comb(spec, out)
    print(f"wrote {out}")
    print(
        f"kind={args.kind} n={spec.n} d={spec.wire_dim} d_M={spec.memory_dim} "
        f"true-order={format_order(spec.true_order)}"
    )
    return EXIT_OK


def cmd_discover(args: argparse.Namespace) -> int:
    spec = load_comb(args.comb)
    alg = {
        "name": args.algorithm,
        "delta": args.delta,
        "kappa": args.kappa,
        "povm": args.povm,
        "n_shots": args.n_shots,
        "chi_min": args.chi_min,
        "threshold": args.threshold,
        "kappa_target": args.kappa,
    }
    log = open(args.query_log, "w") if args.query_log else None
    try:
        config = OracleConfig(
            mode=args.mode, seed=args.seed, query_policy=args.query_policy, query_log=log
        )
        report = dispatch(
            OracleSession(spec, config),
            spec,
            {k: v for k, v in alg.items() if v is not None},
        )
    finally:
        if log is not None:
            log.close()
    print(f"algorithm: {report.algorithm}")
    print(f"queries:   {report.queries} (theoretical bound {report.theoretical_queries})")
    print(f"wall:      {report.wall_ms:.1f} ms")
    if not report.ok:
        print(f"failure:   {report.failure}")
        if report.order is not None:
            print(f"partial:   {format_order(report.order)}")
        return EXIT_FAIL
    print(f"order:     {format_order(report.order)}")
    if args.verify:
        check = check_comb_condition(build_choi(spec), report.order, tol=args.tol)
        verdict = "valid" if check.ok else "INVALID"
        print(f"verify:    {verdict} (worst deviation {check.worst_deviation:.3g})")
        if not check.ok:
            return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    spec = load_comb(args.comb)
    choi = build_choi(spec)
    if args.enumerate:
        orders = enumerate_orders(spec.n)
        valid = 0
        for order in orders:
            check = check_comb_condition(choi, order, tol=args.tol)
            valid += check.ok
            mark = "ok " if check.ok else "   "
            print(f"{mark} {format_order(order):40s} worst={check.worst_deviation:.3g}")
        print(f"{valid}/{len(orders)} orders valid at tol={args.tol}")
        return EXIT_OK if valid else EXIT_FAIL
    order = parse_order(args.order) if args.order else spec.true_order
    check = check_comb_condition(choi, order, tol=args.tol)
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

    g = sub.add_parser("gen", help="generate a comb and write it to JSON")
    g.add_argument("--kind", default="unitary",
                   choices=["unitary", "memoryless", "totalorder", "signaling", "fig3"])
    g.add_argument("--n", type=int, default=2, help="number of teeth")
    g.add_argument("--d", type=int, default=2, help="wire dimension")
    g.add_argument("--d-M", dest="d_m", type=int, default=2, help="memory dimension")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--constant-tooth", action="store_true",
                   help="memoryless: make the last tooth a constant channel")
    g.add_argument("--corr-floor", type=float, default=0.05,
                   help="totalorder: required pairwise correlation floor")
    g.add_argument("--undressed", action="store_true",
                   help="signaling: skip the random local dressing")
    g.add_argument("-o", "--out", default=None, help="output path")
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("discover", help="run a discovery algorithm on a stored comb")
    d.add_argument("comb", help="comb JSON written by gen")
    d.add_argument("--algorithm", default="general",
                   choices=["general", "totalorder", "memoryless"])
    d.add_argument("--mode", default="exact", choices=["exact", "sampled"])
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--query-policy", default="actual",
                   choices=["actual", "theoretical"])
    d.add_argument("--query-log", default=None,
                   help="write one JSON line per oracle charge to this file")
    d.add_argument("--delta", type=float, default=1e-6,
                   help="general: distance threshold for rejecting a pair")
    d.add_argument("--kappa", type=float, default=0.05,
                   help="general: failure probability of each swap test, so a run "
                        "may fail with up to (number of tests) x kappa; totalorder and "
                        "memoryless: overall budget behind the theoretical shot count")
    d.add_argument("--n-shots", type=int, default=100_000,
                   help="shot budget per correlation table")
    d.add_argument("--chi-min", type=float, default=None,
                   help="totalorder: promised minimum causal correlation")
    d.add_argument("--threshold", type=float, default=0.1,
                   help="memoryless: correlation level declaring a pair related")
    d.add_argument("--povm", default=None, help="POVM preset (default sic<d>)")
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
                   help="score every candidate order instead")
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
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
