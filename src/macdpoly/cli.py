"""Command-line interface: compute polynomials, evaluate, verify, sweep.

Subcommands
-----------
poly    print P_lambda in the orbit-sum basis
eval    print P_lambda(q^(2 (mu + k rho)))
verify  check one identity and print a report
grid    sweep every identity over all weights up to a size bound
table   print the Pieri coefficients for (mu, r)

Exit codes: 0 success / all checks passed, 1 at least one check failed,
2 invalid input.  All computed polynomials are cached under a directory
chosen from --cache-dir, then $MACD_CACHE_DIR, then ./.macd-cache; a
cache file or entry that fails validation is reported on stderr and
rebuilt.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core import MacdonaldContext, load_cache, macdonald_coeffs, macdonald_poly, save_cache
from .exact import scalar_to_str
from .identities import IDENTITIES, verify, verify_grid
from .operators import pieri_expand
from .weights import parse_weight

DEFAULT_CACHE_DIR = ".macd-cache"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macdpoly",
        description="Exact Macdonald polynomials P(q, q^k) for the A-series root systems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="number of coordinates (rank + 1, at least 2)")
    common.add_argument("--k", type=int, required=True, help="integer deformation parameter, at least 1")
    common.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    common.add_argument("--cache-dir", default=None, help="directory for polynomial cache files")

    p_poly = sub.add_parser("poly", parents=[common], help="print P_lambda in the orbit-sum basis")
    p_poly.add_argument("--lambda", dest="lam", required=True, metavar="WEIGHT",
                        help="dominant weight, comma-separated integers")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate P_lambda at q^(2 (mu + k rho))")
    p_eval.add_argument("--lambda", dest="lam", required=True, metavar="WEIGHT")
    p_eval.add_argument("--mu", required=True, metavar="WEIGHT")

    p_verify = sub.add_parser("verify", parents=[common], help="check one identity")
    p_verify.add_argument("identity", choices=IDENTITIES)
    p_verify.add_argument("--lambda", dest="lam", metavar="WEIGHT")
    p_verify.add_argument("--mu", metavar="WEIGHT")
    p_verify.add_argument("--r", type=int)

    p_grid = sub.add_parser("grid", parents=[common], help="verification sweep over a weight grid")
    p_grid.add_argument("--max-size", type=int, default=4, help="largest weight size in the sweep")

    p_table = sub.add_parser("table", parents=[common], help="print Pieri coefficients for (mu, r)")
    p_table.add_argument("--mu", required=True, metavar="WEIGHT")
    p_table.add_argument("--r", type=int, required=True)

    return parser


def _cache_path(args) -> Path:
    base = args.cache_dir or os.environ.get("MACD_CACHE_DIR") or DEFAULT_CACHE_DIR
    return Path(base) / f"macd-n{args.n}-k{args.k}.json"


def _load_cache_if_present(ctx: MacdonaldContext, path: Path) -> None:
    if not path.is_file():
        return
    try:
        load_cache(ctx, path)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"warning: ignoring cache file {path}: {exc}", file=sys.stderr)


def _save_cache(ctx: MacdonaldContext, path: Path) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_cache(ctx, path)
    except OSError as exc:
        print(f"warning: could not write cache file {path}: {exc}", file=sys.stderr)


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_poly(args, ctx) -> int:
    lam = parse_weight(args.lam, ctx.n)
    coeffs = macdonald_coeffs(lam, ctx)
    ordered = sorted(coeffs, key=lambda w: w.coords, reverse=True)
    records = [{"mu": str(mu), "value": scalar_to_str(coeffs[mu])} for mu in ordered]
    lines = [f"P[{lam}]  n={ctx.n} k={ctx.k}"]
    lines += [f"  m[{rec['mu']}]: {rec['value']}" for rec in records]
    _emit(args, lines, {"n": ctx.n, "k": ctx.k, "lambda": str(lam), "coeffs": records})
    return 0


def _cmd_eval(args, ctx) -> int:
    lam = parse_weight(args.lam, ctx.n)
    mu = parse_weight(args.mu, ctx.n)
    point = mu + ctx.k * ctx.root_data.rho
    value = macdonald_poly(lam, ctx).evaluate_at(point)
    text = scalar_to_str(value)
    _emit(args, [text],
          {"n": ctx.n, "k": ctx.k, "lambda": str(lam), "mu": str(mu), "value": text})
    return 0


def _report_lines(report) -> list:
    lines = [f"identity: {report.identity}"]
    params = report.params
    lines.append("params: " + " ".join(f"{key}={params[key]}" for key in sorted(params)))
    if report.error is not None:
        lines.append(f"error: {report.error}")
    lines.append(f"lhs: {report.lhs}")
    lines.append(f"rhs: {report.rhs}")
    lines.append("equal: " + ("yes" if report.equal else "no"))
    return lines


def _cmd_verify(args, ctx) -> int:
    params = {}
    if args.lam is not None:
        params["lambda"] = parse_weight(args.lam, ctx.n)
    if args.mu is not None:
        params["mu"] = parse_weight(args.mu, ctx.n)
    if args.r is not None:
        params["r"] = args.r
    report = verify(args.identity, params, ctx)
    _emit(args, _report_lines(report), report.to_dict())
    if report.error is not None:
        return 2
    return 0 if report.equal else 1


def _cmd_grid(args, ctx) -> int:
    reports = verify_grid(ctx, max_size=args.max_size)
    failed = [r for r in reports if not r.equal]
    lines = []
    for rep in failed:
        lines.extend(_report_lines(rep))
    lines.append(
        f"checked {len(reports)} identity instances on the size-{args.max_size} grid: "
        f"{len(reports) - len(failed)} passed, {len(failed)} failed")
    _emit(args, lines, {
        "n": ctx.n,
        "k": ctx.k,
        "max_size": args.max_size,
        "total": len(reports),
        "passed": len(reports) - len(failed),
        "failed": len(failed),
        "reports": [r.to_dict() for r in reports],
    })
    return 1 if failed else 0


def _cmd_table(args, ctx) -> int:
    mu = parse_weight(args.mu, ctx.n)
    terms = pieri_expand(mu, args.r, ctx)
    records = [{"nu": str(t.nu), "coefficient": scalar_to_str(t.coefficient)} for t in terms]
    lines = [f"Pieri terms for mu={mu}, r={args.r}  n={ctx.n} k={ctx.k}"]
    lines += [f"  nu={rec['nu']}: {rec['coefficient']}" for rec in records]
    _emit(args, lines, {"n": ctx.n, "k": ctx.k, "mu": str(mu), "r": args.r, "terms": records})
    return 0


_COMMANDS = {
    "poly": _cmd_poly,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "grid": _cmd_grid,
    "table": _cmd_table,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, run one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ctx = MacdonaldContext(args.n, args.k)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache_file = _cache_path(args)
    _load_cache_if_present(ctx, cache_file)
    try:
        code = _COMMANDS[args.subcommand](args, ctx)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for lam in ctx.rejected:
            print(f"warning: cache file {cache_file}: entry {lam} failed its "
                  "orthogonality check; rebuilt", file=sys.stderr)
    _save_cache(ctx, cache_file)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
