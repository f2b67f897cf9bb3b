"""Command-line entry points: toy benchmark, correlation scan, selfcheck.

Output files are deterministic given the flags and the seed: floats are
written with 17 significant digits in CSV and as plain IEEE doubles in
JSON-lines, rows appear in a fixed order, and timing goes to stderr only.
Exit codes: 0 success, 1 a selfcheck failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .copula import CopulaKind
from .experiments import (
    CORRELATION_METHODS,
    TOY_METHODS,
    CorrelationConfig,
    ToyConfig,
    run_correlation,
    run_toy,
)
from .selfcheck import run_selfcheck


def _csv_cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, np.ndarray):
        return ";".join("%.17g" % v for v in value.ravel().tolist())
    return str(value)


def _json_value(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _write_records(out_path, output, records):
    """Write records (dicts) as CSV (with header) or JSON-lines to a file or stdout."""
    if out_path == "-":
        _emit(sys.stdout, output, records)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            _emit(handle, output, records)


def _emit(handle, output, records):
    """CSV columns and JSON keys are the record keys in order.

    A CSV cell is "none" for None, %.17g for a float, the %.17g entries of
    an array joined by ";" in row-major order, and str() of anything else.
    A JSON float is a number, or null when nonfinite; an array becomes
    nested lists of such numbers.
    """
    if output == "csv":
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(records[0]))
        for rec in records:
            writer.writerow([_csv_cell(v) for v in rec.values()])
    else:
        for rec in records:
            obj = {key: _json_value(v) for key, v in rec.items()}
            handle.write(json.dumps(obj, allow_nan=False))
            handle.write("\n")


def _parse_clip(text: str):
    if text.lower() == "none":
        return None
    value = float(text)
    if not value > 0:  # nan fails this too
        raise argparse.ArgumentTypeError("clip must be positive or 'none'")
    return value


def _parse_methods(text: str):
    if text == "all":
        return TOY_METHODS
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _parse_alphas(text: str):
    return tuple(float(a) for a in text.split(","))


def _copula_kind(args) -> CopulaKind:
    rho = getattr(args, "rho", None)
    if args.copula == "dirichlet" and rho is not None:
        raise ValueError("--rho only applies to the Gaussian copula")
    return CopulaKind(args.copula, rho)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carms",
        description="Antithetic categorical gradient estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="gradient-variance benchmark on a linear objective")
    toy.add_argument("--method", type=_parse_methods, default=TOY_METHODS,
                     help="comma-separated subset of %s or 'all'" % (TOY_METHODS,))
    toy.add_argument("--copula", choices=["dirichlet", "gaussian"], default="dirichlet")
    toy.add_argument("--rho", type=float, default=None,
                     help="Gaussian equicorrelation (default: -1/(N-1))")
    toy.add_argument("--categories", type=int, default=10)
    toy.add_argument("--dims", type=int, default=10)
    toy.add_argument("--samples", type=int, default=4)
    toy.add_argument("--alpha", type=_parse_alphas, default=(1.0, 10.0, 100.0, 1000.0),
                     help="comma-separated Dirichlet concentrations")
    toy.add_argument("--trials", type=int, default=10)
    toy.add_argument("--inner", type=int, default=10_000,
                     help="Monte Carlo draws per variance estimate")
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--clip", type=_parse_clip, default=10.0,
                     help="ratio ceiling, or 'none'")
    toy.add_argument("--output", choices=["csv", "jsonl"], default="csv")
    toy.add_argument("--out-path", default="-")

    corr = sub.add_parser("correlation", help="pair correlation matrix of a sampler")
    corr.add_argument("--method", choices=list(CORRELATION_METHODS), default="inverse-cdf")
    corr.add_argument("--copula", choices=["dirichlet", "gaussian"], default="dirichlet")
    corr.add_argument("--rho", type=float, default=None)
    corr.add_argument("--categories", type=int, default=3)
    corr.add_argument("--samples", type=int, default=2)
    corr.add_argument("--trials", type=int, default=1000,
                      help="number of joint draws")
    corr.add_argument("--seed", type=int, default=0)
    corr.add_argument("--output", choices=["csv", "jsonl"], default="csv")
    corr.add_argument("--out-path", default="-")

    check = sub.add_parser("selfcheck", help="run the built-in consistency checks")
    check.add_argument("--level", choices=["fast", "full"], default="fast")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--output", choices=["csv", "jsonl"], default="csv")
    check.add_argument("--out-path", default="-")
    return parser


def _cmd_toy(args) -> int:
    config = ToyConfig(
        methods=tuple(args.method),
        alphas=tuple(args.alpha),
        categories=args.categories,
        dims=args.dims,
        samples=args.samples,
        trials=args.trials,
        inner=args.inner,
        seed=args.seed,
        clip=args.clip,
        copula=_copula_kind(args),
    )
    start = time.perf_counter()
    records = list(run_toy(config))
    _write_records(args.out_path, args.output, records)
    print(
        f"toy: {len(records)} records in {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_correlation(args) -> int:
    config = CorrelationConfig(
        method=args.method,
        copula=_copula_kind(args),
        categories=args.categories,
        samples=args.samples,
        draws=args.trials,
        seed=args.seed,
    )
    start = time.perf_counter()
    record = run_correlation(config)
    _write_records(args.out_path, args.output, [record])
    print(
        f"correlation: 1 record in {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_selfcheck(args) -> int:
    start = time.perf_counter()
    results = run_selfcheck(level=args.level, seed=args.seed)
    # the CSV reads pass/fail where the JSON has a boolean
    if args.output == "csv":
        rows = [
            {"check": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
            for r in results
        ]
    else:
        rows = [{"check": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    _write_records(args.out_path, args.output, rows)
    n_failed = sum(1 for r in results if not r.passed)
    print(
        f"selfcheck[{args.level}]: {len(results) - n_failed}/{len(results)} passed "
        f"in {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )
    return 1 if n_failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "toy":
            return _cmd_toy(args)
        if args.command == "correlation":
            return _cmd_correlation(args)
        return _cmd_selfcheck(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
