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

TOY_COLUMNS = [
    "method", "copula", "categories", "dims", "samples", "alpha", "trials",
    "trial", "inner", "seed", "clip", "probs", "var",
    "var_sum", "log_var_sum", "log_var_mean", "clip_fraction",
]
CORRELATION_COLUMNS = [
    "method", "copula", "categories", "samples", "draws", "seed", "corr",
]
SELFCHECK_COLUMNS = ["check", "status", "detail"]


def _f17(x) -> str:
    return "%.17g" % float(x)


def _join_floats(values) -> str:
    return ";".join(_f17(v) for v in np.asarray(values, dtype=float).ravel())


def _json_number(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _json_matrix(values):
    return [[_json_number(v) for v in row] for row in values]


def _toy_csv_row(rec) -> list[str]:
    return [
        rec["method"], rec["copula"], str(rec["categories"]), str(rec["dims"]),
        str(rec["samples"]), _f17(rec["alpha"]), str(rec["trials"]),
        str(rec["trial"]), str(rec["inner"]), str(rec["seed"]),
        "none" if rec["clip"] is None else _f17(rec["clip"]),
        _join_floats(rec["probs"]), _join_floats(rec["var"]),
        _f17(rec["var_sum"]), _f17(rec["log_var_sum"]), _f17(rec["log_var_mean"]),
        _f17(rec["clip_fraction"]),
    ]


def _toy_json_obj(rec) -> dict:
    return {
        "method": rec["method"], "copula": rec["copula"],
        "categories": rec["categories"], "dims": rec["dims"],
        "samples": rec["samples"], "alpha": rec["alpha"],
        "trials": rec["trials"], "trial": rec["trial"], "inner": rec["inner"],
        "seed": rec["seed"],
        "clip": None if rec["clip"] is None else float(rec["clip"]),
        "probs": _json_matrix(rec["probs"]), "var": _json_matrix(rec["var"]),
        "var_sum": _json_number(rec["var_sum"]),
        "log_var_sum": _json_number(rec["log_var_sum"]),
        "log_var_mean": _json_number(rec["log_var_mean"]),
        "clip_fraction": _json_number(rec["clip_fraction"]),
    }


def _corr_csv_row(rec) -> list[str]:
    return [
        rec["method"], rec["copula"], str(rec["categories"]), str(rec["samples"]),
        str(rec["draws"]), str(rec["seed"]), _join_floats(rec["corr"]),
    ]


def _corr_json_obj(rec) -> dict:
    return {
        "method": rec["method"], "copula": rec["copula"],
        "categories": rec["categories"], "samples": rec["samples"],
        "draws": rec["draws"], "seed": rec["seed"],
        "corr": _json_matrix(rec["corr"]),
    }


def _write_records(out_path, output, columns, rows, json_objs):
    """Write CSV (with header) or JSON-lines to a file or stdout."""
    if out_path == "-":
        _emit(sys.stdout, output, columns, rows, json_objs)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            _emit(handle, output, columns, rows, json_objs)


def _emit(handle, output, columns, rows, json_objs):
    if output == "csv":
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
    else:
        for obj in json_objs:
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
    _write_records(
        args.out_path, args.output, TOY_COLUMNS,
        (_toy_csv_row(r) for r in records),
        (_toy_json_obj(r) for r in records),
    )
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
    _write_records(
        args.out_path, args.output, CORRELATION_COLUMNS,
        [_corr_csv_row(record)], [_corr_json_obj(record)],
    )
    print(
        f"correlation: 1 record in {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_selfcheck(args) -> int:
    start = time.perf_counter()
    results = run_selfcheck(level=args.level, seed=args.seed)
    rows = [
        [r.name, "pass" if r.passed else "fail", r.detail] for r in results
    ]
    objs = [
        {"check": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    _write_records(args.out_path, args.output, SELFCHECK_COLUMNS, rows, objs)
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
