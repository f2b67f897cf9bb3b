"""Command-line entry points: toy benchmark, correlation scan, selfcheck.

Each flag is declared once.  A flag that sets a ToyConfig or
CorrelationConfig field has no default and stores under that field's name,
so those configs hold every default and _config builds one from the flags given.

Output files are deterministic given the flags and the seed: floats are
written with 17 significant digits in CSV and as plain IEEE doubles in
JSON-lines, rows appear in a fixed order, and timing goes to stderr only.
Exit codes: 0 success, 1 a selfcheck failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carms",
        description="Antithetic categorical gradient estimation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--output", choices=["csv", "jsonl"], default="csv")
    common.add_argument("--out-path", default="-")
    sampler = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    sampler.add_argument("--copula", dest="family", choices=["dirichlet", "gaussian"],
                         default="dirichlet")
    sampler.add_argument("--rho", type=float, default=None,
                         help="Gaussian equicorrelation (default: -1/(N-1))")
    sampler.add_argument("--categories", type=int)
    sampler.add_argument("--samples", type=int)

    toy = sub.add_parser("toy", parents=[common, sampler], argument_default=argparse.SUPPRESS,
                         help="gradient-variance benchmark on a linear objective")
    toy.add_argument("--method", dest="methods", metavar="METHOD", type=_parse_methods,
                     help="comma-separated subset of %s or 'all'" % (TOY_METHODS,))
    toy.add_argument("--dims", type=int)
    toy.add_argument("--alpha", dest="alphas", metavar="ALPHA", type=_parse_alphas,
                     help="comma-separated Dirichlet concentrations")
    toy.add_argument("--trials", type=int)
    toy.add_argument("--inner", type=int, help="Monte Carlo draws per variance estimate")
    toy.add_argument("--clip", type=_parse_clip, help="ratio ceiling, or 'none'")

    corr = sub.add_parser("correlation", parents=[common, sampler],
                          argument_default=argparse.SUPPRESS,
                          help="pair correlation matrix of a sampler")
    corr.add_argument("--method", choices=list(CORRELATION_METHODS))
    corr.add_argument("--trials", dest="draws", metavar="TRIALS", type=int,
                      help="number of joint draws")

    check = sub.add_parser("selfcheck", parents=[common],
                           help="run the built-in consistency checks")
    check.add_argument("--level", choices=["fast", "full"], default="fast")
    return parser


def _given(args, names) -> dict:
    """The flags among names that were given (a flag without a default is absent)."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _config(cls, args):
    """cls (ToyConfig or CorrelationConfig) from the flags given and the copula flags."""
    given = _given(args, [field.name for field in dataclasses.fields(cls)])
    return cls(copula=CopulaKind(args.family, args.rho), **given)


def _cmd_toy(args) -> int:
    config = _config(ToyConfig, args)
    start = time.perf_counter()
    records = list(run_toy(config))
    _write_records(args.out_path, args.output, records)
    print(
        f"toy: {len(records)} records in {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_correlation(args) -> int:
    config = _config(CorrelationConfig, args)
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
    results = run_selfcheck(args.level, **_given(args, ["seed"]))
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
