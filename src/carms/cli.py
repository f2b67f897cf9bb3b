"""Command-line entry points: toy benchmark, correlation scan, selfcheck.

Each flag is declared once.  A flag that sets a ToyConfig or
CorrelationConfig field has no default and stores under that field's name,
so those configs hold every default and _config builds one from the flags given.

Output files are deterministic given the flags and the seed: floats are
written with 17 significant digits in CSV and as plain IEEE doubles in
JSON-lines, rows appear in a fixed order, and timing goes to stderr only.
Exit codes: 0 success, 1 a selfcheck failed, 2 usage error, out of memory or
an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys
import time
import types

import numpy as np

from .experiments import (
    CORRELATION_METHODS,
    TOY_METHODS,
    CorrelationConfig,
    ToyConfig,
    run_correlation,
    run_toy,
)


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
        if value.dtype.kind != "f" or np.isfinite(value).all():  # no null to write
            return value.tolist()
        value = value.tolist()
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _open_output(out_path):
    return open(out_path, "w", encoding="utf-8", newline="")


def _write_records(out_path, output, records, handle=None):
    """Write records (dicts) as CSV (with header) or JSON-lines to a file, closed
    on return (handle: out_path already opened by _open_output), or stdout ("-")."""
    if out_path == "-":
        _emit(sys.stdout, output, records)
    else:
        with handle or _open_output(out_path) as file:
            _emit(file, output, records)


def _emit(handle, output, records):
    """CSV columns and JSON keys are the record keys in order.

    A CSV cell is "none" for None, %.17g for a float, the %.17g entries of
    an array joined by ";" in row-major order, and str() of anything else.
    A JSON float is a number, or null when nonfinite; an array becomes
    nested lists of such numbers.  An array is formatted and written a row
    (along its first axis) at a time, so a large matrix is never one string.
    """
    if output == "csv":
        lines = []  # csv's text of one field alone, where "" reads '""'
        quote = csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n")
        for values in [list(records[0]), *(list(rec.values()) for rec in records)]:
            for idx, value in enumerate(values):
                handle.write("," if idx else "")
                if isinstance(value, np.ndarray) and value.ndim > 1 and value.size:
                    for r, row in enumerate(value.reshape(len(value), -1)):
                        handle.write((";" if r else "") + _csv_cell(row))
                    continue
                quote.writerow([_csv_cell(value)])
                text = lines.pop()[:-1]
                handle.write("" if text == '""' and len(values) > 1 else text)
            handle.write("\n")
    else:
        for rec in records:  # _json_value leaves no nonfinite float to reject
            handle.write("{")
            for idx, (key, value) in enumerate(rec.items()):
                handle.write((", " if idx else "") + json.dumps(key) + ": ")
                if isinstance(value, np.ndarray) and value.ndim > 1:
                    handle.write("[")
                    for r, row in enumerate(value):
                        handle.write((", " if r else "") + json.dumps(_json_value(row)))
                    handle.write("]")
                else:
                    handle.write(json.dumps(_json_value(value)))
            handle.write("}\n")


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
    """cls (ToyConfig or CorrelationConfig) from the flags given."""
    return cls(**_given(args, [field.name for field in dataclasses.fields(cls)]))


def _toy(config):
    records = list(run_toy(config))
    return records, f"toy: {len(records)} records", 0


def _correlation(config):
    return [run_correlation(config)], "correlation: 1 record", 0


def _selfcheck_args(args):
    if getattr(args, "seed", 0) < 0:  # as the configs check theirs
        raise ValueError("seed must be nonnegative")
    return args


def _selfcheck(args):
    from .selfcheck import run_selfcheck  # with the oracles, on first use only

    results = run_selfcheck(args.level, **_given(args, ["seed"]))
    # the CSV reads pass/fail where the JSON has a boolean
    if args.output == "csv":
        rows = [
            {"check": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
            for r in results
        ]
    else:
        rows = [{"check": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    n_failed = sum(1 for r in results if not r.passed)
    summary = f"selfcheck[{args.level}]: {len(results) - n_failed}/{len(results)} passed"
    return rows, summary, 1 if n_failed else 0


# each subcommand: its config from the flags (ValueError on a bad value), and
# its run on that config, which returns (records, summary, exit code)
_COMMANDS = {"toy": (functools.partial(_config, ToyConfig), _toy),
             "correlation": (functools.partial(_config, CorrelationConfig), _correlation),
             "selfcheck": (_selfcheck_args, _selfcheck)}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call to main: parsing leaves
    it unchanged, so every later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    configure, run = _COMMANDS[args.command]
    try:
        config = configure(args)
        # opened before the run, so that a path that cannot be written costs no run
        handle = None if args.out_path == "-" else _open_output(args.out_path)
        with handle or contextlib.nullcontext():
            records, summary, code = run(config)
            _write_records(args.out_path, args.output, records, handle)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return 2
    except OSError as exc:  # the output's: a missing directory, a directory, no permission
        print(f"error: cannot write {args.out_path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"{summary} in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
