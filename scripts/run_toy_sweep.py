#!/usr/bin/env python3
"""Toy benchmark sweep: gradient variance of every estimator across the
Dirichlet concentration grid, written to CSV, with a carms-i vs loorf win
table printed at the end.

The default scale (C=D=10, N=4, 4 alphas, 10 trials, 10^4 inner draws) takes
about 20 s on a 2-core machine; --quick cuts it to a smoke run.
"""

import argparse
import sys
import time

from carms.cli import _write_records
from carms.experiments import TOY_METHODS, ToyConfig, run_toy


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="toy_sweep.csv")
    ap.add_argument("--categories", type=int, default=10)
    ap.add_argument("--dims", type=int, default=10)
    ap.add_argument("--samples", type=int, default=4)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--inner", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true", help="3 trials, 2000 inner draws")
    args = ap.parse_args(argv)

    config = ToyConfig(
        methods=TOY_METHODS,
        alphas=(1.0, 10.0, 100.0, 1000.0),
        categories=args.categories,
        dims=args.dims,
        samples=args.samples,
        trials=3 if args.quick else args.trials,
        inner=2000 if args.quick else args.inner,
        seed=args.seed,
    )

    start = time.perf_counter()
    records = []
    for rec in run_toy(config):
        records.append(rec)
        print(
            f"alpha={rec['alpha']:<8g} trial={rec['trial']} "
            f"{rec['method']:<10} var_sum={rec['var_sum']:.6g} "
            f"clip_frac={rec['clip_fraction']:.3g}",
            file=sys.stderr,
        )
    # the same writer as `carms toy`, so the CSV has its columns and format
    _write_records(args.out, "csv", records)
    print(f"wrote {len(records)} records to {args.out} "
          f"in {time.perf_counter() - start:.1f}s", file=sys.stderr)

    # paired comparison: how often does each method have the smallest var_sum,
    # and how often does carms-i beat loorf outright
    cells = {}
    for rec in records:
        cells.setdefault((rec["alpha"], rec["trial"]), {})[rec["method"]] = rec["var_sum"]
    print("\nalpha      best-method counts" + " " * 14 + "carms-i < loorf")
    for alpha in config.alphas:
        counts = dict.fromkeys(config.methods, 0)
        wins = 0
        total = 0
        for (a, _), methods in cells.items():
            if a != alpha:
                continue
            counts[min(methods, key=methods.get)] += 1
            wins += methods["carms-i"] < methods["loorf"]
            total += 1
        summary = ", ".join(f"{m}:{counts[m]}" for m in config.methods)
        print(f"{alpha:<10g} {summary:<40} {wins}/{total}")


if __name__ == "__main__":
    main()
