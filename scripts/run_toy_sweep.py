#!/usr/bin/env python3
"""Toy benchmark sweep: gradient variance of every estimator across the
Dirichlet concentration grid, written to CSV, with a carms-i vs loorf win
table printed at the end.

Every size flag left out keeps ToyConfig's default, the paper's
configuration, which takes about 20 s on a 2-core machine; --quick cuts
the trials and inner draws to a smoke run.
"""

import argparse
import sys
import time

from carms.cli import _write_records
from carms.experiments import ToyConfig, run_toy


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    ap.add_argument("--out", default="toy_sweep.csv")
    for field in ("categories", "dims", "samples", "trials", "inner", "seed"):
        ap.add_argument("--" + field, type=int)
    ap.add_argument("--quick", action="store_true", default=False,
                    help="3 trials, 2000 inner draws")
    args = vars(ap.parse_args(argv))
    out = args.pop("out")
    if args.pop("quick"):
        args.update(trials=3, inner=2000)
    config = ToyConfig(**args)

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
    _write_records(out, "csv", records)
    print(f"wrote {len(records)} records to {out} "
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
