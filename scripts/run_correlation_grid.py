#!/usr/bin/env python3
"""Pair-correlation grid over sampling methods, copulas, category counts, and
joint sample counts.  One CSV row per cell plus a printed summary of the
diagonal (self) correlations, which is where antithesis shows up.

The Gaussian copula is skipped for the inverse-CDF method (no closed-form
pair CDF there).
"""

import argparse
import sys

import numpy as np

from carms.cli import _write_records
from carms.copula import CopulaKind
from carms.experiments import CorrelationConfig, run_correlation

GRID_METHODS = (
    ("inverse-cdf", "dirichlet"),
    ("gumbel", "dirichlet"),
    ("gumbel", "gaussian"),
    ("independent", "dirichlet"),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="correlation_grid.csv")
    ap.add_argument("--categories", type=int, nargs="+", default=[2, 3, 4, 5, 10])
    ap.add_argument("--samples", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--draws", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=CorrelationConfig.seed)
    args = ap.parse_args()

    rows = []
    for method, family in GRID_METHODS:
        for c in args.categories:
            for n in args.samples:
                rec = run_correlation(
                    CorrelationConfig(
                        method=method,
                        copula=CopulaKind(family, None),
                        categories=c,
                        samples=n,
                        draws=args.draws,
                        seed=args.seed,
                    )
                )
                corr = rec.pop("corr")
                diag = np.diag(corr)
                off = corr[~np.eye(c, dtype=bool)]
                rows.append({
                    **rec,
                    "diag_mean": np.nanmean(diag), "diag_min": np.nanmin(diag),
                    "diag_max": np.nanmax(diag), "offdiag_mean": np.nanmean(off),
                    "corr": corr,
                })
                print(
                    f"{method:<12} {family:<10} C={c:<3} N={n}  "
                    f"diag mean {np.nanmean(diag):+.3f}  "
                    f"min {np.nanmin(diag):+.3f}  max {np.nanmax(diag):+.3f}",
                    file=sys.stderr,
                )

    # the same writer as `carms correlation`, so the cells have its format
    _write_records(args.out, "csv", rows)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
