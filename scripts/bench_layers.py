#!/usr/bin/env python3
"""Per-layer timings of the batched carms path, merged into a JSON file.

Each stage is timed on its own at C in {3, 10, 30} categories, N = 4 samples
and uniform p, in microseconds per (draw, dimension): one joint draw of N
samples in one dimension.  The stages are the Dirichlet-copula draw of the C
columns one Gumbel draw uses, the inverse-CDF and Gumbel categorizations
(copula draw included), the carms estimator core, the loorf/reinforce score
core and the pair-correlation matrix.  Pair-law builds are timed in ms per
build for both paths.  The single-draw API is timed in microseconds per
call, over CALLS calls at the same C and N: both samplers at the fixed
uniform p, both again with a fresh Dirichlet(10) p per call (as in a
training step, where p moves every call), and
estimators.carms on the Gumbel draws.  A stage's figure is the median over
repeats after one warm-up call.

    python scripts/bench_layers.py BENCH_7.json --label change
    python scripts/bench_layers.py BENCH_7.json --label parent --src ../parent/src

--src times another checkout's package (default: this checkout's src/).
Each label's numbers replace that label's earlier ones in the file; the
machine and numpy/scipy versions (as the benchmark in perfbench/ reports
them) are recorded beside them.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
from run import BLAS_ENV, machine_info  # noqa: E402

for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

SIZES = (3, 10, 30)
SAMPLES = 4
CALLS = 200


def _median_seconds(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def layers(draws, repeats):
    import numpy as np

    from carms import experiments
    from carms.copula import DIRICHLET, sample_copula_batch
    from carms.sampling import (
        _gumbel_categories_batch,
        _inverse_cdf_categories_batch,
        bivariate_pmf_averaged,
        gumbel_pair_pmf,
    )

    rng = np.random.default_rng(0)
    per_draw = {}
    build_ms = {}
    for c in SIZES:
        p = np.full(c, 1.0 / c)
        law = bivariate_pmf_averaged(p, SAMPLES)
        ratios, _ = experiments._analytic_ratio_matrix(p, law, 10.0)
        cats = _inverse_cdf_categories_batch(draws, SAMPLES, p, rng)
        f = rng.normal(size=(draws, SAMPLES))
        stages = {
            "copula_draw": lambda: sample_copula_batch(DIRICHLET, draws * c, SAMPLES, rng),
            "categorize_inverse_cdf":
                lambda: _inverse_cdf_categories_batch(draws, SAMPLES, p, rng),
            "categorize_gumbel":
                lambda: _gumbel_categories_batch(draws, SAMPLES, p, rng, DIRICHLET),
            "carms_core": lambda: experiments._carms_estimates(f, cats, ratios, p),
            "score_core": lambda: experiments._score_sums(f, cats, p),
            "correlation": lambda: experiments._indicator_correlation(cats[:, 0], cats[:, 1], c),
        }
        for name, fn in stages.items():
            per_draw.setdefault(name, {})[str(c)] = (
                _median_seconds(fn, repeats) * 1e6 / draws
            )
        # a fresh p per build, as in a training step
        for name, build in (("inverse_cdf", lambda q: bivariate_pmf_averaged(q, SAMPLES)),
                            ("gumbel", lambda q: gumbel_pair_pmf(q, SAMPLES, DIRICHLET))):
            fresh = iter(rng.dirichlet(np.full(c, 10.0), size=repeats + 1))
            build_ms.setdefault(name, {})[str(c)] = (
                _median_seconds(lambda: build(next(fresh)), repeats) * 1e3
            )
    return {"draws": draws, "samples": SAMPLES, "repeats": repeats,
            "us_per_draw_dim": per_draw, "pair_law_ms_per_build": build_ms}


def single_draw(repeats):
    import numpy as np

    from carms import estimators
    from carms.sampling import sample_antithetic_gumbel, sample_antithetic_inverse_cdf

    rng = np.random.default_rng(1)
    per_call = {}
    for c in SIZES:
        p = np.full(c, 1.0 / c)
        draws = [sample_antithetic_gumbel(SAMPLES, p, rng) for _ in range(CALLS)]
        f = rng.normal(size=(CALLS, SAMPLES))
        # one p per call of every repeat
        fresh_i = iter(rng.dirichlet(np.full(c, 10.0), size=(repeats + 1) * CALLS))
        fresh_g = iter(rng.dirichlet(np.full(c, 10.0), size=(repeats + 1) * CALLS))
        stages = {
            "sample_antithetic_inverse_cdf":
                lambda: [sample_antithetic_inverse_cdf(SAMPLES, p, rng) for _ in range(CALLS)],
            "sample_antithetic_gumbel":
                lambda: [sample_antithetic_gumbel(SAMPLES, p, rng) for _ in range(CALLS)],
            "sample_antithetic_inverse_cdf_fresh_p": lambda: [
                sample_antithetic_inverse_cdf(SAMPLES, next(fresh_i), rng) for _ in range(CALLS)
            ],
            "sample_antithetic_gumbel_fresh_p": lambda: [
                sample_antithetic_gumbel(SAMPLES, next(fresh_g), rng) for _ in range(CALLS)
            ],
            "estimators_carms":
                lambda: [estimators.carms(f[i], z, r, p) for i, (z, r) in enumerate(draws)],
        }
        for name, fn in stages.items():
            per_call.setdefault(name, {})[str(c)] = (
                _median_seconds(fn, repeats) * 1e6 / CALLS
            )
    return {"calls": CALLS, "us_per_call": per_call}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to merge this label's numbers into")
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="source directory holding the carms package to time")
    ap.add_argument("--draws", type=int, default=4096)
    ap.add_argument("--repeats", type=int, default=9)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    record = {"machine": machine_info(), **layers(args.draws, args.repeats),
              **single_draw(args.repeats)}
    try:
        with open(args.out, encoding="utf-8") as handle:
            merged = json.load(handle)
    except FileNotFoundError:
        merged = {}
    merged[args.label] = record
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, by_c in record["us_per_draw_dim"].items():
        cells = "  ".join(f"C={c}: {v:8.3f}" for c, v in by_c.items())
        print(f"{args.label:<8} {name:<24} {cells}  us/(draw, dim)", file=sys.stderr)
    for name, by_c in record["pair_law_ms_per_build"].items():
        cells = "  ".join(f"C={c}: {v:8.3f}" for c, v in by_c.items())
        print(f"{args.label:<8} pair_law_{name:<15} {cells}  ms/build", file=sys.stderr)
    for name, by_c in record["us_per_call"].items():
        cells = "  ".join(f"C={c}: {v:8.3f}" for c, v in by_c.items())
        print(f"{args.label:<8} {name:<37} {cells}  us/call", file=sys.stderr)


if __name__ == "__main__":
    main()
