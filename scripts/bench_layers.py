#!/usr/bin/env python3
"""Per-layer timings of the batched carms path, merged into a JSON file.

Each stage is timed on its own at C in {3, 10, 30} categories, N = 4 samples
and uniform p, in microseconds per (draw, dimension): one joint draw of N
samples in one dimension.  The stages are the Dirichlet-copula draw of the C
columns one Gumbel draw uses, as the Gumbel batch draws them (blocks of
GUMBEL_BLOCK uniforms into one reused pair of arrays), the inverse-CDF and
Gumbel categorizations (copula draw included), the carms estimator core, the
loorf/reinforce score core and the pair-correlation matrix.  Pair-law builds
are timed in ms per build for both paths: the public full laws and the
off-diagonal laws that make_gradient_estimator builds.  Two stages time the
public API in ms per call: make_gradient_estimator for carms-i and carms-g
on a fresh Dirichlet(10) (D, C) stack at each (C, D) in STACKS, which
builds every dimension's pair law, and one whole run_toy cell (all four
methods at one alpha and trial) at the sizes of the toy-setups and
toy-draws benchmark workloads (TOY_CELLS), call i at seed i and alpha
ALPHAS[i % 4].  The single-draw
API is timed in microseconds per call, over CALLS calls at the same C and
N: both samplers at the fixed uniform p, both again with a fresh
Dirichlet(10) p per call (as in a training step, where p moves every
call), the inverse-CDF sampler at a p
with 1e-4 on every category but the first (nearly every draw lands in one
category), and estimators.carms on the Gumbel draws.  A stage's figure is
the median over repeats after one warm-up call.  With --toy, `carms toy` also runs at its
defaults (the paper's configuration) TOY_RUNS times in fresh interpreters:
the median wall-clock and the largest peak RSS are recorded.

A cold-start record always follows, from fresh interpreters on the same
source: the seconds `import carms.cli` takes (median of COLD_RUNS), and the
ms and minor page faults (ru_minflt) per step of a training-step-like loop
at C = 8, D = 4, N = 4, where each step draws both single-draw samplers and
runs estimators.carms in every dimension at a fresh Dirichlet(10) p (median
of COLD_RUNS loops of COLD_STEPS steps, after a short warm-up), and the
wall-clock and peak RSS of `carms correlation --categories C --trials 1000`
at C in CORRELATION_SIZES, where any state the inverse-CDF draws keep per
ordering would show (median wall and largest peak of CORRELATION_RUNS).
It ends with the wall-clock, peak RSS and exit code of one run of each
MEMORY_PROBES command, whose counts once set its memory: `carms toy` at
10^4 to 10^6 inner draws, 10^6 inverse-CDF correlation draws at C = 30,
and the correlation matrix at C = 3000.  Each probe's address space is
capped at PROBE_CAP bytes, so a tree that needs more (a toy run that held
every estimate took about 1.6 GB at 10^6 draws) fails there, with a
nonzero exit code, instead of crowding the host.
The figures above run in this process after large arrays, whose release
raises glibc's heap thresholds, so they cannot see pages that a fresh
process faults in again on every call.

    python scripts/bench_layers.py BENCH_13.json --label change --toy
    python scripts/bench_layers.py BENCH_13.json --label parent --toy --src ../parent/src

--src times another checkout's package (default: this checkout's src/).

    python scripts/bench_layers.py BENCH_24.json --label paired --paired ../parent/src

--paired times only the in-process layer and API stages above, of the --src package
and of the one under its argument (imported under another name), call by
call, the side that runs first alternating, both sides on generators seeded
alike and the pair-law builds on the same p.  Each stage records both
medians, the median of its per-call ratios (--src over --paired) and the
share of calls in which --src ran faster: timing each label in its own run,
minutes apart, lets the host's drift move a median by up to 2x.
Each label's numbers replace that label's earlier ones in the file; the
machine and numpy/scipy versions (as the benchmark in perfbench/ reports
them) are recorded beside them.
"""

import argparse
import importlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time

SIZES = (3, 10, 30)
SAMPLES = 4
CALLS = 200
STACKS = ((8, 4), (8, 6), (10, 10))
TOY_CELLS = {"toy_setups": (8, 4, 200), "toy_draws": (8, 6, 2500)}  # C, D, inner draws
ALPHAS = (1.0, 10.0, 100.0, 1000.0)
TOY_RUNS = 3
COLD_RUNS = 5
COLD_STEPS = 60
CORRELATION_SIZES = (100, 200, 400)
CORRELATION_RUNS = 3
PROBE_CAP = 1 << 30
PAIRED = "carms_paired"
TOY_PROBE = ["toy", "--trials", "1", "--alpha", "1", "--method", "carms-i", "--inner"]
MEMORY_PROBES = {
    **{f"toy_inner_{n}": TOY_PROBE + [str(n)] for n in (10**4, 10**5, 10**6)},
    "correlation_inverse_cdf_c30_trials_1000000": [
        "correlation", "--method", "inverse-cdf", "--categories", "30", "--samples", "4",
        "--trials", "1000000"],
    "correlation_c3000_trials_100": ["correlation", "--categories", "3000", "--trials", "100"],
}

IMPORT_CHILD = """
import time
start = time.perf_counter()
import carms.cli
print(time.perf_counter() - start)
"""

STEP_CHILD = """
import resource, sys, time
import numpy as np
from carms import estimators, sampling
c, d, n, warm, steps = 8, 4, 4, 5, int(sys.argv[1])
rng = np.random.default_rng(0)
probs = rng.dirichlet(np.full(c, 10.0), size=(warm + steps, d))
f = rng.normal(size=n)

def step(p):
    for k in range(d):
        for sample in (sampling.sample_antithetic_inverse_cdf, sampling.sample_antithetic_gumbel):
            z, r = sample(n, p[k], rng)
            estimators.carms(f, z, r, p[k])

for p in probs[:warm]:
    step(p)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
for p in probs[warm:]:
    step(p)
seconds = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(1e3 * seconds / steps, faults / steps)
"""


def _median(values):
    return sorted(values)[len(values) // 2]


def _median_seconds(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return _median(times)


def _layer_stages(package, draws, c, rng):
    """layers' stages at C = c of the carms package imported as package, on
    rng: ({name: fn()} timed per draw, {name: build(p)} timed per pair-law build)."""
    import numpy as np

    copula, experiments, sampling = (importlib.import_module(f"{package}.{name}")
                                     for name in ("copula", "experiments", "sampling"))

    def gumbel_copula_draw():
        # the blocks of _gumbel_categories_batch, drawn into its one work pair
        step = max(1, sampling.GUMBEL_BLOCK // (c * SAMPLES))
        work = np.empty((2, min(step, draws) * c * SAMPLES))
        for start in range(0, draws, step):
            copula._sample_dirichlet_copula_batch(min(step, draws - start) * c, SAMPLES, rng, work)

    p = np.full(c, 1.0 / c)
    law = sampling.bivariate_pmf_averaged(p, SAMPLES)
    ratios, _ = experiments._analytic_ratio_matrix(p, law, 10.0)
    cats = sampling._inverse_cdf_categories_batch(draws, SAMPLES, p, rng)
    f = rng.normal(size=(draws, SAMPLES))
    stages = {
        "copula_draw": gumbel_copula_draw,
        "categorize_inverse_cdf":
            lambda: sampling._inverse_cdf_categories_batch(draws, SAMPLES, p, rng),
        "categorize_gumbel": lambda: sampling._gumbel_categories_batch(draws, SAMPLES, p, rng),
        "carms_core": lambda: experiments._carms_estimates(f, cats, ratios, p),
        "score_core": lambda: experiments._score_sums(f, cats, p),
        "correlation": lambda: experiments._indicator_correlation(cats[:, 0], cats[:, 1], c),
    }
    builds = {"inverse_cdf": lambda q: sampling.bivariate_pmf_averaged(q, SAMPLES),
              "gumbel": lambda q: sampling.gumbel_pair_pmf(q, SAMPLES),
              "inverse_cdf_offdiag": lambda q: sampling._inverse_cdf_offdiag_law(q, SAMPLES),
              "gumbel_offdiag": lambda q: sampling._gumbel_offdiag_law(q, SAMPLES)}
    return stages, builds


def _api_stages(package, calls):
    """The public-API stages of the carms package imported as package:
    {stage: {size: fn(i)}} for calls i = 0..calls, call i of a stage on the
    same p or seed in every package."""
    import numpy as np

    experiments = importlib.import_module(f"{package}.experiments")
    stages = {}
    for c, d in STACKS:
        fresh = np.random.default_rng(100 * c + d).dirichlet(np.full(c, 10.0), size=(calls + 1, d))
        objective = experiments.toy_objective(c, d)
        for method in ("carms-i", "carms-g"):
            stages.setdefault(f"make_gradient_estimator_{method}", {})[f"C={c},D={d}"] = (
                lambda i, method=method, fresh=fresh, objective=objective:
                experiments.make_gradient_estimator(method, fresh[i], SAMPLES, objective))
    for name, (c, d, inner) in TOY_CELLS.items():
        def cell(i, c=c, d=d, inner=inner):
            config = experiments.ToyConfig(alphas=(ALPHAS[i % len(ALPHAS)],), categories=c,
                                           dims=d, samples=SAMPLES, trials=1, inner=inner, seed=i)
            for _ in experiments.run_toy(config):
                pass

        stages.setdefault("run_toy_cell", {})[name] = cell
    return stages


def api(repeats):
    """ms per call of each public-API stage, the median over repeats after a warm-up."""
    out = {}
    for stage, by_size in _api_stages("carms", repeats).items():
        for size, fn in by_size.items():
            calls = iter(range(repeats + 1))
            ms = _median_seconds(lambda: fn(next(calls)), repeats) * 1e3
            out.setdefault(stage, {})[size] = ms
    return {"api_ms_per_call": out}


def layers(draws, repeats):
    import numpy as np

    rng = np.random.default_rng(0)
    per_draw = {}
    build_ms = {}
    for c in SIZES:
        stages, builds = _layer_stages("carms", draws, c, rng)
        for name, fn in stages.items():
            per_draw.setdefault(name, {})[str(c)] = (
                _median_seconds(fn, repeats) * 1e6 / draws
            )
        # a fresh p per build, as in a training step
        for name, build in builds.items():
            fresh = iter(rng.dirichlet(np.full(c, 10.0), size=repeats + 1))
            build_ms.setdefault(name, {})[str(c)] = (
                _median_seconds(lambda: build(next(fresh)), repeats) * 1e3
            )
    return {"draws": draws, "samples": SAMPLES, "repeats": repeats,
            "us_per_draw_dim": per_draw, "pair_law_ms_per_build": build_ms}


def _paired_seconds(fns, calls):
    """Seconds of each fn(i) of a pair per call i = 1..calls, after a warm-up
    call of each at i = 0; the side that runs first alternates with i."""
    for fn in fns:
        fn(0)
    times = ([], [])
    for i in range(1, calls + 1):
        for side in (0, 1) if i % 2 else (1, 0):
            start = time.perf_counter()
            fns[side](i)
            times[side].append(time.perf_counter() - start)
    return times


def paired_layers(other_src, draws, repeats):
    """layers' stages of the carms package and of the one under other_src,
    loaded as PAIRED, alternated call by call on generators seeded alike, so
    both sides do the same work; the pair-law builds take the same fresh p.
    Per stage and C: each side's median and the median per-call ratio
    carms / PAIRED, with the share of calls in which carms ran faster."""
    import numpy as np

    import carms

    def summary(times, scale):
        ratios = sorted(a / b for a, b in zip(*times))
        return {"this": _median(times[0]) * scale, "other": _median(times[1]) * scale,
                "ratio_median": _median(ratios),
                "this_faster_share": sum(a < b for a, b in zip(*times)) / len(ratios)}

    path = os.path.join(os.path.abspath(other_src), "carms")
    spec = importlib.util.spec_from_file_location(
        PAIRED, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    sys.modules[PAIRED] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(sys.modules[PAIRED])
        per_draw, build_ms = {}, {}
        for c in SIZES:
            sides = [_layer_stages(pkg, draws, c, np.random.default_rng(c))
                     for pkg in ("carms", PAIRED)]
            for name in sides[0][0]:
                fns = [lambda i, fn=side[0][name]: fn() for side in sides]
                per_draw.setdefault(name, {})[str(c)] = summary(
                    _paired_seconds(fns, repeats), 1e6 / draws)
            fresh = np.random.default_rng(c).dirichlet(np.full(c, 10.0), size=repeats + 1)
            for name in sides[0][1]:
                fns = [lambda i, build=side[1][name]: build(fresh[i]) for side in sides]
                build_ms.setdefault(name, {})[str(c)] = summary(
                    _paired_seconds(fns, repeats), 1e3)
        api_ms = {}
        sides = [_api_stages(pkg, repeats) for pkg in ("carms", PAIRED)]
        for stage, by_size in sides[0].items():
            for size in by_size:
                fns = [side[stage][size] for side in sides]
                api_ms.setdefault(stage, {})[size] = summary(_paired_seconds(fns, repeats), 1e3)
    finally:
        for name in [name for name in sys.modules if name.partition(".")[0] == PAIRED]:
            del sys.modules[name]
    return {"paired": {"this_src": os.path.dirname(os.path.dirname(carms.__file__)),
                       "other_src": os.path.abspath(other_src), "draws": draws,
                       "samples": SAMPLES, "calls": repeats,
                       "us_per_draw_dim": per_draw, "pair_law_ms_per_build": build_ms,
                       "api_ms_per_call": api_ms}}


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
        one = np.full(c, 1e-4)
        one[0] = 1.0 - one[1:].sum()
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
            "sample_antithetic_inverse_cdf_one_category":
                lambda: [sample_antithetic_inverse_cdf(SAMPLES, one, rng) for _ in range(CALLS)],
            "estimators_carms":
                lambda: [estimators.carms(f[i], z, r, p) for i, (z, r) in enumerate(draws)],
        }
        for name, fn in stages.items():
            per_call.setdefault(name, {})[str(c)] = (
                _median_seconds(fn, repeats) * 1e6 / CALLS
            )
    return {"calls": CALLS, "us_per_call": per_call}


def toy_default(src):
    """`carms toy` at its defaults, each run a child interpreter on src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    walls = []
    for _ in range(TOY_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "carms", "toy", "--out-path", os.devnull],
                       env=env, check=True, stderr=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    # the largest peak over the children, all of them runs of this command
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"toy_default": {"runs": TOY_RUNS, "wall_s": sorted(walls)[len(walls) // 2],
                            "wall_s_each": walls, "peak_rss_mb": rss_mb}}


def cold_start(src):
    """Import time, a training-step-like loop and `carms` runs, each in fresh
    interpreters on src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

    def child(*argv):
        proc = subprocess.run([sys.executable, "-c", *argv], env=env, check=True,
                              capture_output=True, text=True)
        return [float(v) for v in proc.stdout.split()]

    def run(*args, cap=None):
        """Wall seconds, peak RSS (MB) and exit code of one `carms` child,
        its address space capped at cap bytes if given."""
        argv = [sys.executable, "-m", "carms", *args, "--out-path", os.devnull]
        limit = cap and (lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stderr=subprocess.DEVNULL, preexec_fn=limit)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        return (time.perf_counter() - start, usage.ru_maxrss / 1024.0,
                os.waitstatus_to_exitcode(status))

    def correlation(c):
        wall, rss, code = run("correlation", "--categories", str(c), "--trials", "1000")
        if code:
            raise subprocess.CalledProcessError(code, f"carms correlation --categories {c}")
        return wall, rss

    imports = [child(IMPORT_CHILD)[0] for _ in range(COLD_RUNS)]
    loops = sorted(child(STEP_CHILD, str(COLD_STEPS)) for _ in range(COLD_RUNS))
    mid = len(loops) // 2
    runs = {str(c): [correlation(c) for _ in range(CORRELATION_RUNS)] for c in CORRELATION_SIZES}
    probes = {name: dict(zip(("wall_s", "peak_rss_mb", "exit_code"), run(*args, cap=PROBE_CAP)))
              for name, args in MEMORY_PROBES.items()}
    return {"cold_start": {
        "runs": COLD_RUNS, "steps": COLD_STEPS,
        "import_s": sorted(imports)[len(imports) // 2], "import_s_each": imports,
        "ms_per_step": loops[mid][0], "minflt_per_step": sorted(v for _, v in loops)[mid],
        "loops_each": loops,
        "correlation": {c: {"wall_s": sorted(w for w, _ in each)[len(each) // 2],
                            "peak_rss_mb": max(rss for _, rss in each), "runs_each": each}
                        for c, each in runs.items()},
        "memory_probes": probes,
    }}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to merge this label's numbers into")
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                    help="source directory holding the carms package to time")
    ap.add_argument("--draws", type=int, default=4096)
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--toy", action="store_true",
                    help="also time `carms toy` at its defaults, wall-clock and peak RSS")
    ap.add_argument("--paired", metavar="OTHER_SRC",
                    help="time only the in-process layer stages, alternating call by call "
                         "with the carms package under OTHER_SRC")
    args = ap.parse_args()
    # perfbench's machine record and BLAS thread variables, set before numpy
    # loads here or in the children
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
    from run import BLAS_ENV, machine_info

    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.abspath(args.src))

    if args.paired:
        record = {"machine": machine_info(),
                  **paired_layers(args.paired, args.draws, args.repeats)}
    else:
        record = {"machine": machine_info(), **(toy_default(args.src) if args.toy else {}),
                  **cold_start(args.src), **layers(args.draws, args.repeats),
                  **api(args.repeats), **single_draw(args.repeats)}
    try:
        with open(args.out, encoding="utf-8") as handle:
            merged = json.load(handle)
    except FileNotFoundError:
        merged = {}
    merged[args.label] = record
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.paired:
        paired = record["paired"]
        for unit, key in (("us/(draw, dim)", "us_per_draw_dim"),
                          ("ms/build", "pair_law_ms_per_build"), ("ms/call", "api_ms_per_call")):
            for name, by_c in paired[key].items():
                cells = "  ".join(f"{c if key == 'api_ms_per_call' else f'C={c}'}: "
                                  f"{v['ratio_median']:.3f} ({v['this_faster_share']:.0%})"
                                  for c, v in by_c.items())
                print(f"{args.label:<8} {name:<24} {cells}  paired ratio of {unit} "
                      "(share of calls faster)", file=sys.stderr)
        return
    for name, by_c in record["us_per_draw_dim"].items():
        cells = "  ".join(f"C={c}: {v:8.3f}" for c, v in by_c.items())
        print(f"{args.label:<8} {name:<24} {cells}  us/(draw, dim)", file=sys.stderr)
    for name, by_c in record["pair_law_ms_per_build"].items():
        cells = "  ".join(f"C={c}: {v:8.3f}" for c, v in by_c.items())
        print(f"{args.label:<8} pair_law_{name:<19} {cells}  ms/build", file=sys.stderr)
    for name, by_size in record["api_ms_per_call"].items():
        cells = "  ".join(f"{size}: {v:8.3f}" for size, v in by_size.items())
        print(f"{args.label:<8} {name:<31} {cells}  ms/call", file=sys.stderr)
    for name, by_c in record["us_per_call"].items():
        cells = "  ".join(f"C={c}: {v:8.3f}" for c, v in by_c.items())
        print(f"{args.label:<8} {name:<37} {cells}  us/call", file=sys.stderr)
    cold = record["cold_start"]
    print(f"{args.label:<8} cold start: import carms.cli {cold['import_s']:.3f} s, "
          f"{cold['ms_per_step']:.2f} ms and {cold['minflt_per_step']:.1f} minor faults "
          "per train-like step", file=sys.stderr)
    for c, corr in cold["correlation"].items():
        print(f"{args.label:<8} carms correlation --categories {c} --trials 1000: "
              f"{corr['wall_s']:.2f} s, peak RSS {corr['peak_rss_mb']:.1f} MB", file=sys.stderr)
    for name, probe in cold["memory_probes"].items():
        print(f"{args.label:<8} {name}: {probe['wall_s']:.2f} s, peak RSS "
              f"{probe['peak_rss_mb']:.1f} MB, exit code {probe['exit_code']}", file=sys.stderr)
    if args.toy:
        toy = record["toy_default"]
        print(f"{args.label:<8} carms toy at its defaults: {toy['wall_s']:.2f} s, "
              f"peak RSS {toy['peak_rss_mb']:.1f} MB", file=sys.stderr)


if __name__ == "__main__":
    main()
