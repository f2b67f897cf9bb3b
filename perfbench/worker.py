"""One benchmark invocation, run in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB_JSON RESULT_JSON T_SPAWN

JOB_JSON describes the job (see run.py); T_SPAWN is the parent's
time.monotonic() just before it started this process, so that set-up time
counts interpreter start-up, imports, argument parsing and the objective.
A job with "setup_only" set stops at the first draw.  A job with
"reference" set times the fixed reference loop (`reference`) before each
operation, outside the operation's own time.  The result (timestamps,
records, reference times, spans when traced, peak RSS) is written to
RESULT_JSON as one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from statistics import NormalDist

clock = time.monotonic


def softmax(phi):
    import numpy as np

    e = np.exp(phi - phi.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def linear_objective(weights, values, cats):
    """f(z) = sum_d w_d * v[c_d] for categories cats of shape (..., D)."""
    return (weights * values[cats]).sum(axis=-1)


def linear_gradient(weights, values, p):
    """Exact d E[f] / d logits for the linear objective, shape (D, C).

    E[f] = sum_d w_d sum_c p_dc v_c separates across dimensions, and
    d p_dk / d phi_dc = p_dk (1{k=c} - p_dc), so the gradient row of
    dimension d is w_d p_dc (v_c - sum_k p_dk v_k).
    """
    mean = p @ values
    return weights[:, None] * p * (values[None, :] - mean[:, None])


def reference(arrays: bool = False) -> float:
    """Seconds taken by a fixed loop that runs no carms code.

    It mixes interpreted Python with numpy calls on 0-d arrays (as in the
    pair-law CDF), the per-call overhead that dominates most workloads; with
    arrays set, numpy calls on 20,000-float arrays follow, for a workload
    whose time goes to large array operations.  The host's speed shifts by
    up to 1.7x for seconds to minutes at a time, and large array operations
    slow far less than per-call overhead does.  An operation's time divided
    by the reference time measured just before it moves far less than the
    operation's time alone (see perfbench/README.md).
    """
    import numpy as np

    start = clock()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    a, b = np.asarray(0.3), np.asarray(0.6)
    for _ in range(1_500):
        t = np.power(1.0 - a, 0.5) + np.power(1.0 - b, 0.5) - 1.0
        np.minimum(np.maximum(t, 0.0), b)
    if arrays:
        x = np.arange(20_000, dtype=float)
        for i in range(40):
            y = np.cumsum(np.sqrt(x + i))
            np.searchsorted(y, y[-1] / 2)
    return clock() - start


def reference_if(job) -> float:
    """The reference time when the job asks for one ("calls" or "arrays"), else 0."""
    kind = job.get("reference")
    return reference(arrays=kind == "arrays") if kind else 0.0


class SetupDone(Exception):
    """Raised at the first draw of a set-up-only job, which then ends."""


def setup_done(job, out):
    """Mark the end of set-up; a set-up-only job stops here."""
    out["setup"] = clock()
    if job.get("setup_only"):
        raise SetupDone


def toy_job(job, out):
    """Run `carms toy` in-process, timestamping each record as it is yielded."""
    from carms import cli, experiments

    records = []
    build_objective = getattr(experiments, "toy_objective", None)
    if build_objective is not None:

        def marked_objective(*args, **kwargs):
            table = build_objective(*args, **kwargs)
            setup_done(job, out)
            return table

        experiments.toy_objective = marked_objective
    run_toy = cli.run_toy

    def timed_run_toy(config):
        """Yield run_toy's records; "ref" is the reference time spent just
        before a record, which its time ("t" minus the previous "t") holds."""
        if build_objective is None:
            setup_done(job, out)
        produced = iter(run_toy(config))
        while True:
            ref = reference_if(job) if len(records) % len(config.methods) == 0 else 0.0
            rec = next(produced, None)
            if rec is None:
                return
            records.append({
                "t": clock(), "ref": ref, "method": rec["method"], "alpha": rec["alpha"],
                "trial": rec["trial"], "var_sum": rec["var_sum"],
                "clip_fraction": rec["clip_fraction"],
            })
            yield rec

    cli.run_toy = timed_run_toy
    rc = cli.main(job["argv"])
    out.update(rc=rc, records=records)


def corr_job(job, out):
    """Run `carms correlation` once per argv; each call writes one record."""
    from carms import cli

    calls, refs = [], []
    setup_done(job, out)
    for idx, argv in enumerate(job["argvs"]):
        if idx % 2 == 0:  # an operation is an inverse-cdf + gumbel pair
            refs.append(reference_if(job))
        start = clock()
        rc = cli.main(argv)
        calls.append([start, clock(), rc])
    out.update(rc=max(c[2] for c in calls), calls=calls, refs=refs)


def train_job(job, out):
    """SGD-style loop on the single-draw API with a linear objective.

    The logits follow gradient descent on the exact gradient, so they drift
    a little every step and depend only on the seed, never on the estimates.
    dev_i and dev_g hold each step's estimation error projected on the unit
    exact gradient: a single, near-Gaussian statistic per step, where single
    coordinates of rarely drawn categories are too skewed for a z-test.
    clipped_i counts carms-i ratio sets that the default ceiling clipped;
    carms-i is exactly unbiased only while it is 0.
    """
    import numpy as np

    from carms import estimators, sampling

    c, d, n = job["categories"], job["dims"], job["samples"]
    rng = np.random.default_rng(job["seed"])
    # every dimension gets the same spread of logits (normal quantiles) in a
    # seed-drawn order, so the cost of a step depends little on the seed
    quantiles = [0.5 * NormalDist().inv_cdf((k + 0.5) / c) for k in range(c)]
    phi = np.array([rng.permutation(quantiles) for _ in range(d)])
    weights = rng.uniform(0.5, 2.0, size=d)
    values = np.arange(1.0, c + 1.0)
    setup_done(job, out)
    steps, refs, dev_i, dev_g, clipped_i = [], [], [], [], 0
    with open(job["out_path"], "w", encoding="utf-8") as handle:
        for _ in range(job["steps"]):
            p = softmax(phi)
            refs.append(reference_if(job))
            start = clock()
            draws_i = [sampling.sample_antithetic_inverse_cdf(n, p[k], rng) for k in range(d)]
            draws_g = [sampling.sample_antithetic_gumbel(n, p[k], rng) for k in range(d)]
            grads = []
            for draws in (draws_i, draws_g):
                cats = np.stack([z.argmax(axis=1) for z, _ in draws], axis=1)
                f = linear_objective(weights, values, cats)
                grads.append(np.stack(
                    [estimators.carms(f, z, r, p[k]) for k, (z, r) in enumerate(draws)]
                ))
            steps.append([start, clock()])
            exact = linear_gradient(weights, values, p)
            unit = exact / np.linalg.norm(exact)
            dev_i.append(float(((grads[0] - exact) * unit).sum()))
            dev_g.append(float(((grads[1] - exact) * unit).sum()))
            clipped_i += sum(bool(r.clipped) for _, r in draws_i)
            handle.write(json.dumps({"carms-i": grads[0].tolist(), "carms-g": grads[1].tolist()}))
            handle.write("\n")
            phi = phi - job["lr"] * exact
    out.update(rc=0, steps=steps, refs=refs, dev_i=dev_i, dev_g=dev_g, clipped_i=clipped_i)


def pair_law_scaling(sizes, samples, min_seconds=0.2, min_builds=3):
    """Median ms per bivariate_pmf_averaged build at uniform p, per C."""
    import statistics

    import numpy as np

    from carms import sampling

    build = getattr(sampling, "bivariate_pmf_averaged", None)
    if build is None:
        return {}
    result = {}
    for c in sizes:
        p = np.full(c, 1.0 / c)
        times, begin = [], clock()
        while len(times) < min_builds or clock() - begin < min_seconds:
            start = clock()
            build(p, samples)
            times.append(clock() - start)
        result[str(c)] = 1e3 * statistics.median(times)
    return result


def scaling_job(job, out):
    """The pair-law scaling probe alone, untraced."""
    out.update(rc=0, scaling=pair_law_scaling(job["sizes"], job["samples"]))


JOBS = {"toy": toy_job, "corr": corr_job, "train": train_job, "scaling": scaling_job}


def main(argv) -> int:
    job_path, result_path, t_spawn = argv[1], argv[2], float(argv[3])
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    out = {"spawn": t_spawn, "rc": 1}
    tracer = None
    try:
        import carms  # noqa: F401  (imports are part of set-up time)

        if job.get("trace"):
            from spans import Tracer

            tracer = Tracer(clock)
            tracer.install()
        JOBS[job["kind"]](job, out)
    except SetupDone:
        out["rc"] = 0
    except Exception:  # the parent counts every operation of this job as failed
        out["rc"] = 1
        out["error"] = traceback.format_exc()
    out["end"] = clock()
    if tracer is not None:
        tracer.uninstall()
        out.update(spans=tracer.spans, counts=dict(tracer.counts), missing=tracer.missing)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
