"""The carms benchmark: one command, four workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy-draws --seed 1 --seconds 20 --trace 0

Each invocation of a workload runs in a fresh single-threaded interpreter
(BLAS pools pinned to one thread) started by this script, one at a time: a
closed loop with one client.  With --trace 0 the script repeats invocations
until --seconds is spent, tops the run up with set-up-only invocations, and
reports the end-to-end metrics.  With --trace 1 it runs the workload once
untraced and once traced (repeating the pair while time remains), then the
pair-law scaling and import-time probes, and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it name the machine and print every metric
with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMAS = os.path.join(SRC, "carms", "schemas")
sys.path.insert(0, HERE)

from spans import self_times  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TOY_METHODS = ("carms-i", "carms-g", "loorf", "reinforce")
ALPHAS = "1,10,100,1000"
# a run ends within 180 s even when a worker hangs: workers are killed at this
# many seconds after the run starts
RUN_LIMIT_S = 170
# carms-i is exactly unbiased while no ratio is clipped, so over a run's steps
# the mean error along the exact gradient stays within this many standard
# errors.
Z_GATE = 5.0
# set-up-only invocations top a run up to this many set-ups (setup_s is their
# minimum)
MIN_SETUPS = 8

# The paper's C = D = 10 toy configuration is absent: its objective table is
# 74.5 GiB, and for C > 8 the default "auto" ordering path costs about 7.5 ms
# per (draw, dimension).  Both wait for ROADMAP directions 1 and 2.
WORKLOADS = {
    # draw-heavy sweep: copula draws, categorization, batched carms core and
    # objective lookup; the pair law is built once per (cell, dimension)
    "toy-draws": {"kind": "toy", "categories": 8, "dims": 6, "samples": 4,
                  "trials": 8, "inner": 2500},
    # same code, many cells with few draws: pair-law builds and per-record
    # overhead dominate
    "toy-setups": {"kind": "toy", "categories": 8, "dims": 4, "samples": 4,
                   "trials": 10, "inner": 200},
    # the only C > 8 workload: copula draws and the 435-ordering categorize
    # loop; bypasses pair law, estimators and objective.  Its time goes to
    # large array operations, so its reference loop includes some.
    "corr-wide": {"kind": "corr", "categories": 30, "samples": 4, "draws": 10000,
                  "ops_per_invocation": 30, "reference": "arrays"},
    # public single-draw API: per-call sampling, pair-law entries, estimators.carms;
    # an operation is one step
    "train-step": {"kind": "train", "categories": 8, "dims": 4, "samples": 4,
                   "steps": 30, "lr": 0.01},
}
PAIR_LAW_SIZES = (3, 10, 30)


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "worker_blas_env": {k: worker_env()[k] for k in BLAS_ENV}}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------- jobs


def toy_argv(spec, seed, out_path):
    return ["toy", "--method", ",".join(TOY_METHODS), "--categories", str(spec["categories"]),
            "--dims", str(spec["dims"]), "--samples", str(spec["samples"]),
            "--alpha", ALPHAS, "--trials", str(spec["trials"]),
            "--inner", str(spec["inner"]), "--seed", str(seed),
            "--output", "jsonl", "--out-path", out_path]


def corr_argv(spec, method, seed, out_path):
    return ["correlation", "--method", method, "--categories", str(spec["categories"]),
            "--samples", str(spec["samples"]), "--trials", str(spec["draws"]),
            "--seed", str(seed), "--output", "jsonl", "--out-path", out_path]


def make_job(spec, seed, out_dir, tag):
    """The job description a worker runs, with every output path under out_dir."""
    kind = spec["kind"]
    if kind == "toy":
        return {"kind": kind, "argv": toy_argv(spec, seed, os.path.join(out_dir, f"{tag}.jsonl"))}
    if kind == "corr":
        seeds = random.Random(seed).sample(range(2**31), spec["ops_per_invocation"])
        return {"kind": kind, "argvs": [
            corr_argv(spec, m, s, os.path.join(out_dir, f"{tag}-{s}-{m}.jsonl"))
            for s in seeds for m in ("inverse-cdf", "gumbel")]}
    if kind == "train":
        keys = ("categories", "dims", "samples", "steps", "lr")
        return {"kind": kind, "seed": seed, "out_path": os.path.join(out_dir, f"{tag}.jsonl"),
                **{k: spec[k] for k in keys}}
    raise ValueError(kind)


def output_paths(job) -> list[str]:
    if job["kind"] == "toy":
        return [job["argv"][-1]]
    if job["kind"] == "corr":
        return [argv[-1] for argv in job["argvs"]]
    return [job["out_path"]]


def run_worker(job, out_dir, tag, deadline, trace=False) -> dict:
    """Run job in a fresh interpreter, killed at deadline; return its result."""
    job = dict(job, trace=trace)
    job_path = os.path.join(out_dir, f"{tag}.job.json")
    result_path = os.path.join(out_dir, f"{tag}.result.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path, repr(spawn)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=max(deadline - spawn, 1.0))
        returncode, stderr = proc.returncode, proc.stderr.decode(errors="replace")
    except subprocess.TimeoutExpired:  # subprocess.run killed and reaped it
        returncode, stderr = -1, "worker killed at the run's time limit"
    exit_t = time.monotonic()
    result = {"rc": 1}
    if returncode == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    result.update(job=job, wall=exit_t - spawn, exit=exit_t, stderr=stderr)
    if result["rc"] != 0:
        print(f"[{tag}] worker failed: {result.get('error') or stderr}".rstrip(), file=sys.stderr)
    return result


# --------------------------------------------------------------- checks


def load_schema(name):
    with open(os.path.join(SCHEMAS, name), encoding="utf-8") as handle:
        return json.load(handle)


def flatten(values) -> list:
    out, stack = [], [values]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        else:
            out.append(item)
    return out


def var_ok(rec) -> bool:
    """var finite and nonnegative, var_sum finite and positive.

    A coordinate can have exactly zero variance: a category never drawn in a
    cell gives loorf the same estimate, 0, on every draw.
    """
    var = flatten(rec["var"])
    return (bool(var) and all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
                              for v in var)
            and isinstance(rec["var_sum"], float) and math.isfinite(rec["var_sum"])
            and rec["var_sum"] > 0)


def check_toy(result, expected) -> int:
    """Failed records of one toy invocation (missing ones count as failed)."""
    if result["rc"] != 0:
        return expected
    import jsonschema

    validator = jsonschema.Draft7Validator(load_schema("toy.schema.json"))
    with open(output_paths(result["job"])[0], encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    failed = max(expected - len(lines), 0)
    for line in lines[:expected]:
        rec = json.loads(line)
        failed += not (validator.is_valid(rec) and var_ok(rec))
    return failed


def check_corr(result) -> int:
    """Failed records: invalid, an entry outside [-1, 1], or a diagonal that is not negative.

    The diagonal check is on the mean diagonal entry over the invocation's
    records of one method, which fails every record of that method.  At
    C = 30 and 10^4 draws, one inverse-CDF record's diagonal mean is only
    about five standard errors below zero; pooled, it is more than twenty.
    """
    argvs = result["job"]["argvs"]
    if result["rc"] != 0:
        return len(argvs)
    import jsonschema

    validator = jsonschema.Draft7Validator(load_schema("correlation.schema.json"))
    failed, diagonals = set(), {}
    for idx, argv in enumerate(argvs):
        with open(argv[-1], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        rec = json.loads(lines[0]) if len(lines) == 1 else None
        method = argv[argv.index("--method") + 1]
        diagonals.setdefault(method, ([], []))[0].append(idx)
        if (rec is not None and validator.is_valid(rec)
                and all(isinstance(v, float) and -1.0 <= v <= 1.0 for v in flatten(rec["corr"]))):
            diagonals[method][1].extend(row[i] for i, row in enumerate(rec["corr"]))
        else:
            failed.add(idx)
    for indices, diag in diagonals.values():
        if not (diag and statistics.fmean(diag) < 0.0):
            failed.update(indices)
    return len(failed)


def check_train(result, expected) -> int:
    """Failed steps: missing ones, or steps with a non-finite estimate."""
    if result["rc"] != 0 or len(result["steps"]) != expected:
        return expected
    return sum(not (math.isfinite(a) and math.isfinite(b))
               for a, b in zip(result["dev_i"], result["dev_g"]))


def same_bytes(a, b) -> bool:
    pa, pb = output_paths(a["job"]), output_paths(b["job"])
    if len(pa) != len(pb):
        return False
    for x, y in zip(pa, pb):
        try:
            with open(x, "rb") as fx, open(y, "rb") as fy:
                if fx.read() != fy.read():
                    return False
        except OSError:
            return False
    return True


def z_score(values) -> float:
    """Mean over standard error; nan with fewer than two values."""
    if len(values) < 2:
        return float("nan")
    se = statistics.stdev(values) / math.sqrt(len(values))
    return statistics.fmean(values) / se if se > 0.0 else float("inf")


# ----------------------------------------------------- end-to-end (trace 0)


def ops_of(result, spec) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of each operation: a (alpha, trial) cell
    of four records, an inverse-CDF + Gumbel correlation pair at one seed, or
    one training step.  The reference loop ran just before the operation."""
    if result["rc"] != 0:
        return []
    kind = spec["kind"]
    if kind == "toy":
        records = result["records"]
        times = [result["setup"]] + [r["t"] for r in records]
        durations = [b - a - r["ref"] for a, b, r in zip(times, times[1:], records)]
        k = len(TOY_METHODS)
        return [(sum(durations[i:i + k]), records[i]["ref"])
                for i in range(0, len(durations) - k + 1, k)]
    if kind == "corr":
        calls = result["calls"]
        return [(calls[i][1] - calls[i][0] + calls[i + 1][1] - calls[i + 1][0], ref)
                for i, ref in zip(range(0, len(calls) - 1, 2), result["refs"])]
    return [(end - start, ref) for (start, end), ref in zip(result["steps"], result["refs"])]


def draw_dims_of(result, spec) -> int:
    if result["rc"] != 0:
        return 0
    kind = spec["kind"]
    if kind == "toy":
        return len(result["records"]) * spec["inner"] * spec["dims"]
    if kind == "corr":
        return len(result["calls"]) * spec["draws"]
    return len(result["steps"]) * 2 * spec["dims"]


def expected_ops(spec) -> int:
    """Operations attempted per invocation: records, or training steps."""
    kind = spec["kind"]
    if kind == "toy":
        return len(ALPHAS.split(",")) * spec["trials"] * len(TOY_METHODS)
    if kind == "corr":
        return 2 * spec["ops_per_invocation"]
    return spec["steps"]


def check(result, spec) -> int:
    kind = spec["kind"]
    if kind == "toy":
        return check_toy(result, expected_ops(spec))
    if kind == "corr":
        return check_corr(result)
    return check_train(result, expected_ops(spec))


def wnv_by_method(results, spec) -> dict:
    """Median over cells of var_sum x seconds per inner draw, per method."""
    cells = {m: [] for m in TOY_METHODS}
    for result in results:
        if result["rc"] != 0:
            continue
        prev = result["setup"]
        for rec in result["records"]:
            seconds = rec["t"] - prev - rec["ref"]
            cells[rec["method"]].append(rec["var_sum"] * seconds / spec["inner"])
            prev = rec["t"]
    return {m: statistics.median(v) for m, v in cells.items() if v}


def run_untraced(spec, seed, seconds, out_dir, report, deadline):
    """Invocations back to back until the time is spent, then set-up-only ones.

    The first two invocations share a job seed, and every run has at least
    those two.  Set-up-only invocations stop at the first draw; they top the
    run up to MIN_SETUPS set-ups, so that setup_s is a minimum over enough
    of them to be steady on a host whose speed shifts from second to second.
    """
    seeds = random.Random(seed)
    job_seeds = [seeds.randrange(2**31)]
    results = []
    begin = time.monotonic()
    while time.monotonic() < deadline:
        i = len(results)
        if i >= 2:
            job_seeds.append(seeds.randrange(2**31))
        job = dict(make_job(spec, job_seeds[max(i - 1, 0)], out_dir, f"inv{i}"),
                   reference=spec.get("reference", "calls"))
        results.append(run_worker(job, out_dir, f"inv{i}", deadline))
        if i >= 1 and time.monotonic() - begin + results[-1]["wall"] > seconds:
            break
    setups = []
    while len(results) + len(setups) < MIN_SETUPS and time.monotonic() < deadline:
        tag = f"setup{len(setups)}"
        job = dict(make_job(spec, job_seeds[-1], out_dir, tag), setup_only=True)
        setups.append(run_worker(job, out_dir, tag, deadline))

    per = expected_ops(spec)
    # a set-up-only invocation is one operation
    attempted = per * len(results) + len(setups)
    failed = sum(check(r, spec) for r in results) + sum(r["rc"] != 0 for r in setups)
    if len(results) > 1 and not same_bytes(results[0], results[1]):
        report.append("check: outputs of two invocations with one seed differ")
        failed += per - check(results[1], spec)
    ok = [r for r in results if r["rc"] == 0]
    if spec["kind"] == "train":
        # results[1] repeats results[0]'s seed, so it is left out of the pool
        pool = [r for i, r in enumerate(results) if i != 1 and r["rc"] == 0]
        z_i = z_score([x for r in pool for x in r["dev_i"]])
        z_g = z_score([x for r in pool for x in r["dev_g"]])
        clipped_i = sum(r["clipped_i"] for r in ok)
        report.append(f"unbiasedness along the exact gradient over "
                      f"{sum(len(r['steps']) for r in pool)} steps: carms-i z {z_i:.3f} "
                      f"(gate |z| <= {Z_GATE}); carms-g z {z_g:.3f} (not gated: the Gumbel "
                      "path's batch-empirical ratios are biased, see README gate 10); "
                      f"clipped carms-i ratio sets {clipped_i} (gate: 0)")
        if clipped_i > 0 or not abs(z_i) <= Z_GATE:
            failed = attempted

    if not ok:
        raise SystemExit("error: every invocation failed; see the worker errors above")
    timed = [x for r in ok for x in ops_of(r, spec)]
    ops = [1e3 * op for op, _ in timed]
    refs = [1e3 * ref for _, ref in timed]
    tail = statistics.quantiles(ops, n=10, method="inclusive")[-1] if len(ops) > 1 else ops[0]
    compute = sum(r["end"] - r["setup"] for r in ok) - sum(refs) / 1e3
    setup_times = [r["setup"] - r["spawn"] for r in ok + setups if r["rc"] == 0]
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in ok) / 1024.0, "MB"),
        "op_time_rel": (sum(ops) / sum(refs), "ref"),
    }
    # op_time_rel is the run's operation time over the time of the reference
    # loop run just before each operation.  The lines below are printed but
    # not in the JSON line: on a shared host whose speed shifts by up to 1.7x
    # for minutes at a time, raw times move between runs far more than
    # op_time_rel does (see perfbench/README.md).
    report.append(f"{len(ops)} ops in {len(results)} invocations; "
                  f"{len(setup_times)} set-ups, median {statistics.median(setup_times):.6g} s")
    report.append(f"op_ms.min {min(ops):.6g} ms")
    report.append(f"op_ms.p50 {statistics.median(ops):.6g} ms")
    report.append(f"ref_ms.p50 {statistics.median(refs):.6g} ms")
    report.append(f"op_rel.p50 {statistics.median(o / r for o, r in zip(ops, refs)):.6g} ref")
    report.append(f"op_ms.tail {tail:.6g} ms (p90 of {len(ops)} ops, "
                  f"{sum(1 for x in ops if x > tail)} beyond it)")
    report.append(f"wall_s {statistics.fmean(r['wall'] for r in ok):.6g} s")
    report.append(f"draw_dims_per_s {sum(draw_dims_of(r, spec) for r in ok) / compute:.6g} 1/s")
    report.append(f"ops_failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if spec["kind"] == "toy":
        for method, value in wnv_by_method(ok, spec).items():
            report.append(f"wnv.{method} {value:.6g} var.s")
    return metrics, attempted, failed


# ------------------------------------------------------- per-layer (trace 1)


def aggregate(results) -> dict:
    """Per span name: [count, total duration, total self time, total units] (s)."""
    agg: dict[str, list] = {}
    for result in results:
        spans = result.get("spans") or []
        for span, own in zip(spans, self_times(spans)):
            row = agg.setdefault(span[0], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += span[2] - span[1]
            row[2] += own
            row[3] += span[4]
    return agg


def import_times(deadline) -> dict:
    """Cumulative import ms of carms.cli and carms.selfcheck via -X importtime."""
    try:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import carms.cli"],
                              env=worker_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {}
    out = {}
    for line in proc.stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("carms.cli", "carms.selfcheck"):
            out[parts[2].strip()] = int(parts[1]) / 1e3
    return out


def layer_metrics(traced, scaling, imports, overhead, untraced_wall, missing):
    """Every per-layer metric from the workload's traced invocations.

    A layer the workload never reaches reads 0, both its count and its time.
    """
    agg = aggregate(traced)
    counts = {}
    for r in traced:
        for k, v in (r.get("counts") or {}).items():
            counts[k] = counts.get(k, 0) + v
    n_traced = max(len(traced), 1)
    empty = [0, 0.0, 0.0, 0]

    def per_call(name, scale, own=False):
        r = agg.get(name, empty)
        return scale * (r[2] if own else r[1]) / r[0] if r[0] else 0.0

    def per_unit(name, scale, own=False):
        r = agg.get(name, empty)
        return scale * (r[2] if own else r[1]) / r[3] if r[3] else 0.0

    def count(name):
        return agg.get(name, empty)[0] / n_traced

    single = [agg.get(n, empty) for n in ("sampling.single_draw.inverse_cdf",
                                          "sampling.single_draw.gumbel")]
    draws = sum(r[0] for r in single)
    records = [rec for r in traced for rec in r.get("records", [])]
    clip = {}
    for method in ("carms-i", "carms-g"):
        vals = [r["clip_fraction"] for r in records if r["method"] == method]
        clip[method] = statistics.fmean(vals) if vals else 0.0
    traced_compute = sum(r["end"] - r["setup"] for r in traced)
    write = agg.get("cli.write", empty)
    return {
        "copula.sample.us_per_row": (per_unit("copula.sample", 1e6), "us"),
        "copula.sample.rows": (agg.get("copula.sample", empty)[3] / n_traced, "count"),
        "sampling.categorize.inverse_cdf.us_per_draw_dim":
            (per_unit("sampling.categorize.inverse_cdf", 1e6, own=True), "us"),
        "sampling.categorize.gumbel.us_per_draw_dim":
            (per_unit("sampling.categorize.gumbel", 1e6, own=True), "us"),
        "sampling.categorize.groups":
            (counts.get("sampling.categorize.groups", 0) / n_traced, "count"),
        "sampling.pair_law.ms_per_build": (per_call("sampling.pair_law", 1e3), "ms"),
        "sampling.pair_law.builds": (count("sampling.pair_law"), "count"),
        "sampling.pair_law.share":
            (agg.get("sampling.pair_law", empty)[1] / traced_compute if traced_compute else 0.0,
             "frac"),
        "sampling.cdf.calls": (counts.get("sampling.cdf.calls", 0) / n_traced, "count"),
        **{f"sampling.pair_law.c{c}.ms_per_build": (scaling.get(str(c), 0.0), "ms")
           for c in PAIR_LAW_SIZES},
        "sampling.single_draw.inverse_cdf.us_per_call":
            (per_call("sampling.single_draw.inverse_cdf", 1e6), "us"),
        "sampling.single_draw.gumbel.us_per_call":
            (per_call("sampling.single_draw.gumbel", 1e6), "us"),
        "estimators.carms.us_per_call": (per_call("estimators.carms", 1e6), "us"),
        "sampling.clip.frac": (sum(r[3] for r in single) / draws if draws else 0.0, "frac"),
        **{f"experiments.estimate.{meth}.self_us_per_draw_dim":
           (per_unit(f"experiments.estimate.{meth}", 1e6, own=True), "us")
           for meth in TOY_METHODS},
        "experiments.carms_core.us_per_draw_dim": (per_unit("experiments.carms_core", 1e6), "us"),
        "experiments.empirical_joint.us_per_draw_dim":
            (per_unit("experiments.empirical_joint", 1e6), "us"),
        "experiments.iid.us_per_draw_dim": (per_unit("experiments.iid", 1e6), "us"),
        "experiments.ratios.self_ms_per_build":
            (per_call("experiments.ratios", 1e3, own=True), "ms"),
        "experiments.record.self_ms": (per_call("experiments.record", 1e3, own=True), "ms"),
        "experiments.clip_fraction.carms-i": (clip["carms-i"], "frac"),
        "experiments.clip_fraction.carms-g": (clip["carms-g"], "frac"),
        "oracle.values_at.us_per_draw": (per_unit("oracle.values_at", 1e6), "us"),
        "oracle.table_build.ms": (per_call("oracle.table_build", 1e3), "ms"),
        "cli.write.ms": (per_call("cli.write", 1e3), "ms"),
        "cli.write.bytes": (write[3] / write[0] if write[0] else 0.0, "bytes"),
        "cli.import_ms": (imports.get("carms.cli", 0.0), "ms"),
        "selfcheck.import_ms": (imports.get("carms.selfcheck", 0.0), "ms"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / untraced_wall if untraced_wall else 0.0, "frac"),
        "trace.missing": (len(missing), "count"),
    }


def run_traced(spec, seed, seconds, out_dir, report, deadline):
    """Untraced and traced invocations of one job in pairs, then the probes.

    Every pair runs the same job seed, so counts repeat exactly between
    pairs and between runs with one --seed.
    """
    job_seed = random.Random(seed).randrange(2**31)
    pairs = []
    begin = time.monotonic()
    while True:
        i = len(pairs)
        pair = {}
        for trace in ((False, True) if i % 2 == 0 else (True, False)):  # alternate the order
            tag = f"{'traced' if trace else 'plain'}{i}"
            pair[trace] = run_worker(make_job(spec, job_seed, out_dir, tag), out_dir, tag,
                                     deadline, trace)
        plain, traced = pair[False], pair[True]
        pairs.append((plain, traced))
        now = time.monotonic()
        if now - begin + plain["wall"] + traced["wall"] > seconds or now >= deadline:
            break
    scaling = run_worker({"kind": "scaling", "sizes": list(PAIR_LAW_SIZES), "samples": 4},
                         out_dir, "scaling", deadline)
    imports = import_times(deadline)

    per = expected_ops(spec)
    attempted = 2 * per * len(pairs) + 1
    failed = sum(check(r, spec) for pair in pairs for r in pair) + (scaling["rc"] != 0)
    for plain, traced in pairs:
        if not same_bytes(plain, traced):
            report.append("check: traced and untraced outputs differ")
            failed += per - check(traced, spec)

    good = [(p, t) for p, t in pairs if p["rc"] == 0 and t["rc"] == 0]
    overhead = statistics.median(t["wall"] - p["wall"] for p, t in good) if good else 0.0
    untraced_wall = statistics.median(p["wall"] for p, _ in good) if good else 0.0
    traced = [t for _, t in good]
    missing = sorted({name for t in traced for name in t.get("missing", [])})
    metrics = layer_metrics(traced, scaling.get("scaling", {}), imports, overhead,
                            untraced_wall, missing)
    report.append(f"traced {len(pairs)} pair(s); tracing overhead {overhead:.4f} s "
                  f"(traced minus untraced wall) on {untraced_wall:.4f} s untraced wall")
    report.append("missing traced names: " + (", ".join(missing) if missing else "none"))
    report.append(f"ops_failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    return metrics, attempted, failed


def run(workload, seed, seconds, trace, spec=None):
    """Run one workload; return (metrics {name: (value, unit)}, attempted, failed, report)."""
    spec = dict(spec or WORKLOADS[workload])
    report = []
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{os.getpid()}-{time.time_ns()}")
    os.makedirs(out_dir)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        runner = run_traced if trace else run_untraced
        metrics, attempted, failed = runner(spec, seed, seconds, out_dir, report, deadline)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass
    return metrics, attempted, failed, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "carms", "__init__.py")):
        print(f"error: no carms sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    metrics, attempted, failed, report = run(args.workload, args.seed, args.seconds, args.trace)
    print("machine: " + json.dumps(machine_info()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in report:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
