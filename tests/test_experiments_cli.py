"""Tests for the experiment drivers and the command-line interface.

CLI behavior is pinned hard: column order, float formatting, schema-valid
JSON lines, byte-identical reruns, and the exit-code contract.
"""

import csv
import dataclasses
import importlib.util
import json
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from carms import experiments
from carms.cli import _config, build_parser, main
from carms.copula import DIRICHLET, CopulaKind
from carms.estimators import carms_pair_sum, loorf
from carms.experiments import (
    CorrelationConfig,
    ToyConfig,
    UnsupportedPathError,
    _analytic_ratio_matrix,
    _carms_estimates,
    _empirical_joint_batch,
    _iid_categories,
    _indicator_correlation,
    make_gradient_estimator,
    run_correlation,
    run_toy,
    toy_objective,
)
from carms.oracle import TabulatedObjective, exact_gradient, mc_estimator_moments
from carms.sampling import (
    _inverse_cdf_categories_batch,
    bivariate_pmf_averaged,
    sample_antithetic_gumbel,
    sample_antithetic_inverse_cdf,
)


def _load_schema(name):
    with resources.files("carms.schemas").joinpath(name).open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# toy objective and estimator factory


def test_toy_objective_frozen_values():
    f = toy_objective(3, 2)
    vals = f.values_at(np.array([[1, 0], [0, 0], [2, 2]]))
    # (1+1)*1 + (0+1)*2, then the corners
    assert vals.dtype == float and np.array_equal(vals, [4.0, 3.0, 9.0])
    assert (f.n_categories, f.dims) == (3, 2)


def test_toy_objective_matches_its_table():
    for c, d in ((2, 1), (3, 2), (4, 3)):
        table = TabulatedObjective.from_function(
            lambda a: float(((np.asarray(a) + 1) * np.arange(1, d + 1)).sum()), c, d
        )
        grids = np.stack(np.meshgrid(*[np.arange(c)] * d, indexing="ij"), axis=-1)
        assert np.array_equal(toy_objective(c, d).values_at(grids), table.table)


def test_make_gradient_estimator_validation():
    f = toy_objective(3, 1)
    p = np.full((1, 3), 1 / 3)
    with pytest.raises(ValueError):
        make_gradient_estimator("bogus", p, 4, f)
    with pytest.raises(ValueError):
        make_gradient_estimator("loorf", p, 1, f)
    with pytest.raises(ValueError):
        make_gradient_estimator("loorf", np.full((2, 3), 1 / 3), 4, f)


def test_estimator_factory_unbiased_methods_hit_the_gradient():
    p = np.array([[0.5, 0.3, 0.2]])
    f = toy_objective(3, 1)
    grad = exact_gradient(f, np.log(p))
    for method in ("carms-i", "carms-g", "loorf", "reinforce"):
        est = make_gradient_estimator(method, p, 4, f)
        moments = mc_estimator_moments(est, 4000, np.random.default_rng(0))
        dev = np.abs(moments.mean - grad) / np.maximum(moments.stderr, 1e-12)
        assert np.max(dev) <= 4.0, method


def test_estimator_factory_output_contract():
    p = np.array([[0.4, 0.6], [0.2, 0.8]])
    f = toy_objective(2, 2)
    for method in ("carms-i", "carms-g", "loorf", "reinforce"):
        est = make_gradient_estimator(method, p, 3, f)
        g, flags = est(np.random.default_rng(1), 7)
        assert g.shape == (7, 2, 2)
        assert np.all(np.isfinite(g))
        if flags is not None:
            assert flags.shape == (7,) and flags.dtype == bool


def test_estimator_factory_paper_configuration_is_unbiased():
    # the paper's toy setting, C = D = 10 and N = 4, against the closed-form
    # gradient of f(z) = sum_d w_d v_{z_d}: w_d p_dc (v_c - sum_k p_dk v_k)
    # with w_d = d + 1 and v_c = c + 1
    c = d = 10
    p = np.random.default_rng(np.random.SeedSequence([10, 10, 4])).dirichlet(
        np.ones(c), size=d
    )
    w = np.arange(1.0, d + 1.0)[:, None]
    v = np.arange(1.0, c + 1.0)
    grad = w * p * (v - p @ v[:, None])
    f = toy_objective(c, d)
    for method in ("carms-i", "carms-g"):
        start = time.perf_counter()
        est = make_gradient_estimator(method, p, 4, f)
        moments = mc_estimator_moments(est, 20_000, np.random.default_rng(12))
        elapsed = time.perf_counter() - start
        dev = np.abs(moments.mean - grad) / np.maximum(moments.stderr, 1e-12)
        assert np.max(dev) <= 4.0, (method, float(np.max(dev)))
        assert moments.clip_fraction == 0.0, method
        assert elapsed < 30.0, (method, elapsed)


def test_estimator_factory_inactive_dimension_is_zero_in_expectation():
    # f reads only dimension 0, so dimension 1 rows average to zero
    c = 3
    p = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
    f = TabulatedObjective(np.repeat(np.array([0.5, -1.0, 2.0])[:, None], c, axis=1))
    for method in ("carms-i", "carms-g", "loorf"):
        est = make_gradient_estimator(method, p, 4, f)
        moments = mc_estimator_moments(est, 4000, np.random.default_rng(11))
        assert np.max(np.abs(moments.mean[1]) / moments.stderr[1]) <= 4.0, method


def test_carms_core_matches_the_pair_sum_oracle():
    # the scatter-added batch core (which estimators.carms runs at k = 1)
    # against the explicit pair sum draw by draw, with categories absent from
    # most draws and one that never occurs
    rng = np.random.default_rng(30)
    for n in (2, 3, 5):
        p = np.array([0.3, 0.0, 0.05, 0.25, 0.15, 0.25])
        ratios, _ = _analytic_ratio_matrix(p, bivariate_pmf_averaged(p, n), 10.0)
        cats = _inverse_cdf_categories_batch(200, n, p, rng)
        f = rng.normal(size=(200, n)) * 5.0
        g = _carms_estimates(f, cats, ratios, p)
        ref = [carms_pair_sum(f[i], np.eye(p.size)[cats[i]], ratios) for i in range(200)]
        assert np.max(np.abs(g - np.array(ref))) <= 1e-12, n


def test_score_estimators_match_their_single_draw_forms():
    # loorf and reinforce from the factory against estimators.loorf and
    # f/N (z - p), on the categories the factory draws from the same stream
    p = np.array([[0.5, 0.0, 0.3, 0.2], [0.1, 0.2, 0.3, 0.4]])
    objective = toy_objective(4, 2)
    k = 100
    for n in (2, 3, 5):
        for method in ("loorf", "reinforce"):
            g, _ = make_gradient_estimator(method, p, n, objective)(
                np.random.default_rng(n), k
            )
            rng = np.random.default_rng(n)
            cats = np.stack([_iid_categories(k, n, row, rng) for row in p], axis=-1)
            f = objective.values_at(cats)
            for i in range(k):
                for d in range(2):
                    z = np.eye(4)[cats[i, :, d]]
                    if method == "loorf":
                        ref = loorf(f[i], z, p[d])
                    else:
                        ref = f[i] @ (z - p[d]) / n
                    assert np.max(np.abs(g[i, d] - ref)) <= 1e-12, (n, method)


def test_clip_flags_match_the_one_hot_formula():
    # a 1e-3 category and a ceiling of 1 make clipping engage on some draws
    p = np.array([[0.001, 0.3, 0.299, 0.4], [0.25, 0.25, 0.25, 0.25]])
    objective = toy_objective(4, 2)
    n, k = 3, 2000
    _, flags = make_gradient_estimator("carms-i", p, n, objective, clip=1.0)(
        np.random.default_rng(31), k
    )
    rng = np.random.default_rng(31)
    cats = np.stack([_inverse_cdf_categories_batch(k, n, row, rng) for row in p], axis=-1)
    ref = np.zeros(k, dtype=bool)
    for d, row in enumerate(p):
        _, exceed = _analytic_ratio_matrix(row, bivariate_pmf_averaged(row, n), 1.0)
        present = np.eye(4)[cats[:, :, d]].sum(axis=1) > 0
        ref |= np.einsum("ij,ki,kj->k", exceed, present, present) > 0
    assert 0 < ref.sum() < k
    assert np.array_equal(flags, ref)


def test_empirical_joint_batch_frozen_binary_example():
    joint = _empirical_joint_batch(np.array([[1.0, 1.0]]), 2)
    assert np.array_equal(joint, [[[0.0, 0.5], [0.5, 0.0]]])


def test_empirical_joint_batch_properties_every_draw():
    rng = np.random.default_rng(13)
    for _ in range(50):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        counts = np.eye(c)[rng.integers(0, c, size=(4, n))].sum(axis=1)
        joint = _empirical_joint_batch(counts, n)
        assert np.all(joint >= 0.0)
        assert np.max(np.abs(joint.sum(axis=(1, 2)) - 1.0)) <= 1e-12
        assert np.array_equal(joint, joint.transpose(0, 2, 1))


@pytest.mark.parametrize("clip", [0.0, -1.0, float("nan")])
def test_bad_clip_is_rejected_on_both_carms_paths(clip, monkeypatch):
    # a ceiling at or below 0 would zero or sign-flip every ratio; the
    # factory rejects it before it builds any pair law
    def no_build(*args, **kwargs):
        raise AssertionError("a pair law was built before the clip check")

    monkeypatch.setattr(experiments, "bivariate_pmf_averaged", no_build)
    monkeypatch.setattr(experiments, "gumbel_pair_pmf", no_build)
    p = np.array([[0.5, 0.3, 0.2]])
    for method in ("carms-i", "carms-g"):
        with pytest.raises(ValueError, match="clip"):
            make_gradient_estimator(method, p, 3, toy_objective(3, 1), clip=clip)
    for sample in (sample_antithetic_inverse_cdf, sample_antithetic_gumbel):
        with pytest.raises(ValueError, match="clip"):
            sample(3, p[0], np.random.default_rng(0), clip=clip)


def test_estimator_factory_gaussian_inverse_cdf_unsupported():
    p = np.array([[0.5, 0.5]])
    f = toy_objective(2, 1)
    with pytest.raises(UnsupportedPathError):
        make_gradient_estimator(
            "carms-i", p, 3, f, copula=CopulaKind("gaussian", None)
        )


# ---------------------------------------------------------------------------
# run_toy


def _tiny_toy_config(**overrides):
    base = dict(
        methods=("carms-i", "loorf"),
        alphas=(1.0, 10.0),
        categories=3,
        dims=2,
        samples=3,
        trials=2,
        inner=64,
        seed=7,
    )
    base.update(overrides)
    return ToyConfig(**base)


def test_run_toy_record_grid_and_paired_probs():
    records = list(run_toy(_tiny_toy_config()))
    assert len(records) == 2 * 2 * 2  # alphas x trials x methods
    by_cell = {}
    for rec in records:
        key = (rec["alpha"], rec["trial"])
        by_cell.setdefault(key, []).append(rec)
    for cell in by_cell.values():
        assert len(cell) == 2
        # every method sees the identical probability draw
        assert np.array_equal(cell[0]["probs"], cell[1]["probs"])
        assert {r["method"] for r in cell} == {"carms-i", "loorf"}


def test_run_toy_variance_bookkeeping():
    for rec in run_toy(_tiny_toy_config(alphas=(1.0,), trials=1)):
        assert rec["var"].shape == (2, 3)
        assert rec["var_sum"] == pytest.approx(float(rec["var"].sum()), rel=1e-15)
        assert rec["log_var_sum"] == pytest.approx(np.log(rec["var_sum"]), rel=1e-12)
        assert rec["log_var_mean"] == pytest.approx(
            np.log(rec["var_sum"] / rec["var"].size), rel=1e-12
        )
        assert 0.0 <= rec["clip_fraction"] <= 1.0


def test_run_toy_deterministic():
    a = list(run_toy(_tiny_toy_config()))
    b = list(run_toy(_tiny_toy_config()))
    for ra, rb in zip(a, b):
        assert np.array_equal(ra["probs"], rb["probs"])
        assert np.array_equal(ra["var"], rb["var"])
        assert ra["var_sum"] == rb["var_sum"]


def test_toy_config_validation():
    with pytest.raises(ValueError):
        _tiny_toy_config(methods=("nope",))
    with pytest.raises(ValueError):
        _tiny_toy_config(alphas=(0.0,))
    with pytest.raises(ValueError):
        _tiny_toy_config(samples=1)
    with pytest.raises(ValueError):
        _tiny_toy_config(inner=1)
    with pytest.raises(ValueError):
        _tiny_toy_config(seed=-1)


# ---------------------------------------------------------------------------
# run_correlation


def test_correlation_binary_antithetic_is_perfectly_negative():
    rec = run_correlation(
        CorrelationConfig(method="inverse-cdf", categories=2, draws=1000, seed=0)
    )
    corr = rec["corr"]
    assert corr.shape == (2, 2)
    assert np.all(np.diag(corr) <= -0.999)
    assert np.all(corr[~np.eye(2, dtype=bool)] >= 0.999)


def test_correlation_independent_near_zero():
    rec = run_correlation(
        CorrelationConfig(method="independent", categories=3, draws=4000, seed=1)
    )
    assert np.max(np.abs(rec["corr"])) <= 0.1


def test_correlation_inverse_cdf_diagonal_negative():
    # C = 4 pairs have diagonal correlation -1/3; at C = 3 a pair's diagonal
    # correlation is exactly zero (mirror artifact), so three samples are
    # needed before every diagonal goes negative
    rec = run_correlation(
        CorrelationConfig(method="inverse-cdf", categories=4, draws=10_000, seed=2)
    )
    assert np.all(np.diag(rec["corr"]) < -0.25)
    rec = run_correlation(
        CorrelationConfig(
            method="inverse-cdf", categories=3, samples=3, draws=10_000, seed=2
        )
    )
    assert np.all(np.diag(rec["corr"]) < 0.0)


def test_correlation_gumbel_gaussian_path():
    rec = run_correlation(
        CorrelationConfig(
            method="gumbel",
            copula=CopulaKind("gaussian", None),
            categories=3,
            draws=4000,
            seed=3,
        )
    )
    assert np.all(np.diag(rec["corr"]) < 0.0)


def test_correlation_gaussian_inverse_cdf_unsupported():
    with pytest.raises(UnsupportedPathError):
        run_correlation(
            CorrelationConfig(
                method="inverse-cdf", copula=CopulaKind("gaussian", None)
            )
        )


def test_correlation_config_validation():
    with pytest.raises(ValueError):
        CorrelationConfig(method="nope")
    with pytest.raises(ValueError):
        CorrelationConfig(draws=10)
    with pytest.raises(ValueError):
        CorrelationConfig(samples=1)


def test_indicator_correlation_constant_column_is_nan():
    # category 2 never occurs, so its indicators are constant
    a = np.tile([0, 1], 25)
    corr = _indicator_correlation(a, a, 3)
    assert np.all(np.isnan(corr[2])) and np.all(np.isnan(corr[:, 2]))
    assert np.array_equal(corr[:2, :2], [[1.0, -1.0], [-1.0, 1.0]])


def test_indicator_correlation_matches_corrcoef_of_one_hot_indicators():
    rng = np.random.default_rng(32)
    for c, k in ((3, 100), (5, 400), (12, 300)):
        a = rng.integers(0, c - 1, size=k)  # the last category stays absent
        b = rng.integers(0, c, size=k)
        corr = _indicator_correlation(a, b, c)
        eye = np.eye(c)
        with np.errstate(divide="ignore", invalid="ignore"):
            full = np.corrcoef(eye[a].T, eye[b].T)[:c, c:]
        assert np.array_equal(np.isnan(corr), np.isnan(full))
        assert np.nanmax(np.abs(corr - full)) <= 1e-12


# ---------------------------------------------------------------------------
# CLI (in-process)

TOY_HEADER = [
    "method", "copula", "categories", "dims", "samples", "alpha", "trials",
    "trial", "inner", "seed", "clip", "probs", "var",
    "var_sum", "log_var_sum", "log_var_mean", "clip_fraction",
]

TOY_ARGS = [
    "toy", "--method", "carms-i,loorf", "--categories", "3", "--dims", "2",
    "--samples", "3", "--alpha", "1.0", "--trials", "2", "--inner", "64",
    "--seed", "7",
]


def test_cli_toy_csv_contract(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert main(TOY_ARGS + ["--out-path", str(out)]) == 0
    assert "toy:" in capsys.readouterr().err  # timing goes to stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TOY_HEADER
    assert len(rows) == 1 + 2 * 2
    by_col = dict(zip(TOY_HEADER, rows[1]))
    assert by_col["method"] in ("carms-i", "loorf")
    assert by_col["categories"] == "3"
    # probs round-trip through %.17g bit-exactly
    probs = np.array([float(v) for v in by_col["probs"].split(";")]).reshape(2, 3)
    records = list(run_toy(_tiny_toy_config(alphas=(1.0,))))
    assert np.array_equal(probs, records[0]["probs"])


def test_cli_toy_jsonl_validates_against_schema(tmp_path):
    out = tmp_path / "toy.jsonl"
    assert main(TOY_ARGS + ["--output", "jsonl", "--out-path", str(out)]) == 0
    schema = _load_schema("toy.schema.json")
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        jsonschema.validate(json.loads(line), schema)


def test_cli_toy_runs_the_paper_configuration_by_default(tmp_path):
    # no size flags: C = D = 10, N = 4, every method and the four alphas
    out = tmp_path / "toy.jsonl"
    args = ["toy", "--trials", "1", "--inner", "200", "--output", "jsonl"]
    assert main(args + ["--out-path", str(out)]) == 0
    schema = _load_schema("toy.schema.json")
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4 * 4  # methods x alphas
    for line in lines:
        obj = json.loads(line)
        jsonschema.validate(obj, schema)
        assert (obj["categories"], obj["dims"], obj["samples"]) == (10, 10, 4)


def test_cli_correlation_csv_and_jsonl(tmp_path):
    args = ["correlation", "--categories", "2", "--trials", "500", "--seed", "1"]
    out_csv = tmp_path / "corr.csv"
    out_jsonl = tmp_path / "corr.jsonl"
    assert main(args + ["--out-path", str(out_csv)]) == 0
    assert main(args + ["--output", "jsonl", "--out-path", str(out_jsonl)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "copula", "categories", "samples", "draws", "seed", "corr"]
    assert len(rows) == 2
    schema = _load_schema("correlation.schema.json")
    jsonschema.validate(json.loads(out_jsonl.read_text()), schema)


def test_cli_selfcheck_exit_zero_and_schema(tmp_path, capsys):
    out = tmp_path / "check.jsonl"
    code = main(["selfcheck", "--output", "jsonl", "--out-path", str(out)])
    assert code == 0
    assert "selfcheck[fast]" in capsys.readouterr().err
    schema = _load_schema("selfcheck.schema.json")
    for line in out.read_text().strip().split("\n"):
        obj = json.loads(line)
        jsonschema.validate(obj, schema)
        assert obj["passed"] is True


def test_selfcheck_full_level_all_pass():
    from carms.selfcheck import run_selfcheck

    results = run_selfcheck(level="full", seed=0)
    assert len(results) > 6  # full adds the statistical checks
    failed = [r.name for r in results if not r.passed]
    assert failed == [], failed


def test_cli_stdout_dash(capsys):
    assert main(["selfcheck"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("check,status,detail")


def test_cli_usage_errors_exit_two(capsys):
    # config-level validation is caught and mapped to exit code 2
    assert main(["toy", "--method", "bogus", "--inner", "16"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["toy", "--rho", "-0.5", "--inner", "16"]) == 2
    capsys.readouterr()
    # argparse-level failures raise SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["toy", "--clip", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])
    capsys.readouterr()


def test_cli_nonfinite_clip_and_rho_exit_two(capsys):
    # nan passes a "<= 0" test, so both must be rejected, not run to nan output
    with pytest.raises(SystemExit) as exc:
        main(["toy", "--clip", "nan", "--inner", "16"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "carms toy: error: argument --clip: clip must be positive or 'none'"
    ]
    argv = ["correlation", "--method", "gumbel", "--copula", "gaussian", "--rho", "nan"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")


def test_cli_nonfinite_log_variance_serializes(tmp_path):
    # constant objective can produce zero variance -> log is -inf -> null in
    # jsonl, "-inf" text in csv; both must stay loadable
    out = tmp_path / "toy.jsonl"
    args = [
        "toy", "--method", "reinforce", "--categories", "2", "--dims", "1",
        "--samples", "2", "--alpha", "1000000", "--trials", "1", "--inner",
        "8", "--seed", "0", "--output", "jsonl", "--out-path", str(out),
    ]
    assert main(args) == 0
    obj = json.loads(out.read_text())
    jsonschema.validate(obj, _load_schema("toy.schema.json"))


def test_cli_defaults_are_the_config_defaults():
    parser = build_parser()
    assert _config(ToyConfig, parser.parse_args(["toy"])) == ToyConfig()
    assert _config(CorrelationConfig, parser.parse_args(["correlation"])) == CorrelationConfig()


# every flag of a subcommand, a value of it that no default holds, and the
# one config field it sets (None: no field; "copula": the copula flags)
FLAG_FIELDS = {
    "toy": {
        "--method": ("loorf", "methods"), "--alpha": ("2,3", "alphas"),
        "--categories": ("3", "categories"), "--dims": ("2", "dims"),
        "--samples": ("3", "samples"), "--trials": ("2", "trials"),
        "--inner": ("50", "inner"), "--seed": ("5", "seed"), "--clip": ("none", "clip"),
    },
    "correlation": {
        "--method": ("gumbel", "method"), "--categories": ("4", "categories"),
        "--samples": ("3", "samples"), "--trials": ("200", "draws"), "--seed": ("5", "seed"),
    },
}
OTHER_FLAGS = {
    "--copula": ("gaussian", "copula"), "--rho": ("-0.2", "copula"),
    "--output": ("jsonl", None), "--out-path": ("x.csv", None),
}


@pytest.mark.parametrize(
    "command, cls", [("toy", ToyConfig), ("correlation", CorrelationConfig)]
)
def test_each_config_field_is_set_by_exactly_one_flag(command, cls):
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    flags = {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
    table = {**FLAG_FIELDS[command], **OTHER_FLAGS}
    assert flags == set(table)
    fields = [field.name for field in dataclasses.fields(cls)]
    # every field but the copula has one flag of its own
    assert sorted(f for _, f in FLAG_FIELDS[command].values()) == sorted(set(fields) - {"copula"})
    default = cls()
    for flag, (value, field) in table.items():
        argv = [command, flag, value] + (["--copula", "gaussian"] if flag == "--rho" else [])
        config = _config(cls, parser.parse_args(argv))
        changed = [f for f in fields if getattr(config, f) != getattr(default, f)]
        assert changed == ([field] if field else []), flag


# ---------------------------------------------------------------------------
# CLI (subprocess: the installed entry point and byte determinism)


def _run_module(args):
    return subprocess.run(
        [sys.executable, "-m", "carms", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_module_entry_point_runs():
    proc = _run_module(["selfcheck"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("check,status,detail")
    assert "selfcheck[fast]" in proc.stderr


def test_module_subnormal_probability_warns_nothing():
    # alpha = 0.001 draws probabilities far below the smallest normal float;
    # the Gumbel diagonal must not turn their overflowing ratios into nan
    args = ["toy", "--alpha", "0.001", "--categories", "30", "--dims", "2",
            "--trials", "2", "--inner", "100", "--method", "carms-g"]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "carms", *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


def test_module_reruns_are_byte_identical(tmp_path):
    args = [
        "toy", "--method", "carms-i,carms-g", "--categories", "3", "--dims",
        "1", "--samples", "3", "--alpha", "1.0,10.0", "--trials", "2",
        "--inner", "64", "--seed", "11", "--output", "csv", "--out-path",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert _run_module(args + [str(out_a)]).returncode == 0
    assert _run_module(args + [str(out_b)]).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.stat().st_size > 0


# ---------------------------------------------------------------------------
# scripts and the benchmark's traced names

REPO = Path(__file__).resolve().parents[1]


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_sweep_script_writes_the_cli_toy_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sweep = _load_by_path("run_toy_sweep", REPO / "scripts" / "run_toy_sweep.py")
    size = ["--categories", "3", "--dims", "2", "--trials", "1", "--inner", "50"]
    sweep.main(size + ["--out", "sweep.csv"])
    assert main(["toy", *size, "--out-path", "toy.csv"]) == 0
    sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == (tmp_path / "toy.csv").read_text().splitlines()[0]
    assert sweep_lines[0] == ",".join(TOY_HEADER)
    assert len(sweep_lines) == 1 + 4 * 4  # methods x alphas, one trial


def test_benchmark_tracer_finds_every_traced_name():
    # the benchmark rebinds carms functions by name; a rename would leave
    # its span empty without failing the run
    spans = _load_by_path("perfbench_spans", REPO / "perfbench" / "spans.py")
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
