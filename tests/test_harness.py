import contextlib
import importlib.util
import io
import json
import math
import os.path
import subprocess
import sys

import numpy as np
import pytest

from conftest import ALL_METHODS, asset
from localex.cli import main
from localex.errors import ConfigError
from localex.explain import KernelShap, SmoothGrad, method_to_json
from localex.harness import (
    ExperimentConfig,
    build_context,
    config_from_json,
    distributions_table,
    emit,
    fmt_float,
    json_dumps,
    load_config,
    load_input,
    reseed,
    run_convergence,
    run_fidelity,
    run_stability,
)
from localex.sampling import bernoulli_p, binomial_pmf, substream_seed


def write_workspace(tmp_path, d=8, rows_cols=(2, 2), methods=None, **overrides):
    rng = np.random.default_rng(13)
    (tmp_path / "model.json").write_text(json.dumps(
        {"kind": "linear", "coefficients": (rng.normal(size=d) * 0.4).tolist(),
         "bias": 0.1}))
    (tmp_path / "input.json").write_text(json.dumps(
        {"values": rng.normal(size=d).tolist(), "shape": [2, d // 2, 1]}))
    cfg = {
        "model": "model.json",
        "input": "input.json",
        "segmentation": {"rows": rows_cols[0], "cols": rows_cols[1]},
        "reference": "mean",
        "methods": methods or [{"method": "Lime"}, {"method": "GlimeBinomial"}],
        "sigmas": [0.5, 1.0],
        "sample_sizes": [64],
        "lambdas": [1.0],
        "seeds": [0, 1, 2],
        "metrics": {"k": 2, "epsilons": [0.5], "norms": ["l2"], "m": 256},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# serialization helpers


def test_fmt_float_round_trips_doubles_exactly():
    for v in (0.1, 1.0 / 3.0, 1e-300, math.pi, 2.0**53 + 1.0):
        assert float(fmt_float(v)) == v


def test_json_dumps_controls_float_text():
    assert json_dumps({"a": 0.1}) == '{"a": 0.10000000000000001}'
    assert json_dumps([True, None, 3]) == "[true, null, 3]"


def test_emit_csv_uses_crlf_and_17_digit_floats(tmp_path):
    out = tmp_path / "t.csv"
    emit([{"a": 0.1, "b": "x", "c": None, "d": True}], "csv", str(out))
    raw = out.read_bytes()
    assert raw == b"a,b,c,d\r\n0.10000000000000001,x,,true\r\n"


def test_emit_json_is_parseable_and_exact(tmp_path):
    out = tmp_path / "t.json"
    emit([{"a": 0.1}, {"a": 2.0}], "json", str(out))
    back = json.loads(out.read_text())
    assert back == [{"a": 0.1}, {"a": 2.0}]


def test_emit_rejects_bad_tables(tmp_path):
    with pytest.raises(ValueError):
        emit([], "csv", str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        emit([{"a": 1}, {"b": 2}], "csv", str(tmp_path / "x.csv"))
    with pytest.raises(ConfigError):
        emit([{"a": 1}], "xml", str(tmp_path / "x.xml"))


# ---------------------------------------------------------------------------
# configuration


def test_load_config_resolves_paths_relative_to_the_file(tmp_path):
    path = write_workspace(tmp_path)
    config = load_config(path)
    assert config.model_path == str(tmp_path / "model.json")
    ctx = build_context(config)
    assert ctx.segmentation.d == 4
    assert ctx.x.shape == (8,)


def test_method_entries_must_not_pin_sigma(tmp_path):
    path = write_workspace(tmp_path, methods=[{"method": "Lime", "sigma": 1.0}])
    with pytest.raises(ConfigError, match="sigma"):
        load_config(path)


def test_config_rejects_empty_and_duplicate_grids():
    base = dict(model_path="m", input_path="i",
                method_entries=({"method": "Lime"},), sigmas=(1.0,),
                sample_sizes=(8,), lambdas=(1.0,), seeds=(0, 1))
    ExperimentConfig(**base)
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "sigmas": ()})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "seeds": (1, 1)})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "lambdas": (-0.5,)})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "reference_kind": "median"})


def test_unknown_method_in_config_fails_early(tmp_path):
    path = write_workspace(tmp_path, methods=[{"method": "Anchors"}])
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_input_accepts_flat_lists(tmp_path):
    p = tmp_path / "flat.json"
    p.write_text("[1.0, 2.0, 3.0]")
    x, shape = load_input(str(p))
    assert x.tolist() == [1.0, 2.0, 3.0]
    assert shape is None


def test_config_from_json_reports_missing_keys():
    with pytest.raises(ConfigError):
        config_from_json({"model": "m.json"})


def test_grid_segmentation_requires_an_image_shape(tmp_path):
    path = write_workspace(tmp_path)
    (tmp_path / "input.json").write_text("[1.0, 2.0, 3.0]")
    with pytest.raises(ConfigError, match="image shape"):
        build_context(load_config(path))


def test_reseed_replaces_seeds_with_substreams(tmp_path):
    config = load_config(write_workspace(tmp_path))
    reseeded = reseed(config, 99)
    assert reseeded.seeds == tuple(substream_seed(99, r) for r in range(3))
    assert reseeded.seeds != config.seeds


# ---------------------------------------------------------------------------
# sweep runners


def test_run_stability_emits_one_row_per_grid_cell(tmp_path):
    config = load_config(write_workspace(tmp_path))
    rows = run_stability(config)
    assert len(rows) == 4  # 2 methods x 2 sigmas x 1 lambda x 1 n
    assert list(rows[0].keys()) == ["method", "sigma", "lambda", "n",
                                    "mean_jaccard", "std", "error"]
    for row in rows:
        assert row["error"] == ""
        assert 0.0 <= row["mean_jaccard"] <= 1.0


def test_run_stability_parallel_matches_serial(tmp_path):
    config = load_config(write_workspace(tmp_path))
    assert run_stability(config, jobs=4) == run_stability(config, jobs=1)


def test_run_stability_records_cell_failures_and_continues(tmp_path):
    rng = np.random.default_rng(0)
    d = 25  # exact enumeration refuses d > 20
    (tmp_path / "model.json").write_text(json.dumps(
        {"kind": "linear", "coefficients": rng.normal(size=d).tolist()}))
    (tmp_path / "input.json").write_text(json.dumps(rng.normal(size=d).tolist()))
    cfg = {
        "model": "model.json", "input": "input.json",
        "methods": [{"method": "KernelShap"}, {"method": "GlimeGauss"}],
        "sigmas": [1.0], "sample_sizes": [32], "lambdas": [0.0],
        "seeds": [0, 1],
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    rows = run_stability(load_config(str(tmp_path / "config.json")))
    by_method = {r["method"]: r for r in rows}
    assert "DimensionTooLarge" in by_method["KernelShap"]["error"]
    assert by_method["KernelShap"]["mean_jaccard"] is None
    assert by_method["GlimeGauss"]["error"] == ""


def test_run_stability_needs_two_seeds(tmp_path):
    config = load_config(write_workspace(tmp_path, seeds=[0]))
    with pytest.raises(ConfigError):
        run_stability(config)


def test_run_convergence_attaches_a_monotone_flag_per_group(tmp_path):
    path = write_workspace(tmp_path, sigmas=[1.0], sample_sizes=[64, 512, 4096])
    rows = run_convergence(load_config(path))
    assert len(rows) == 3
    assert len({r["mse_monotone"] for r in rows}) == 1  # one shared flag
    assert all(r["error"] == "" for r in rows)
    assert all(isinstance(r["mse"], float) for r in rows)


def test_run_fidelity_reports_mean_and_std_over_seeds(tmp_path):
    path = write_workspace(tmp_path, sigmas=[0.5])
    rows = run_fidelity(load_config(path))
    assert len(rows) == 2  # 2 methods x 1 sigma x 1 epsilon x 1 norm
    for row in rows:
        assert row["error"] == ""
        assert 0.0 < row["fidelity_mean"] <= 1.0
        assert row["fidelity_std"] >= 0.0


def test_sweeps_are_deterministic_end_to_end(tmp_path):
    config = load_config(write_workspace(tmp_path))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit(run_stability(config, jobs=2), "csv", str(a))
    emit(run_stability(config, jobs=3), "csv", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# distributions dump


def test_distributions_table_matches_the_closed_forms():
    rows = distributions_table(4, (0.5,))
    assert len(rows) == 5
    k2 = rows[2]
    assert k2["bernoulli_p"] == bernoulli_p(0.5)
    assert k2["count_pmf"] == binomial_pmf(4, 0.5, 2)
    assert k2["exp_kernel_weight"] == pytest.approx(math.exp((2 - 4) / 0.25))
    assert k2["shap_kernel_weight"] == pytest.approx(3 / (6 * 2 * 2))
    assert rows[0]["shap_kernel_weight"] is None
    assert rows[4]["shap_kernel_weight"] is None


def test_distributions_table_validates_arguments():
    with pytest.raises(ConfigError):
        distributions_table(0, (1.0,))
    with pytest.raises(ConfigError):
        distributions_table(4, ())
    with pytest.raises(ConfigError):
        distributions_table(4, (1.0,), ks=(5,))


# ---------------------------------------------------------------------------
# command-line interface


def cli(*args):
    """Run the command line in-process, captured like a finished subprocess."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_module(*args):
    """Run `python -m localex` in a child process, for the real exit status."""
    return subprocess.run([sys.executable, "-m", "localex", *args],
                          capture_output=True, text=True)


def test_cli_explain_emits_the_documented_json_shape(tmp_path):
    write_workspace(tmp_path)
    cfg = {"model": "model.json", "input": "input.json",
           "segmentation": {"rows": 2, "cols": 2}, "reference": "mean",
           "method": {"method": "Lime", "sigma": 0.5}, "n": 64, "seed": 3}
    (tmp_path / "explain.json").write_text(json.dumps(cfg))
    proc = cli("explain", "--config", str(tmp_path / "explain.json"))
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert set(obj) >= {"method", "sigma", "lambda", "n", "seed", "d", "w",
                        "intercept", "r2"}
    assert obj["method"] == "Lime" and obj["d"] == 4 and obj["seed"] == 3
    assert len(obj["w"]) == 4


def test_cli_explain_seed_flag_overrides_the_config(tmp_path):
    write_workspace(tmp_path)
    cfg = {"model": "model.json", "input": "input.json",
           "segmentation": {"rows": 2, "cols": 2},
           "method": {"method": "GlimeBinomial", "sigma": 1.0}, "n": 64}
    (tmp_path / "explain.json").write_text(json.dumps(cfg))
    a = cli("explain", "--config", str(tmp_path / "explain.json"))
    b = cli("explain", "--config", str(tmp_path / "explain.json"), "--seed", "7")
    assert json.loads(a.stdout)["seed"] == 0
    assert json.loads(b.stdout)["seed"] == 7
    assert a.stdout != b.stdout


def test_cli_stability_writes_identical_bytes_across_runs(tmp_path):
    path = write_workspace(tmp_path)
    for name in ("a.csv", "b.csv"):
        proc = cli("stability", "--config", path, "--out", str(tmp_path / name),
                   "--jobs", "2")
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    header = (tmp_path / "a.csv").read_bytes().split(b"\r\n")[0]
    assert header == b"method,sigma,lambda,n,mean_jaccard,std,error"


def test_cli_format_flag_switches_to_json(tmp_path):
    path = write_workspace(tmp_path)
    proc = cli("converge", "--config", path, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert isinstance(rows, list) and "mse_monotone" in rows[0]


def test_cli_distributions_dumps_the_table():
    proc = cli("distributions", "--dim", "3", "--sigmas", "0.5,1.0",
               "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert len(rows) == 8
    assert rows[0]["sigma"] == 0.5 and rows[0]["k"] == 0


def test_cli_config_errors_exit_one(tmp_path):
    assert cli("stability", "--config", str(tmp_path / "missing.json")).returncode == 1
    assert cli("explain").returncode == 1  # --config is required
    assert cli("distributions").returncode == 1  # needs --dim/--sigmas
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli("stability", "--config", str(bad)).returncode == 1


def test_cli_runtime_failures_exit_two(tmp_path):
    path = write_workspace(tmp_path)
    proc = run_module("stability", "--config", path, "--out",
                      str(tmp_path / "no_dir" / "x.csv"))
    assert proc.returncode == 2
    assert "cannot write" in proc.stderr


def test_cli_master_seed_changes_sweep_outputs(tmp_path):
    path = write_workspace(tmp_path)
    a = cli("stability", "--config", path)
    b = cli("stability", "--config", path, "--seed", "5")
    c = cli("stability", "--config", path, "--seed", "5")
    assert a.stdout != b.stdout
    assert b.stdout == c.stdout


def test_cli_runs_the_bundled_sample_configs():
    proc = cli("distributions", "--config", asset("distributions.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sigma,k,")


def explain_config(tmp_path, coefficients, sigma, method="Lime", x=(1.0, 2.0, 3.0)):
    (tmp_path / "model.json").write_text(json.dumps(
        {"kind": "linear", "coefficients": coefficients}))
    (tmp_path / "input.json").write_text(json.dumps(list(x)))
    path = tmp_path / "explain.json"
    path.write_text(json.dumps({"model": "model.json", "input": "input.json",
                                "method": {"method": method, "sigma": sigma},
                                "n": 64}))
    return str(path)


@pytest.mark.parametrize("make_args, code", [
    # model outputs overflow to inf
    (lambda tmp: ["explain", "--config", explain_config(tmp, [1e308] * 3, 1.0)], 2),
    # every kernel weight with k <= 1 of d = 3 underflows to zero
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, -0.2, 0.5], 0.05)], 2),
    # finite model outputs too large for the ridge solve and the SmoothGrad sum
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [1e307] * 3, 1.0, method="GlimeGauss")], 2),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [1e307] * 3, 1.0, method="SmoothGrad")], 2),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, x=(1.0, math.nan, 3.0))], 1),
    (lambda tmp: ["distributions", "--dim", "3", "--sigmas", "0"], 1),
    (lambda tmp: ["distributions", "--dim", "3", "--sigmas=-1"], 1),
    (lambda tmp: ["distributions", "--dim", "3", "--sigmas", "nan"], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp), "--jobs", "0"], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp), "--jobs=-3"], 1),
], ids=["nonfinite-output", "zero-weights", "ridge-overflow", "smoothgrad-overflow",
        "nan-input", "sigma-zero", "sigma-negative",
        "sigma-nan", "jobs-zero", "jobs-negative"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second line
def test_cli_reports_bad_values_in_one_error_line(tmp_path, capsys, make_args, code):
    assert main(make_args(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def load_tracing():
    """The benchmark's span tracer, loaded from its file in perfbench/."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("method", ALL_METHODS, ids=repr)
def test_explain_runs_each_pipeline_layer_once(tmp_path, method):
    cfg = tmp_path / "explain.json"
    cfg.write_text(json.dumps({"model": asset("quadratic_10.json"),
                               "input": asset("input_10.json"),
                               "method": method_to_json(method), "n": 64}))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        proc = cli("explain", "--config", str(cfg))
    finally:
        tracer.uninstall()
    assert proc.returncode == 0, proc.stderr
    assert tracer.patches.missing == []
    calls = {k[:-len(".calls")]: v for k, v in tracer.pass_summary().items()
             if k.endswith(".calls")}
    if isinstance(method, SmoothGrad):  # an estimator, not a ridge surrogate
        ridge_layers = ("sampling.batch_weights", "feature_space.lift", "solver.solve")
        assert [calls[layer] for layer in ridge_layers] == [0, 0, 0]
    else:
        assert calls["sampling.batch_weights"] == calls["feature_space.lift"] == 1
        assert calls["models.evaluate"] == calls["solver.solve"] == 1
    if method == KernelShap(exact=True):  # enumerates its coalitions
        assert calls["sampling.draw"] == 0
    else:
        assert calls["sampling.draw"] >= 1
