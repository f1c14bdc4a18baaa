import contextlib
import importlib.util
import io
import json
import math
import os.path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import ALL_METHODS, asset
from oracles import convergence_rows_direct, fidelity_rows_direct, stability_rows_direct
from localex import harness, metrics
from localex.cli import main
from localex.errors import MAX_VALUES, ConfigError, IoFailure, NonFiniteOutput, write_text
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
from localex.models import BLOCK_ROWS
from localex.sampling import bernoulli_p, binomial_pmf, substream_seed

explain_module = importlib.import_module("localex.explain")  # the package exports the function


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


@pytest.mark.parametrize("counts", [
    lambda rows: {"sample_sizes": [8, rows]},
    lambda rows: {"metrics": {"m": rows}},
], ids=["sample-size", "m"])
def test_build_context_bounds_rows_by_the_value_limit(tmp_path, counts):
    rows = MAX_VALUES // 8  # the workspace input has D = 8
    build_context(load_config(write_workspace(tmp_path, **counts(rows))))
    with pytest.raises(ConfigError, match="at most"):
        build_context(load_config(write_workspace(tmp_path, **counts(rows + 1))))


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


def test_run_fidelity_explains_each_method_sigma_and_seed_once(tmp_path, monkeypatch):
    order = []
    monkeypatch.setattr(harness, "explain", lambda req, samples, real=harness.explain:
                        order.append((req.method.label, req.method.sigma, req.seed))
                        or real(req, samples))
    path = write_workspace(tmp_path, metrics={"epsilons": [0.25, 0.5], "m": 64})
    rows = run_fidelity(load_config(path))
    assert len(rows) == 8  # 2 methods x 2 sigmas x 2 epsilons x 1 norm
    assert all(row["error"] == "" for row in rows)
    # each (method, sigma) explains each seed once; Lime's two sigmas draw the
    # same fair coins per seed, so they run one after the other
    assert order == [("Lime", sigma, s) for s in (0, 1, 2) for sigma in (0.5, 1.0)] + [
        ("GlimeBinomial", sigma, s) for sigma in (0.5, 1.0) for s in (0, 1, 2)]


@pytest.mark.parametrize("run", [run_stability, run_fidelity])
def test_a_method_whose_seed_draws_nothing_is_explained_once_per_cell(tmp_path, monkeypatch,
                                                                      run):
    seeds = {True: [], False: []}
    monkeypatch.setattr(harness, "explain", lambda req, samples, real=harness.explain:
                        seeds[req.method.exact].append(req.seed) or real(req, samples))
    path = write_workspace(tmp_path, methods=[{"method": "KernelShap", "exact": True},
                                              {"method": "KernelShap", "exact": False}],
                           sigmas=[1.0], metrics={"m": 64})
    rows = run(load_config(path))
    assert len(rows) == 2 and all(row["error"] == "" for row in rows)
    assert seeds == {True: [0], False: [0, 1, 2]}


def test_run_fidelity_draws_each_ball_once(tmp_path, monkeypatch):
    draws = []

    def recording(norm, m, dim, seed, real=metrics.unit_ball):
        draws.append((seed, norm))
        return real(norm, m, dim, seed)

    monkeypatch.setattr(metrics, "unit_ball", recording)
    path = write_workspace(tmp_path, metrics={"epsilons": [0.25, 0.5], "norms": ["l2", "linf"],
                                              "m": 64})
    rows = run_fidelity(load_config(path))
    assert len(rows) == 16 and all(row["error"] == "" for row in rows)
    # 3 seeds x 2 norms, each scaled to 2 epsilons and shared by 2 methods x 2 sigmas
    assert len(draws) == len(set(draws)) == 6


def test_run_fidelity_draws_no_ball_for_a_seed_without_explanations(tmp_path,
                                                                   monkeypatch):
    seeds = []
    monkeypatch.setattr(metrics, "unit_ball",
                        lambda norm, m, dim, seed, real=metrics.unit_ball:
                        seeds.append(seed) or real(norm, m, dim, seed))
    # at n = 8 and lambda = 0, Lime's normal equations are singular for seed 2 only
    path = write_workspace(tmp_path, methods=[{"method": "Lime"}], sample_sizes=[8],
                           lambdas=[0.0], seeds=[1, 2, 4])
    rows = run_fidelity(load_config(path))
    assert all(row["error"].startswith("SingularSystem:") for row in rows)
    assert seeds == [substream_seed(s, harness._BALL_STREAM) for s in (1, 4)]


def fail_wide_balls(monkeypatch, x, epsilons):
    """Model evaluation on a ball fails when a point leaves the smaller radius,
    whatever order the balls are drawn in."""
    def evaluate(model, points, real=metrics.evaluate):
        if np.max(np.abs(points - x)) > min(epsilons):
            raise NonFiniteOutput("model returned NaN on a wide ball")
        return real(model, points)

    monkeypatch.setattr(metrics, "evaluate", evaluate)


@pytest.mark.parametrize("overrides, wide_balls_fail, errors", [
    # SmoothGrad needs singleton segments, so each of its explanations fails
    ({"methods": [{"method": "Lime"}, {"method": "SmoothGrad"}, {"method": "GlimeGauss"}]},
     False, {"ConfigError"}),
    ({"methods": [{"method": "Lime"}, {"method": "GlimeGauss"}]}, True,
     {"NonFiniteOutput"}),
    # at n = 8 and lambda = 0 some seeds give singular normal equations
    ({"methods": [{"method": "Lime"}, {"method": "GlimeBinomial"}, {"method": "GlimeGauss"}],
      "sample_sizes": [8], "lambdas": [0.0], "seeds": [1, 4, 2, 5]},
     False, {"SingularSystem"}),
    ({"methods": [{"method": "Lime"}, {"method": "GlimeBinomial"}, {"method": "GlimeGauss"}],
      "sample_sizes": [8], "lambdas": [0.0], "seeds": [1, 4, 2, 5]},
     True, {"SingularSystem", "NonFiniteOutput"}),
], ids=["explain-fails", "ball-fails", "some-seeds-fail", "seeds-and-balls-fail"])
def test_run_fidelity_matches_the_direct_nested_loop(tmp_path, monkeypatch, overrides,
                                                     wide_balls_fail, errors):
    epsilons = [0.25, 0.5]
    path = write_workspace(tmp_path, **overrides, metrics={
        "epsilons": epsilons, "norms": ["l2", "linf"], "m": 64})
    config = load_config(path)
    if wide_balls_fail:
        fail_wide_balls(monkeypatch, build_context(config).x, epsilons)
    rows = run_fidelity(config)
    assert json_dumps(rows) == json_dumps(fidelity_rows_direct(config))  # every bit
    assert {row["error"].split(":")[0] for row in rows} == errors | {""}


# failing cells: exact KernelShap past its width cap, Lime's kernel weights
# underflowing at sigma = 0.05, SmoothGrad on a grid, and lambda = 0 with too
# few samples, singular for every seed (n < d) or, at n = 8 of d = 4, for some
FAILING_SWEEPS = {
    "exact-shap-too-wide": dict(d=25, segmentation=None, methods=[
        {"method": "KernelShap", "exact": True}, {"method": "GlimeBinomial"}]),
    "zero-weights": dict(methods=[{"method": "Lime"}, {"method": "SmoothGrad"},
                                  {"method": "GlimeBinomial"}], sigmas=[0.05, 1.0]),
    "lambda-zero-n-below-d": dict(d=16, segmentation=None, sample_sizes=[8, 12, 64],
                                  lambdas=[0.0, 1.0]),
    "some-seeds-fail": dict(methods=[{"method": "Lime"}, {"method": "GlimeBinomial"},
                                     {"method": "GlimeGauss"}],
                            sample_sizes=[8, 64], lambdas=[0.0], seeds=[2, 1, 4, 5]),
}


@pytest.mark.parametrize("name, errors", [
    ("exact-shap-too-wide", {"DimensionTooLarge"}),
    ("zero-weights", {"SingularSystem", "ConfigError"}),
    ("lambda-zero-n-below-d", {"SingularSystem"}),
    ("some-seeds-fail", {"SingularSystem"}),
])
def test_run_stability_matches_the_direct_nested_loop(tmp_path, name, errors):
    config = load_config(write_workspace(tmp_path, **FAILING_SWEEPS[name]))
    rows = run_stability(config)
    assert json_dumps(rows) == json_dumps(stability_rows_direct(config))  # every bit
    assert {row["error"].split(":")[0] for row in rows} == errors | {""}


@pytest.mark.parametrize("name", ["zero-weights", "lambda-zero-n-below-d",
                                  "some-seeds-fail"])
def test_run_convergence_matches_the_direct_nested_loop(tmp_path, name):
    config = load_config(write_workspace(tmp_path, **FAILING_SWEEPS[name]))
    rows = run_convergence(config)
    assert json_dumps(rows) == json_dumps(convergence_rows_direct(config))  # every bit
    assert {row["error"].split(":")[0] for row in rows} == {"SingularSystem", ""}


def test_stability_draws_lifts_and_evaluates_each_sample_set_once(tmp_path, monkeypatch):
    draws, lifts = [], []
    monkeypatch.setattr(explain_module, "draw", lambda law, n, seed, real=explain_module.draw:
                        draws.append((law, n, seed)) or real(law, n, seed))
    monkeypatch.setattr(explain_module, "reconstruct_binary",
                        lambda x, r, seg, z, real=explain_module.reconstruct_binary:
                        lifts.append((len(draws), len(z))) or real(x, r, seg, z))
    config = load_config(write_workspace(
        tmp_path, methods=[{"method": "Lime"}, {"method": "Lime", "unit_weights": True},
                           {"method": "GlimeBinomial"}],
        sigmas=[0.25, 0.5, 1.0, 2.0], sample_sizes=[600]))
    rows = run_stability(config)
    assert len(rows) == 12 and all(row["error"] == "" for row in rows)
    # per seed, one fair-coin set serves Lime and LimeUnweighted at every sigma,
    # and GlimeBinomial draws one set per sigma; 600 samples lift in two blocks,
    # each lifted once after its set's draw
    assert len(draws) == len(set(draws)) == 3 * (1 + 4)
    assert len(lifts) == len(set(lifts)) == 3 * (1 + 4) * 2
    monkeypatch.undo()
    assert json_dumps(rows) == json_dumps(stability_rows_direct(config))  # every bit


def test_a_stability_sweep_keeps_one_sample_set_whatever_its_seed_count(tmp_path):
    n = 4096

    def peak(seeds: int) -> int:
        config = load_config(write_workspace(
            tmp_path, methods=[{"method": "Lime"}, {"method": "GlimeBinomial"}],
            sample_sizes=[n], seeds=list(range(seeds))))
        tracemalloc.reset_peak()
        run_stability(config)
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        growth = peak(8) - peak(2)
    finally:
        tracemalloc.stop()
    d = 4  # the workspace's 2 x 2 grid
    assert growth <= n * (d + 1) * 8  # one n x d design and its n responses


def test_sweeps_are_deterministic_end_to_end(tmp_path):
    config = load_config(write_workspace(tmp_path))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit(run_stability(config), "csv", str(a))
    emit(run_stability(config), "csv", str(b))
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
    with pytest.raises(ConfigError, match="4096"):
        distributions_table(harness.MAX_DISTRIBUTIONS_D + 1, (1.0,))


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
        proc = cli("stability", "--config", path, "--out", str(tmp_path / name))
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


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_is_an_io_failure_in_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(IoFailure, match="cannot write to stdout"):
        write_text("table\n", None)
    assert main(["distributions", "--dim", "3", "--sigmas", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to stdout") and err.count("\n") == 1, err


def test_cli_exits_two_without_a_traceback_when_the_reader_closes_stdout():
    proc = subprocess.Popen(
        [sys.executable, "-m", "localex", "distributions", "--dim", "3", "--sigmas", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the reader is gone before the table is written
    err = proc.stderr.read()
    proc.stderr.close()
    # no second error from the interpreter's own flush of stdout at exit
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: cannot write to stdout") and err.count("\n") == 1, err


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


def explain_config(tmp_path, coefficients, sigma, method="Lime", x=(1.0, 2.0, 3.0),
                   **extra):
    (tmp_path / "model.json").write_text(json.dumps(
        {"kind": "linear", "coefficients": coefficients}))
    (tmp_path / "input.json").write_text(json.dumps(x))
    path = tmp_path / "explain.json"
    path.write_text(json.dumps({"model": "model.json", "input": "input.json",
                                "method": {"method": method, "sigma": sigma},
                                "n": 64, **extra}))
    return str(path)


def grid_explain_config(tmp_path, rows, cols):
    """An explain config on write_workspace's 2x4 image with the given grid."""
    write_workspace(tmp_path)
    path = tmp_path / "explain.json"
    path.write_text(json.dumps({"model": "model.json", "input": "input.json",
                                "segmentation": {"rows": rows, "cols": cols},
                                "method": {"method": "Lime", "sigma": 1.0}, "n": 64}))
    return str(path)


def json_file(tmp_path, obj, name="file.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def overflow(path):
    """path, after its JSON infinities are rewritten as the number 1e400, which
    also parses as inf."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("Infinity", "1e400"))
    return path


def with_method(path, **fields):
    """path, after these fields are added to its explain config's method entry."""
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["method"].update(fields)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def with_model(path, **fields):
    """path, after these fields are set in the model file beside it, model.json."""
    model = os.path.join(os.path.dirname(path), "model.json")
    with open(model, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj.update(fields)
    with open(model, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def model_explain_config(tmp_path, model):
    """An explain config on a 3-vector whose model file holds model."""
    path = explain_config(tmp_path, [0.3, -0.2, 0.5], 1.0)
    json_file(tmp_path, model, name="model.json")
    return path


def input_bytes(tmp_path, data):
    """An explain config on a 3-vector whose input file holds these bytes."""
    path = explain_config(tmp_path, [0.3, -0.2, 0.5], 1.0)
    (tmp_path / "input.json").write_bytes(data)
    return path


def overflowing_model_config(tmp_path, model):
    """model_explain_config, after the model file's infinities are rewritten as 1e400."""
    path = model_explain_config(tmp_path, model)
    overflow(str(tmp_path / "model.json"))
    return path


def remote_explain_config(tmp_path, **fields):
    """An explain config whose remote model has these fields. Each bad field is
    rejected at load, so no connection is opened."""
    return overflowing_model_config(
        tmp_path, {"kind": "remote", "endpoint": "http://127.0.0.1:9/f", **fields})


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
    (lambda tmp: ["distributions", "--dim", "3", "--sigmas", "1", "--seed", "5"], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp), "--jobs", "0"], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp), "--jobs=-3"], 1),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, **{"lambda": "abc"})], 1),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, **{"lambda": None})], 1),
    # config blocks that are not JSON objects
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, segmentation=[1, 3])], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, segmentation=[2, 2])], 1),
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, metrics=[0.5])], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, output=["x.csv"])], 1),
    (lambda tmp: ["stability", "--config", json_file(tmp, [{"model": "model.json"}])], 1),
    # metric settings no cell could use
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, metrics={"norms": ["l3"]})], 1),
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, metrics={"epsilons": [-1]})], 1),
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, metrics={"m": 0})], 1),
    (lambda tmp: ["stability", "--config",
                  write_workspace(tmp, d=32, rows_cols=(2, 8), metrics={"k": 99})], 1),
    # grid settings: a string, a fraction, and a grid larger than the 2x4 image
    (lambda tmp: ["explain", "--config", grid_explain_config(tmp, "x", 2)], 1),
    (lambda tmp: ["explain", "--config", grid_explain_config(tmp, 2.5, 2)], 1),
    (lambda tmp: ["explain", "--config", grid_explain_config(tmp, 3, 2)], 1),
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, rows_cols=("x", 2))], 1),
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, rows_cols=(2, 2.5))], 1),
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, rows_cols=(2, 5))], 1),
    # a model that does not take the input's width
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, -0.2], 1.0)], 1),
    (lambda tmp: ["stability", "--config",
                  write_workspace(tmp, model=asset("mlp_small.json"),
                                  input=asset("input_10.json"), segmentation=None)], 1),
    # inputs that are not a non-empty flat array
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3], 1.0, x={"values": 1})], 1),
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3], 1.0, x=[])], 1),
    (lambda tmp: ["stability", "--config", write_workspace(
        tmp, input=json_file(tmp, {"values": []}), segmentation=None)], 1),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2], 1.0, x={"values": [[1, 2], [3, 4]]})], 1),
    # JSON numbers too large to be an integer
    (lambda tmp: ["explain", "--config",
                  overflow(explain_config(tmp, [0.3, -0.2, 0.5], 1.0, n=math.inf))], 1),
    (lambda tmp: ["stability", "--config",
                  overflow(write_workspace(tmp, sample_sizes=[math.inf]))], 1),
    (lambda tmp: ["fidelity", "--config",
                  overflow(write_workspace(tmp, metrics={"m": math.inf}))], 1),
    (lambda tmp: ["distributions", "--config",
                  overflow(json_file(tmp, {"d": math.inf, "sigmas": [0.5]}))], 1),
    (lambda tmp: ["explain", "--config", remote_explain_config(tmp, timeout_ms=math.inf)], 1),
    # counts of 401 digits: n x D, the largest sample size x D and m x D past
    # MAX_VALUES, and a distributions d past its cap
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, n=10**400)], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, sample_sizes=[10**400])], 1),
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, metrics={"m": 10**400})], 1),
    (lambda tmp: ["distributions", "--config", json_file(tmp, {"d": 10**400, "sigmas": [0.5]})],
     1),
    # remote settings it cannot use
    (lambda tmp: ["explain", "--config", remote_explain_config(tmp, endpoint="x")], 1),
    (lambda tmp: ["explain", "--config", remote_explain_config(tmp, timeout_ms=1e308)], 1),
    (lambda tmp: ["explain", "--config", remote_explain_config(tmp, retries=1e9)], 1),
    # widths, lambdas and radii of 1e400, which reads as inf
    (lambda tmp: ["explain", "--config", overflow(
        explain_config(tmp, [0.3, -0.2, 0.5], math.inf, method="GlimeGauss"))], 1),
    (lambda tmp: ["explain", "--config",
                  overflow(explain_config(tmp, [0.3, -0.2, 0.5], math.inf))], 1),
    (lambda tmp: ["explain", "--config", overflow(
        explain_config(tmp, [0.3, -0.2, 0.5], 1.0, **{"lambda": math.inf}))], 1),
    (lambda tmp: ["fidelity", "--config",
                  overflow(write_workspace(tmp, metrics={"epsilons": [math.inf]}))], 1),
    (lambda tmp: ["stability", "--config", overflow(write_workspace(tmp, sigmas=[math.inf]))],
     1),
    (lambda tmp: ["stability", "--config", overflow(write_workspace(tmp, lambdas=[math.inf]))],
     1),
    # negative seeds
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, -0.2, 0.5], 1.0),
                  "--seed=-1"], 1),
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, -0.2, 0.5], 1.0, seed=-3)],
     1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, seeds=[-3, 1])], 1),
    # method flags that are not JSON booleans
    (lambda tmp: ["explain", "--config", with_method(
        explain_config(tmp, [0.3, -0.2, 0.5], 1.0), unit_weights="false")], 1),
    (lambda tmp: ["stability", "--config",
                  write_workspace(tmp, methods=[{"method": "KernelShap", "exact": "no"}])], 1),
    # model files whose kind or endpoint is not a string
    (lambda tmp: ["explain", "--config", model_explain_config(tmp, {"kind": ["x"]})], 1),
    (lambda tmp: ["explain", "--config", remote_explain_config(tmp, endpoint=123)], 1),
    # JSON values that only convert to the field's type: a fraction or a string for an
    # integer, a string or a boolean for a number, a fraction for a shape
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, -0.2, 0.5], 1.0, n=64.9)], 1),
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, -0.2, 0.5], 1.0, n="64")], 1),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, seed=2.7)], 1),
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, -0.2, 0.5], True)], 1),
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, -0.2, 0.5], "0.5")], 1),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, **{"lambda": 10**400})], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, sigmas=[True])], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, sample_sizes=[64.5])], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, lambdas=[False])], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, seeds=[0, 1.9])], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, metrics={"k": 2.5})], 1),
    (lambda tmp: ["fidelity", "--config", write_workspace(tmp, metrics={"m": 8.5})], 1),
    (lambda tmp: ["fidelity", "--config",
                  write_workspace(tmp, metrics={"epsilons": ["0.5"]})], 1),
    (lambda tmp: ["distributions", "--config", json_file(tmp, {"d": 4.9, "sigmas": [0.5]})],
     1),
    (lambda tmp: ["distributions", "--config",
                  json_file(tmp, {"d": 4, "sigmas": [0.5], "ks": [1.5]})], 1),
    (lambda tmp: ["explain", "--config", explain_config(
        tmp, [0.3, -0.2, 0.5], 1.0, x={"values": [1.0, 2.0, 3.0], "shape": [3.7]})], 1),
    (lambda tmp: ["explain", "--config", model_explain_config(
        tmp, {"kind": "linear", "coefficients": [0.3, -0.2, 0.5], "bias": True})], 1),
    (lambda tmp: ["explain", "--config", remote_explain_config(tmp, batch_size=2.7)], 1),
    (lambda tmp: ["explain", "--config", remote_explain_config(tmp, retries=True)], 1),
    # widths whose square is 0 or infinite, and an empty list of counts
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1e-200, method="GlimeBinomial")], 1),
    (lambda tmp: ["distributions", "--config", json_file(tmp, {"d": 4, "sigmas": [1e200]})],
     1),
    (lambda tmp: ["distributions", "--config",
                  json_file(tmp, {"d": 4, "sigmas": [0.5], "ks": []})], 1),
    # input files that do not decode: bytes that are not UTF-8, arrays nested too deep
    (lambda tmp: ["explain", "--config", input_bytes(tmp, b"\xff\xfe[1, 2, 3]")], 1),
    (lambda tmp: ["explain", "--config", input_bytes(tmp, b"[" * 100_000)], 1),
    # paths holding a NUL character or a line break
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, model="a\x00b")], 1),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, model="a\nb")], 1),
    (lambda tmp: ["stability", "--config", write_workspace(tmp, output={"path": "a\x00b"})],
     2),
    # exact KernelShap past its width cap, which the request alone rules out
    (lambda tmp: ["explain", "--config", with_method(explain_config(
        tmp, [0.1] * 25, 1.0, method="KernelShap", x=[0.5] * 25), exact=True)], 1),
    # model and input arrays holding strings or booleans, which are not numbers
    (lambda tmp: ["explain", "--config", explain_config(tmp, ["1.5", True, 2], 1.0)], 1),
    (lambda tmp: ["explain", "--config",
                  explain_config(tmp, [0.3, -0.2, 0.5], 1.0, x=["0.5", False, 1])], 1),
    (lambda tmp: ["explain", "--config", model_explain_config(
        tmp, {"kind": "quadratic", "matrix": [[1, 0, 0], [0, True, 0], [0, 0, 1]],
              "coefficients": [0, 0, 0]})], 1),
    (lambda tmp: ["explain", "--config", model_explain_config(
        tmp, {"kind": "mlp", "layers": [{"weights": [["2"], [1], [1]], "bias": [0]}]})], 1),
    # model parameters that are not finite: NaN, Infinity, and 1e400, which reads as inf
    (lambda tmp: ["explain", "--config", explain_config(tmp, [0.3, math.nan, 0.5], 1.0)], 1),
    (lambda tmp: ["explain", "--config",
                  with_model(explain_config(tmp, [0.3, -0.2, 0.5], 1.0), bias=math.inf)], 1),
    (lambda tmp: ["explain", "--config", model_explain_config(
        tmp, {"kind": "mlp", "layers": [{"weights": [[1], [1], [1]], "bias": [math.inf]}]})],
     1),
    (lambda tmp: ["explain", "--config", overflowing_model_config(
        tmp, {"kind": "mlp", "layers": [{"weights": [[1], [math.inf], [1]], "bias": [0]}]})],
     1),
    (lambda tmp: ["stability", "--config",
                  with_model(write_workspace(tmp), coefficients=[math.nan] + [0.1] * 7)], 1),
], ids=["nonfinite-output", "zero-weights", "ridge-overflow", "smoothgrad-overflow",
        "nan-input", "sigma-zero", "sigma-negative",
        "sigma-nan", "distributions-seed", "jobs-zero", "jobs-negative", "lambda-string",
        "lambda-null",
        "explain-segmentation-list", "sweep-segmentation-list", "metrics-list",
        "output-list", "config-array", "norm-l3", "epsilon-negative", "m-zero",
        "k-above-d", "explain-grid-string", "explain-grid-fraction", "explain-grid-too-big",
        "sweep-grid-string", "sweep-grid-fraction", "sweep-grid-too-big",
        "explain-model-width", "sweep-model-width", "input-scalar", "input-empty",
        "sweep-input-empty-values", "input-2d", "explain-n-overflow",
        "sweep-sample-sizes-overflow", "fidelity-m-overflow", "distributions-d-overflow",
        "remote-timeout-overflow", "explain-n-huge", "sweep-sample-sizes-huge",
        "fidelity-m-huge", "distributions-d-huge", "remote-endpoint-not-http",
        "remote-timeout-huge",
        "remote-retries-huge", "gauss-sigma-inf", "lime-sigma-inf", "lambda-inf",
        "fidelity-epsilon-inf", "sweep-sigma-inf", "sweep-lambda-inf", "seed-flag-negative",
        "explain-seed-negative", "sweep-seeds-negative", "unit-weights-string",
        "exact-string", "model-kind-list", "remote-endpoint-number", "explain-n-fraction",
        "explain-n-string", "explain-seed-fraction", "sigma-true", "sigma-string",
        "lambda-integer-overflow", "sweep-sigmas-true", "sweep-sample-sizes-fraction",
        "sweep-lambdas-false", "sweep-seeds-fraction", "metrics-k-fraction",
        "metrics-m-fraction", "metrics-epsilons-string", "distributions-d-fraction",
        "distributions-ks-fraction", "input-shape-fraction", "model-bias-true",
        "remote-batch-size-fraction", "remote-retries-true", "binomial-sigma-tiny",
        "distributions-sigma-huge", "distributions-ks-empty", "input-not-utf8",
        "input-nested-too-deep", "model-path-nul", "model-path-line-break",
        "output-path-nul", "exact-shap-too-wide", "model-coefficients-not-numbers",
        "input-values-not-numbers", "quadratic-matrix-true", "mlp-weight-string",
        "model-coefficient-nan", "model-bias-infinity", "mlp-bias-infinity",
        "mlp-weight-overflow", "sweep-model-nan"])
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


def test_every_trace_site_resolves():
    tracing = load_tracing()
    patches = tracing.Patches()
    try:
        for sites in tracing.LAYERS.values():
            for site in sites:
                patches.wrap(site, lambda fn: fn)
    finally:
        patches.undo()
    assert patches.missing == []


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
    for layer in ("sampling.draw", "sampling.batch_weights"):
        assert calls[layer] == 1, layer
    # the samples are lifted and evaluated in blocks: exact KernelShap's 1,022
    # coalitions of d = 10 make two, every other method's 64 samples one
    blocks = math.ceil(json.loads(proc.stdout)["n"] / BLOCK_ROWS)
    assert calls["feature_space.lift"] == blocks
    # SmoothGrad's known moments need no solve, and f(x) is its intercept
    expected = (blocks + 1, 0) if isinstance(method, SmoothGrad) else (blocks, 1)
    assert (calls["models.evaluate"], calls["solver.solve"]) == expected
