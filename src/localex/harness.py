"""Experiment harness: deterministic sweeps over methods, kernel widths, sample
sizes, and regularization, emitting plot-ready CSV/JSON tables.

Grid cells are independent; failures are recorded in an error column instead of
aborting the sweep. Re-running an identical config yields byte-identical files:
floats are serialized with 17 significant digits and rows follow grid order.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import os.path
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, read_json, write_text
from .explain import (
    ExplainRequest,
    Explanation,
    GlimeBinomial,
    Lime,
    MethodSpec,
    explain,
    method_from_json,
    method_name,
)
from .feature_space import (
    Reference,
    Segmentation,
    grid_segment,
    mean_reference,
    singleton_segments,
)
from .metrics import explanation_distance, local_fidelity, top_k_jaccard
from .models import ModelSpec, load_model
from .sampling import (
    ShapKernel,
    bernoulli_p,
    binomial_pmf,
    expected_weight_uniform,
    substream_seed,
    weight,
)

DEFAULT_SEEDS = tuple(range(10))
_BALL_STREAM = 1_000_003  # fidelity ball draws use a substream disjoint from masks


# ---------------------------------------------------------------------------
# numeric serialization: 17 significant digits round-trips doubles exactly


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_scalar(v: Any) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(float(v))
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_scalar(item) for item in v) + "]"
    if isinstance(v, dict):
        return (
            "{"
            + ", ".join(f"{json.dumps(str(k))}: {_json_scalar(val)}" for k, val in v.items())
            + "}"
        )
    raise TypeError(f"cannot serialize {type(v).__name__}")


def json_dumps(obj: Any) -> str:
    """JSON text with deterministic float formatting (17 significant digits)."""
    return _json_scalar(obj)


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else _json_scalar(v)


def emit(rows: list[dict], fmt: str, path: str | None) -> None:
    """Write a table of rows as CSV (RFC 4180) or a JSON array of objects.

    path=None writes to stdout. All rows must share the first row's columns.
    """
    if not rows:
        raise ValueError("refusing to emit an empty table")
    columns = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != columns:
            raise ValueError("all rows must share the same columns")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in columns])
        text = buf.getvalue()
    elif fmt == "json":
        body = ",\n".join(json_dumps(row) for row in rows)
        text = "[\n" + body + "\n]\n"
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    write_text(text, path)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep grid: methods x sigmas x lambdas x sample sizes, seeds within."""

    model_path: str
    input_path: str
    method_entries: tuple[dict, ...]
    sigmas: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    lambdas: tuple[float, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    grid_rows: int | None = None
    grid_cols: int | None = None
    reference_kind: str = "mean"
    k: int | None = None
    epsilons: tuple[float, ...] = (0.5,)
    norms: tuple[str, ...] = ("l2",)
    m: int = 2048
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self) -> None:
        for name in ("method_entries", "sigmas", "sample_sizes", "lambdas", "seeds",
                     "epsilons", "norms"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if any(n < 1 for n in self.sample_sizes):
            raise ConfigError("sample sizes must be >= 1")
        if any(not s > 0 for s in self.sigmas):
            raise ConfigError("sigmas must be > 0")
        if any(lam < 0 for lam in self.lambdas):
            raise ConfigError("lambdas must be >= 0")
        if self.reference_kind not in ("mean", "zero"):
            raise ConfigError("reference must be 'mean' or 'zero'")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("output format must be csv or json")
        for entry in self.method_entries:
            if "sigma" in entry:
                raise ConfigError(
                    "method entries must not pin sigma; it comes from the sigmas axis"
                )
            method_from_json({**entry, "sigma": 1.0})  # validate tag and flags early


def resolve(path: str, base_dir: str) -> str:
    """A path from a config file, taken relative to the file's directory."""
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def config_from_json(obj: dict, base_dir: str = ".") -> ExperimentConfig:
    try:
        seg = obj.get("segmentation") or {}
        met = obj.get("metrics") or {}
        out = obj.get("output") or {}
        return ExperimentConfig(
            model_path=resolve(obj["model"], base_dir),
            input_path=resolve(obj["input"], base_dir),
            method_entries=tuple(obj["methods"]),
            sigmas=tuple(float(s) for s in obj["sigmas"]),
            sample_sizes=tuple(int(n) for n in obj["sample_sizes"]),
            lambdas=tuple(float(l) for l in obj["lambdas"]),
            seeds=tuple(int(s) for s in obj.get("seeds", DEFAULT_SEEDS)),
            grid_rows=seg.get("rows"),
            grid_cols=seg.get("cols"),
            reference_kind=str(obj.get("reference", "mean")),
            k=None if met.get("k") is None else int(met["k"]),
            epsilons=tuple(float(e) for e in met.get("epsilons", (0.5,))),
            norms=tuple(str(n) for n in met.get("norms", ("l2",))),
            m=int(met.get("m", 2048)),
            out_path=None if out.get("path") is None else resolve(out["path"], base_dir),
            out_format=str(out.get("format", "csv")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed experiment config: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    base_dir = os.path.dirname(os.path.abspath(path))
    return config_from_json(read_json(path, "config"), base_dir=base_dir)


def load_input(path: str) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Input file: either a flat JSON array or {"values": [...], "shape": [...]}."""
    obj = read_json(path, "input")
    if isinstance(obj, list):
        return np.asarray(obj, dtype=np.float64), None
    try:
        values = np.asarray(obj["values"], dtype=np.float64)
        shape = None if obj.get("shape") is None else tuple(int(s) for s in obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed input file {path}: {exc}") from exc
    return values, shape


@dataclass(frozen=True)
class RunContext:
    model: ModelSpec
    x: np.ndarray
    segmentation: Segmentation
    reference: Reference


def build_space(
    x: np.ndarray,
    shape: tuple[int, ...] | None,
    grid_rows: int | None,
    grid_cols: int | None,
    reference_kind: str,
) -> tuple[Segmentation, Reference]:
    """Segmentation and reference for an input: grid cells or singletons."""
    if grid_rows is not None or grid_cols is not None:
        if shape is None or len(shape) not in (2, 3):
            raise ConfigError("grid segmentation needs an input with an image shape")
        if grid_rows is None or grid_cols is None:
            raise ConfigError("grid segmentation needs both rows and cols")
        h, w = shape[0], shape[1]
        c = shape[2] if len(shape) == 3 else 1
        seg = grid_segment(h, w, c, int(grid_rows), int(grid_cols))
    else:
        seg = singleton_segments(x.shape[0])
    if x.shape[0] != seg.size:
        raise ConfigError(f"input length {x.shape[0]} does not match shape {shape}")
    if reference_kind == "mean":
        reference = mean_reference(x, seg)
    elif reference_kind == "zero":
        reference = Reference(np.zeros_like(x))
    else:
        raise ConfigError("reference must be 'mean' or 'zero'")
    return seg, reference


def build_context(config: ExperimentConfig) -> RunContext:
    model = load_model(config.model_path)
    x, shape = load_input(config.input_path)
    seg, reference = build_space(
        x, shape, config.grid_rows, config.grid_cols, config.reference_kind
    )
    return RunContext(model, x, seg, reference)


# ---------------------------------------------------------------------------
# sweep runners


def _method_label(method: MethodSpec) -> str:
    if isinstance(method, Lime) and method.unit_weights:
        return "LimeUnweighted"
    return method_name(method)


def _materialize(entry: dict, sigma: float) -> MethodSpec:
    return method_from_json({**entry, "sigma": sigma})


def _run_cells(cells: list, fn: Callable, jobs: int) -> list[dict]:
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [fn(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, cells))  # map preserves grid order


def _explain_cell(
    ctx: RunContext, method: MethodSpec, n: int, lam: float, seed: int
) -> Explanation:
    req = ExplainRequest(
        model=ctx.model,
        x=ctx.x,
        segmentation=ctx.segmentation,
        method=method,
        n=n,
        seed=seed,
        lam=lam,
        reference=ctx.reference,
    )
    return explain(req)


def _cell_row(keys: dict, metrics: tuple[str, ...], compute: Callable[[], dict]) -> dict:
    """One table row: the cell's keys, then its metrics or a recorded failure."""
    row = {**keys, **dict.fromkeys(metrics), "error": ""}
    try:
        row.update(compute())
    except Exception as exc:  # record, keep sweeping
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_stability(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Mean/std of pairwise top-K Jaccard across seeds, per grid cell."""
    if len(config.seeds) < 2:
        raise ConfigError("stability needs at least two seeds")
    ctx = build_context(config)
    k = config.k if config.k is not None else min(20, ctx.segmentation.d)
    cells = [
        (entry, sigma, lam, n)
        for entry in config.method_entries
        for sigma in config.sigmas
        for lam in config.lambdas
        for n in config.sample_sizes
    ]

    def one(cell) -> dict:
        entry, sigma, lam, n = cell
        method = _materialize(entry, sigma)

        def compute() -> dict:
            exps = [_explain_cell(ctx, method, n, lam, s) for s in config.seeds]
            report = top_k_jaccard(exps, k)
            std = float(np.std(report.pairwise))
            return {"mean_jaccard": report.mean_jaccard, "std": std}

        keys = {"method": _method_label(method), "sigma": sigma, "lambda": lam, "n": n}
        return _cell_row(keys, ("mean_jaccard", "std"), compute)

    return _run_cells(cells, one, jobs)


def run_convergence(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Distance between Lime and GlimeBinomial explanations as n grows.

    Each (sigma, lambda) group carries an mse_monotone flag: whether the MSE
    strictly decreases across the sample-size grid.
    """
    ctx = build_context(config)
    seed = config.seeds[0]
    cells = [
        (sigma, lam, n)
        for sigma in config.sigmas
        for lam in config.lambdas
        for n in config.sample_sizes
    ]

    def one(cell) -> dict:
        sigma, lam, n = cell

        def compute() -> dict:
            lime = _explain_cell(ctx, Lime(sigma), n, lam, seed)
            binom = _explain_cell(ctx, GlimeBinomial(sigma), n, lam, seed)
            dist = explanation_distance(lime, binom)
            return {"mse": dist.mse, "mae": dist.mae, "pearson": dist.pearson,
                    "spearman": dist.spearman}

        keys = {"sigma": sigma, "lambda": lam, "n": n}
        return _cell_row(keys, ("mse", "mae", "pearson", "spearman", "mse_monotone"),
                         compute)

    rows = _run_cells(cells, one, jobs)
    for start in range(0, len(rows), len(config.sample_sizes)):
        group = rows[start : start + len(config.sample_sizes)]
        mses = [r["mse"] for r in group if r["error"] == ""]
        monotone = len(mses) == len(group) and all(
            later < earlier for earlier, later in zip(mses, mses[1:])
        )
        for r in group:
            r["mse_monotone"] = monotone
    return rows


def run_fidelity(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Local fidelity per method and ball radius, mean/std over seeds.

    Explanations use the first sample-size and lambda of the grid; the ball
    sample for each seed comes from a disjoint substream.
    """
    ctx = build_context(config)
    n = config.sample_sizes[0]
    lam = config.lambdas[0]
    cells = [
        (entry, sigma, eps, norm)
        for entry in config.method_entries
        for sigma in config.sigmas
        for eps in config.epsilons
        for norm in config.norms
    ]

    def one(cell) -> dict:
        entry, sigma, eps, norm = cell
        method = _materialize(entry, sigma)

        def compute() -> dict:
            vals = []
            for s in config.seeds:
                exp = _explain_cell(ctx, method, n, lam, s)
                rep = local_fidelity(
                    ctx.model, ctx.x, exp, ctx.segmentation, eps, norm,
                    config.m, substream_seed(s, _BALL_STREAM),
                )
                vals.append(rep.fidelity)
            return {"fidelity_mean": float(np.mean(vals)),
                    "fidelity_std": float(np.std(vals))}

        keys = {"method": _method_label(method), "sigma": sigma, "epsilon": eps,
                "norm": norm}
        return _cell_row(keys, ("fidelity_mean", "fidelity_std"), compute)

    return _run_cells(cells, one, jobs)


def distributions_table(d: int, sigmas: tuple[float, ...],
                        ks: tuple[int, ...] | None = None) -> list[dict]:
    """Inspection dump: per (sigma, k) the count pmf and kernel weights."""
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if not sigmas:
        raise ConfigError("sigmas must be non-empty")
    if any(not s > 0 for s in sigmas):
        raise ConfigError("sigmas must be > 0")
    if ks is None:
        ks = tuple(range(d + 1))
    if any(k < 0 or k > d for k in ks):
        raise ConfigError(f"ks must lie in [0, {d}]")
    rows = []
    for sigma in sigmas:
        p = bernoulli_p(sigma)
        mean_w = expected_weight_uniform(d, sigma)
        for k in ks:
            mask = np.r_[np.ones(k), np.zeros(d - k)]
            shap = None
            if 0 < k < d:
                shap = weight(ShapKernel(), mask)
            rows.append(
                {
                    "sigma": sigma,
                    "k": k,
                    "bernoulli_p": p,
                    "count_pmf": binomial_pmf(d, sigma, k),
                    "exp_kernel_weight": float(np.exp((k - d) / sigma**2)),
                    "shap_kernel_weight": shap,
                    "expected_weight_uniform": mean_w,
                }
            )
    return rows


def reseed(config: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """Replace the seed list with substreams of a master seed (same count)."""
    seeds = tuple(substream_seed(master_seed, r) for r in range(len(config.seeds)))
    return dataclasses.replace(config, seeds=seeds)
