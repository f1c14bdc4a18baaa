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
import itertools
import json
import math
import os.path
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import (ConfigError, check_rows, check_scale, field, read_json, read_numbers,
                     write_text)
from .explain import (
    ExplainRequest,
    Explanation,
    GlimeBinomial,
    Lime,
    MethodSpec,
    OneSlot,
    explain,
    method_from_json,
)
from .feature_space import (
    Reference,
    Segmentation,
    grid_segment,
    mean_reference,
    singleton_segments,
)
from .metrics import NORMS, explanation_distance, local_fidelity, top_k_jaccard
from .models import ModelSpec, check_input, load_model
from .sampling import (
    bernoulli_p,
    binomial_pmf,
    expected_weight_uniform,
    shap_weights_by_size,
    substream_seed,
)

DEFAULT_SEEDS = tuple(range(10))
MAX_DISTRIBUTIONS_D = 4096  # the table takes about 1 s to build at this d
_BALL_STREAM = 1_000_003  # fidelity ball draws use a substream disjoint from masks


# ---------------------------------------------------------------------------
# numeric serialization: 17 significant digits round-trips doubles exactly


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def json_dumps(v: Any) -> str:
    """JSON text with deterministic float formatting (17 significant digits)."""
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
        return "[" + ", ".join(json_dumps(item) for item in v) + "]"
    if isinstance(v, dict):
        return (
            "{"
            + ", ".join(f"{json.dumps(str(k))}: {json_dumps(val)}" for k, val in v.items())
            + "}"
        )
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else json_dumps(v)


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
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be >= 0")
        if any(n < 1 for n in self.sample_sizes):
            raise ConfigError("sample sizes must be >= 1")
        for name in ("sigmas", "epsilons"):
            check_scale(name, *getattr(self, name), error=ConfigError)
        if not all(0 <= lam < math.inf for lam in self.lambdas):
            raise ConfigError("lambdas must be finite and >= 0")
        if any(norm not in NORMS for norm in self.norms):
            raise ConfigError(f"norms must be among {', '.join(NORMS)}")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
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


def config_block(value: Any, what: str) -> dict:
    """A config file's top level, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return value


def config_from_json(obj: Any, base_dir: str = ".") -> ExperimentConfig:
    obj = config_block(obj, "experiment config")
    seg = field(obj, "segmentation", dict, None) or {}
    met = field(obj, "metrics", dict, None) or {}
    out = field(obj, "output", dict, None) or {}
    out_path = field(out, "path", str, None)
    return ExperimentConfig(
        model_path=resolve(field(obj, "model", str), base_dir),
        input_path=resolve(field(obj, "input", str), base_dir),
        method_entries=field(obj, "methods", [dict]),
        sigmas=field(obj, "sigmas", [float]),
        sample_sizes=field(obj, "sample_sizes", [int]),
        lambdas=field(obj, "lambdas", [float]),
        seeds=field(obj, "seeds", [int], DEFAULT_SEEDS),
        grid_rows=field(seg, "rows", int, None),
        grid_cols=field(seg, "cols", int, None),
        reference_kind=field(obj, "reference", str, "mean"),
        k=field(met, "k", int, None),
        epsilons=field(met, "epsilons", [float], (0.5,)),
        norms=field(met, "norms", [str], ("l2",)),
        m=field(met, "m", int, 2048),
        out_path=None if out_path is None else resolve(out_path, base_dir),
        out_format=field(out, "format", str, "csv"),
    )


def load_config(path: str) -> ExperimentConfig:
    base_dir = os.path.dirname(os.path.abspath(path))
    return config_from_json(read_json(path, "config"), base_dir=base_dir)


def load_input(path: str) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Input file: either a flat JSON array or {"values": [...], "shape": [...]}."""
    obj = read_json(path, "input")
    try:
        values = read_numbers(obj if isinstance(obj, list) else obj["values"], "values")
    # KeyError, TypeError: neither an array nor an object that holds values
    except (KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"malformed input file {path}: {exc}") from exc
    shape = None if isinstance(obj, list) else field(obj, "shape", [int], None)
    if values.ndim != 1 or values.size == 0:
        raise ConfigError(f"input file {path} must hold a non-empty flat array of numbers")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"input file {path} holds NaN or infinite values")
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
        seg = grid_segment(h, w, c, grid_rows, grid_cols)
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
    check_input(model, x)
    check_rows("sample size", max(config.sample_sizes), x.size)
    check_rows("m", config.m, x.size)
    return RunContext(model, x, seg, reference)


# ---------------------------------------------------------------------------
# sweep runners


def _attempt(compute: Callable[[], Any]) -> Any:
    """compute()'s value, or its failure as a cell's error text: the text, not
    the exception, whose traceback would pin the arrays of the frames it left."""
    try:
        return compute()
    except Exception as exc:  # record, keep sweeping
        return f"{type(exc).__name__}: {exc}"


def _explain_cell(ctx: RunContext, method: MethodSpec, n: int, lam: float, seed: int,
                  samples: OneSlot) -> Explanation | str:
    """One explanation, or the text of its failure or its request's rejection."""
    return _attempt(lambda: explain(ExplainRequest(
        model=ctx.model, x=ctx.x, segmentation=ctx.segmentation, method=method,
        n=n, seed=seed, lam=lam, reference=ctx.reference), samples))


def _explain_grid(ctx: RunContext, cells: list[tuple[MethodSpec, int, float]],
                  seeds: tuple[int, ...]) -> list[list[Explanation | str]]:
    """_explain_cell for each (method, n, lambda) cell and each seed, one list
    per cell. The explains run grouped by the sample set they draw (law, lift,
    n and seed: Lime's fair coins take no sigma, and no sample takes lambda),
    so that each set is drawn, lifted and evaluated once and kept in one slot
    while its group runs. A method whose seed draws nothing (exact KernelShap)
    is explained once per cell, and that result serves every seed."""
    groups: dict[tuple, dict[tuple, None]] = {}
    for method, n, lam in cells:
        # a law that cannot be made (exact KernelShap past its cap) keys by its
        # error text; each explain of it then fails on its own
        law = _attempt(lambda: method.sampler(ctx.segmentation.d)[0])
        for s in seeds if method.seeded else seeds[:1]:
            groups.setdefault((law, method.binary, n, s), {})[method, n, lam, s] = None
    samples = OneSlot()
    done = {task: _explain_cell(ctx, *task, samples)
            for group in groups.values() for task in group}
    return [[done[method, n, lam, s if method.seeded else seeds[0]] for s in seeds]
            for method, n, lam in cells]


def _cell_row(keys: dict, metrics: tuple[str, ...], parts: list,
              score: Callable[..., dict]) -> dict:
    """One table row: the cell's keys, then the first error text among parts,
    in order, or else score(*parts), whose own failure is recorded as text."""
    row = {**keys, **dict.fromkeys(metrics), "error": ""}
    failed = [part for part in parts if isinstance(part, str)]
    value = failed[0] if failed else _attempt(lambda: score(*parts))
    if isinstance(value, str):
        row["error"] = value
    else:
        row.update(value)
    return row


def run_stability(config: ExperimentConfig) -> list[dict]:
    """Mean/std of pairwise top-K Jaccard across seeds, per grid cell."""
    if len(config.seeds) < 2:
        raise ConfigError("stability needs at least two seeds")
    ctx = build_context(config)
    d = ctx.segmentation.d
    if config.k is not None and not 1 <= config.k <= d:
        raise ConfigError(f"k must be in [1, {d}], got {config.k}")

    def score(*exps: Explanation) -> dict:
        report = top_k_jaccard(list(exps), config.k)
        return {"mean_jaccard": report.mean_jaccard, "std": float(np.std(report.pairwise))}

    grid = [(method_from_json({**entry, "sigma": sigma}), sigma, lam, n)
            for entry, sigma, lam, n in itertools.product(
                config.method_entries, config.sigmas, config.lambdas, config.sample_sizes)]
    explained = _explain_grid(ctx, [(method, n, lam) for method, _, lam, n in grid],
                              config.seeds)
    rows = []
    for (method, sigma, lam, n), exps in zip(grid, explained):
        keys = {"method": method.label, "sigma": sigma, "lambda": lam, "n": n}
        rows.append(_cell_row(keys, ("mean_jaccard", "std"), exps, score))
    return rows


def run_convergence(config: ExperimentConfig) -> list[dict]:
    """Distance between Lime and GlimeBinomial explanations as n grows.

    Each (sigma, lambda) group carries an mse_monotone flag: whether the MSE
    strictly decreases across the sample-size grid.
    """
    ctx = build_context(config)
    seed = config.seeds[0]

    def score(lime: Explanation, binom: Explanation) -> dict:
        dist = explanation_distance(lime, binom)
        return {"mse": dist.mse, "mae": dist.mae, "pearson": dist.pearson,
                "spearman": dist.spearman}

    groups = list(itertools.product(config.sigmas, config.lambdas))
    cells = [(method(sigma), n, lam) for sigma, lam in groups for n in config.sample_sizes
             for method in (Lime, GlimeBinomial)]
    explained = iter(_explain_grid(ctx, cells, (seed,)))
    rows = []
    for sigma, lam in groups:
        group = []
        for n in config.sample_sizes:
            pair = [next(explained)[0] for _ in range(2)]
            keys = {"sigma": sigma, "lambda": lam, "n": n}
            group.append(_cell_row(
                keys, ("mse", "mae", "pearson", "spearman", "mse_monotone"), pair, score))
        mses = [r["mse"] for r in group if r["error"] == ""]
        monotone = len(mses) == len(group) and all(
            later < earlier for earlier, later in zip(mses, mses[1:])
        )
        for r in group:
            r["mse_monotone"] = monotone
        rows += group
    return rows


def run_fidelity(config: ExperimentConfig) -> list[dict]:
    """Local fidelity per method and ball radius, mean/std over seeds.

    Explanations use the first sample-size and lambda of the grid; the ball
    sample for each seed comes from a disjoint substream. After every
    explanation exists, each (seed, norm) unit ball is drawn once and scaled
    to each epsilon; each (seed, epsilon, norm) ball is evaluated once and
    scored against all of that seed's explanations.
    """
    ctx = build_context(config)
    cells = [(method_from_json({**entry, "sigma": sigma}), sigma)
             for entry, sigma in itertools.product(config.method_entries, config.sigmas)]
    exps = _explain_grid(ctx, [(method, config.sample_sizes[0], config.lambdas[0])
                               for method, _ in cells], config.seeds)
    fids: dict[tuple[int, int, float, str], float | str] = {}
    balls = OneSlot()
    for k, s in enumerate(config.seeds):
        scored = [i for i in range(len(cells)) if isinstance(exps[i][k], Explanation)]
        if not scored:
            continue
        for norm, eps in itertools.product(config.norms, config.epsilons):
            reports = _attempt(lambda: local_fidelity(
                ctx.model, ctx.x, [exps[i][k] for i in scored], ctx.segmentation,
                eps, norm, config.m, substream_seed(s, _BALL_STREAM), balls,
            ))
            for j, i in enumerate(scored):  # a failed ball fails every cell it scores
                fids[i, k, eps, norm] = (reports if isinstance(reports, str)
                                         else reports[j].fidelity)

    def score(*vals: float) -> dict:
        return {"fidelity_mean": float(np.mean(vals)), "fidelity_std": float(np.std(vals))}

    rows = []
    for (i, (method, sigma)), eps, norm in itertools.product(
            enumerate(cells), config.epsilons, config.norms):
        # per seed, a failed explanation comes before its ball
        vals = [e if isinstance(e, str) else fids[i, k, eps, norm]
                for k, e in enumerate(exps[i])]
        keys = {"method": method.label, "sigma": sigma, "epsilon": eps, "norm": norm}
        rows.append(_cell_row(keys, ("fidelity_mean", "fidelity_std"), vals, score))
    return rows


def distributions_table(d: int, sigmas: tuple[float, ...],
                        ks: tuple[int, ...] | None = None) -> list[dict]:
    """Inspection dump: per (sigma, k) the count pmf and kernel weights."""
    if not 1 <= d <= MAX_DISTRIBUTIONS_D:
        raise ConfigError(f"d must be in [1, {MAX_DISTRIBUTIONS_D}], got {d}")
    if not sigmas:
        raise ConfigError("sigmas must be non-empty")
    check_scale("sigmas", *sigmas, error=ConfigError)
    if ks is None:
        ks = tuple(range(d + 1))
    if not ks or any(k < 0 or k > d for k in ks):
        raise ConfigError(f"ks must be non-empty and lie in [0, {d}]")
    shap = shap_weights_by_size(d)
    rows = []
    for sigma in sigmas:
        p = bernoulli_p(sigma)
        mean_w = expected_weight_uniform(d, sigma)
        for k in ks:
            rows.append(
                {
                    "sigma": sigma,
                    "k": k,
                    "bernoulli_p": p,
                    "count_pmf": binomial_pmf(d, sigma, k),
                    "exp_kernel_weight": float(np.exp((k - d) / sigma**2)),
                    "shap_kernel_weight": float(shap[k]) if 0 < k < d else None,
                    "expected_weight_uniform": mean_w,
                }
            )
    return rows


def reseed(config: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """Replace the seed list with substreams of a master seed (same count)."""
    seeds = tuple(substream_seed(master_seed, r) for r in range(len(config.seeds)))
    return dataclasses.replace(config, seeds=seeds)
