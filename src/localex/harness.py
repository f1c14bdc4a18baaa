"""Experiment harness: deterministic sweeps over methods, kernel widths, sample
sizes, and regularization, emitting plot-ready CSV/JSON tables.

Grid cells are independent; failures are recorded in an error column instead of
aborting the sweep, except running out of memory, which stops it. Re-running an identical config yields byte-identical files:
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

from .errors import ConfigError, check_rows, check_scale, read_fields, read_json, write_text
from .explain import (
    ExplainRequest,
    Explanation,
    Lime,
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
    ExpKernel,
    batch_weights,
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


# Each JSON object a command reads is a frozen dataclass whose fields are its keys,
# read by errors.read_fields; a nested object is a dataclass field, null its defaults.


@dataclass(frozen=True)
class Grid:
    """A config's segmentation: rows x cols grid cells on an image input; with
    neither given, every coordinate is its own feature."""

    rows: int | None = None
    cols: int | None = None


@dataclass(frozen=True)
class Metrics:
    """A sweep config's metrics: stability's top-K (None: min(20, d)), and
    fidelity's ball radii, norms and ball points."""

    k: int | None = None
    epsilons: tuple[float, ...] = (0.5,)
    norms: tuple[str, ...] = ("l2",)
    m: int = 2048

    def __post_init__(self) -> None:
        for name in ("epsilons", "norms"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        check_scale("epsilons", *self.epsilons, error=ConfigError)
        if any(norm not in NORMS for norm in self.norms):
            raise ConfigError(f"norms must be among {', '.join(NORMS)}")
        if self.m < 1:
            raise ConfigError("m must be >= 1")


@dataclass(frozen=True)
class Output:
    """A table config's output: the table's format. --out names its file."""

    format: str = "csv"

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ConfigError("output format must be csv or json")


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep config: a grid of methods x sigmas x lambdas x sample sizes, seeds
    within. Each method entry is a method's JSON fields without sigma."""

    model: str
    input: str
    methods: tuple[dict, ...]
    sigmas: tuple[float, ...]
    sample_sizes: tuple[int, ...]
    lambdas: tuple[float, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    segmentation: Grid = Grid()
    reference: str = "mean"
    metrics: Metrics = Metrics()
    output: Output = Output()

    def __post_init__(self) -> None:
        for name in ("methods", "sigmas", "sample_sizes", "lambdas", "seeds"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be >= 0")
        if any(n < 1 for n in self.sample_sizes):
            raise ConfigError("sample sizes must be >= 1")
        check_scale("sigmas", *self.sigmas, error=ConfigError)
        if not all(0 <= lam < math.inf for lam in self.lambdas):
            raise ConfigError("lambdas must be finite and >= 0")
        for entry in self.methods:
            if "sigma" in entry:
                raise ConfigError(
                    "method entries must not pin sigma; it comes from the sigmas axis"
                )
            method_from_json({**entry, "sigma": 1.0})  # validate tag and flags early


@dataclass(frozen=True)
class ExplainConfig:
    """An explain config: one method entry explained with n samples."""

    model: str
    input: str
    method: dict
    n: int
    seed: int = 0
    segmentation: Grid = Grid()
    reference: str = "mean"
    # explain puts a method's fixed lambda in its place
    lam: float = dataclasses.field(default=1.0, metadata={"key": "lambda"})


@dataclass(frozen=True)
class DistributionsConfig:
    """A distributions config: the arguments of distributions_table."""

    d: int
    sigmas: tuple[float, ...]
    ks: tuple[int, ...] | None = None
    output: Output = Output()


@dataclass(frozen=True)
class InputFile:
    """An input file that is an object; a file that is an array holds values alone."""

    values: np.ndarray
    shape: tuple[int, ...] | None = None


def load_config(path: str, cls: type = ExperimentConfig) -> Any:
    """The config file at path read as cls: ExperimentConfig, ExplainConfig or
    DistributionsConfig. Its model and input paths are taken relative to the
    file's directory."""
    values = read_fields(cls, read_json(path, "config"), "config")
    base_dir = os.path.dirname(os.path.abspath(path))
    for key in {"model", "input"} & values.keys():
        values[key] = os.path.join(base_dir, values[key])  # an absolute path stays
    return cls(**values)


def load_input(path: str) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Input file: either a flat JSON array or {"values": [...], "shape": [...]}, whose
    shape holds exactly its values."""
    obj = read_json(path, "input")
    file = InputFile(**read_fields(InputFile, obj if isinstance(obj, dict) else {"values": obj},
                                   "input file"))
    values, shape = file.values, file.shape
    if values.ndim != 1 or values.size == 0:
        raise ConfigError(f"input file {path} must hold a non-empty flat array of numbers")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"input file {path} holds NaN or infinite values")
    if shape is not None and (any(n < 1 for n in shape) or math.prod(shape) != values.size):
        raise ConfigError(f"input length {values.size} does not match shape {shape}")
    return values, shape


@dataclass(frozen=True)
class RunContext:
    model: ModelSpec
    x: np.ndarray
    segmentation: Segmentation
    reference: Reference


def build_space(x: np.ndarray, shape: tuple[int, ...] | None, grid: Grid,
                reference: str) -> tuple[Segmentation, Reference]:
    """Segmentation and reference for an input: grid cells or singletons."""
    if grid.rows is not None or grid.cols is not None:
        if shape is None or len(shape) not in (2, 3):
            raise ConfigError("grid segmentation needs an input with an image shape")
        if grid.rows is None or grid.cols is None:
            raise ConfigError("grid segmentation needs both rows and cols")
        h, w, c = (*shape, 1)[:3]  # an h x w image has one channel
        seg = grid_segment(h, w, c, grid.rows, grid.cols)
    else:
        seg = singleton_segments(x.shape[0])
    if reference == "mean":
        return seg, mean_reference(x, seg)
    if reference == "zero":
        return seg, Reference(np.zeros_like(x))
    raise ConfigError("reference must be 'mean' or 'zero'")


def build_context(config: ExperimentConfig) -> RunContext:
    model = load_model(config.model)
    x, shape = load_input(config.input)
    seg, reference = build_space(x, shape, config.segmentation, config.reference)
    check_input(model, x)
    check_rows("sample size x width", max(config.sample_sizes), x.size)
    check_rows("m x width", config.metrics.m, x.size)
    check_rows("the ridge system's d x d", seg.d, seg.d)
    return RunContext(model, x, seg, reference)


# ---------------------------------------------------------------------------
# sweep runners


def _attempt(compute: Callable[[], Any]) -> Any:
    """compute()'s value, or its failure as a cell's error text: the text, not
    the exception, whose traceback would pin the arrays of the frames it left.
    Running out of memory is raised instead and stops the sweep: it depends on
    the machine, not the config, so a table recording it would not reproduce."""
    try:
        return compute()
    except MemoryError:
        raise
    except Exception as exc:  # record, keep sweeping
        return f"{type(exc).__name__}: {exc}"


def _explain_grid(ctx: RunContext, config: ExperimentConfig, entries: tuple[dict, ...],
                  seeds: tuple[int, ...]) -> list[tuple[tuple, list[Explanation | str]]]:
    """The grid's (method, sigma, lambda, n) cells, entries x sigmas x lambdas x
    sample sizes in that order, each with an explanation, or the text of its
    failure or its request's rejection, per seed. A repeated entry or sigma
    keeps its own cell. The explains run grouped by the sample set they draw
    (law, lift, n and seed: Lime's fair coins take no sigma, and no sample takes
    lambda), so that each set is drawn, lifted and evaluated once and kept in
    one slot while its group runs. A method whose seed draws nothing (exact
    KernelShap) is explained once per cell, and that result serves every seed."""
    # each explanation held takes 8 d bytes and about 1 KiB more (measured at d = 16, 256)
    count = math.prod(map(len, (entries, config.sigmas, config.lambdas, config.sample_sizes)))
    check_rows("the sweep's explanations", count * len(seeds), ctx.segmentation.d + 128)
    cells = []
    for entry, sigma in itertools.product(entries, config.sigmas):
        method = method_from_json({**entry, "sigma": sigma})
        cells += [(method, sigma, lam, n)
                  for lam, n in itertools.product(config.lambdas, config.sample_sizes)]
    groups: dict[tuple, dict[tuple, None]] = {}
    for method, _, lam, n in cells:
        # a law that cannot be made (exact KernelShap past its cap) keys by its
        # error text; each explain of it then fails on its own
        law = _attempt(lambda: method.sampler(ctx.segmentation.d)[0])
        for s in seeds if method.seeded else seeds[:1]:
            groups.setdefault((law, method.binary, n, s), {})[method, n, lam, s] = None
    samples = OneSlot()
    done = {(method, n, lam, s): _attempt(lambda: explain(ExplainRequest(
                ctx.model, ctx.x, ctx.segmentation, method, n, s, lam, ctx.reference), samples))
            for group in groups.values() for method, n, lam, s in group}
    return [((method, sigma, lam, n),
             [done[method, n, lam, s if method.seeded else seeds[0]] for s in seeds])
            for method, sigma, lam, n in cells]


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
    check_rows("the seed pairs", len(config.seeds) * (len(config.seeds) - 1) // 2, 1)
    ctx = build_context(config)
    d = ctx.segmentation.d
    k = config.metrics.k
    if k is not None and not 1 <= k <= d:
        raise ConfigError(f"k must be in [1, {d}], got {k}")

    return [_cell_row({"method": method.label, "sigma": sigma, "lambda": lam, "n": n},
                      ("mean_jaccard", "std"), exps, lambda *e: top_k_jaccard(e, k))
            for (method, sigma, lam, n), exps in _explain_grid(
                ctx, config, config.methods, config.seeds)]


def run_convergence(config: ExperimentConfig) -> list[dict]:
    """Distance between Lime and GlimeBinomial explanations as n grows. The
    config's methods must be one plain Lime entry, the method the table names.

    Each (sigma, lambda) group carries an mse_monotone flag: whether the MSE
    strictly decreases across the sample-size grid.
    """
    methods = [method_from_json({**entry, "sigma": 1.0}) for entry in config.methods]
    if methods != [Lime(1.0)]:
        raise ConfigError('converge compares Lime with GlimeBinomial: methods must be '
                          '[{"method": "Lime"}]')
    ctx = build_context(config)
    grid = _explain_grid(ctx, config, ({"method": "Lime"}, {"method": "GlimeBinomial"}),
                         config.seeds[:1])
    half = len(grid) // 2  # every Lime cell, then the GlimeBinomial cells in the same order
    rows = [_cell_row({"sigma": sigma, "lambda": lam, "n": n},
                      ("mse", "mae", "pearson", "spearman", "mse_monotone"),
                      [lime[0], glime[0]], explanation_distance)
            for ((_, sigma, lam, n), lime), (_, glime) in zip(grid[:half], grid[half:])]
    size = len(config.sample_sizes)
    for start in range(0, len(rows), size):
        mses = [row["mse"] for row in rows[start:start + size]]
        monotone = None not in mses and all(b < a for a, b in zip(mses, mses[1:]))
        for row in rows[start:start + size]:
            row["mse_monotone"] = monotone
    return rows


def run_fidelity(config: ExperimentConfig) -> list[dict]:
    """Local fidelity per method and ball radius, mean/std over seeds.

    Explanations use the config's one sample size and one lambda; the ball
    sample for each seed comes from a disjoint substream. After every
    explanation exists, each (seed, norm) unit ball is drawn once and scaled
    to each epsilon; each (seed, epsilon, norm) ball is evaluated once and
    scored against all of that seed's explanations.
    """
    if len(config.sample_sizes) != 1 or len(config.lambdas) != 1:
        raise ConfigError("fidelity explains at one sample size and one lambda: "
                          "sample_sizes and lambdas must each hold one value")
    met = config.metrics
    # each (cell, epsilon, norm) holds a row of about 0.5 KiB and 44 bytes per seed (measured)
    scores = math.prod(map(len, (config.methods, config.sigmas, met.epsilons, met.norms)))
    check_rows("the fidelity table's scores", scores, 6 * len(config.seeds) + 64)
    ctx = build_context(config)
    grid = _explain_grid(ctx, config, config.methods, config.seeds)
    pairs = list(itertools.product(met.epsilons, met.norms))
    # per (cell, epsilon, norm), the cell's per-seed explanations; each one that
    # is scored is then overwritten by its fidelity or its ball's failure
    vals = {(i, *pair): list(exps) for i, (_, exps) in enumerate(grid) for pair in pairs}
    balls = OneSlot()
    for k, s in enumerate(config.seeds):
        scored = [i for i, (_, exps) in enumerate(grid) if isinstance(exps[k], Explanation)]
        if not scored:
            continue
        for norm, eps in itertools.product(met.norms, met.epsilons):
            reports = _attempt(lambda: local_fidelity(
                ctx.model, ctx.x, [grid[i][1][k] for i in scored], ctx.segmentation,
                eps, norm, met.m, substream_seed(s, _BALL_STREAM), balls,
            ))
            for j, i in enumerate(scored):  # a failed ball fails every cell it scores
                vals[i, eps, norm][k] = reports if isinstance(reports, str) else reports[j]

    def score(*fids: float) -> dict:
        return {"fidelity_mean": float(np.mean(fids)), "fidelity_std": float(np.std(fids))}

    return [_cell_row({"method": method.label, "sigma": sigma, "epsilon": eps, "norm": norm},
                      ("fidelity_mean", "fidelity_std"), vals[i, eps, norm], score)
            for i, ((method, sigma, _, _), _) in enumerate(grid) for eps, norm in pairs]


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
    # each k takes a d-byte mask and, per sigma, a row of about 450 bytes (measured)
    check_rows("the distributions table", len(ks), (d + 450 * len(sigmas)) // 8)
    shap = shap_weights_by_size(d)
    kept = np.arange(d) < np.asarray(ks)[:, None]  # one mask per k, its first k kept
    rows = []
    for sigma in sigmas:
        p = bernoulli_p(sigma)
        mean_w = expected_weight_uniform(d, sigma)
        exp_w = batch_weights(ExpKernel(sigma), kept)
        for k, w in zip(ks, exp_w):
            rows.append(
                {
                    "sigma": sigma,
                    "k": k,
                    "bernoulli_p": p,
                    "count_pmf": binomial_pmf(d, sigma, k),
                    "exp_kernel_weight": float(w),
                    "shap_kernel_weight": float(shap[k]) if 0 < k < d else None,
                    "expected_weight_uniform": mean_w,
                }
            )
    return rows


def reseed(config: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """Replace the seed list with substreams of a master seed (same count)."""
    seeds = tuple(substream_seed(master_seed, r) for r in range(len(config.seeds)))
    return dataclasses.replace(config, seeds=seeds)
