"""Command-line entry point.

Subcommands: explain (one explanation as JSON), stability / converge /
fidelity (sweep tables as CSV or JSON, as the config's output.format says),
distributions (sampling-law dump).
Exit codes: 0 success, 1 configuration or usage error, 2 runtime failure,
running out of memory among them. Each command runs inside
solver.one_blas_thread: an explain of image-scale blocks keeps the second core
busy by handing the second half of its blocks to a helper thread, which lifts
and evaluates them while the calling thread does the first half
(models.evaluate_blocks), and a threaded product would leave an OpenBLAS worker
spinning through the lifts.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, EngineError, write_text
from .explain import (
    ExplainRequest,
    explain,
    explanation_to_json,
    method_from_json,
)
from .harness import (
    DistributionsConfig,
    ExplainConfig,
    build_space,
    distributions_table,
    emit,
    json_dumps,
    load_config,
    load_input,
    reseed,
    run_convergence,
    run_fidelity,
    run_stability,
)
from .models import check_input, load_model
from .solver import one_blas_thread


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors (exit 1), not argparse's exit 2
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="localex",
                     description="local explanation engine and experiment harness")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("explain", "compute one explanation and emit it as JSON"),
        ("stability", "top-K Jaccard stability sweep"),
        ("converge", "Lime vs GlimeBinomial distance as n grows"),
        ("fidelity", "local fidelity sweep over ball radii"),
        ("distributions", "dump sampling pmfs and kernel weights"),
    ):
        sp = subs.add_parser(name, help=blurb)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if name != "distributions":
            sp.add_argument("--seed", type=int, default=None,
                            help="master seed; replaces the config's seed(s)")
    return parser


def _cmd_explain(args: argparse.Namespace) -> int:
    config = load_config(args.config, ExplainConfig)
    method = method_from_json(config.method)
    model = load_model(config.model)
    x, shape = load_input(config.input)
    seg, reference = build_space(x, shape, config.segmentation, config.reference)
    check_input(model, x)
    req = ExplainRequest(
        model=model, x=x, segmentation=seg, method=method, n=config.n,
        seed=config.seed if args.seed is None else args.seed, lam=config.lam,
        reference=reference,
    )
    exp = explain(req)
    write_text(json_dumps(explanation_to_json(exp)) + "\n", args.out)
    return 0


_RUNNERS = {
    "stability": run_stability,
    "converge": run_convergence,
    "fidelity": run_fidelity,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = reseed(config, args.seed)
    emit(_RUNNERS[args.command](config), config.output.format, args.out)
    return 0


def _cmd_distributions(args: argparse.Namespace) -> int:
    config = load_config(args.config, DistributionsConfig)
    emit(distributions_table(config.d, config.sigmas, config.ks), config.output.format, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        with one_blas_thread():
            args = build_parser().parse_args(argv)
            if args.command == "explain":
                return _cmd_explain(args)
            if args.command == "distributions":
                return _cmd_distributions(args)
            return _cmd_sweep(args)
    except (EngineError, MemoryError) as exc:
        text = str(exc)
        if isinstance(exc, MemoryError):  # numpy's names the array; Python's own is bare
            text = f"out of memory: {text}" if text else "out of memory"
        # one line, whatever the text holds: a path from a config may hold line breaks
        print("error: " + "\\n".join(text.splitlines()), file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
