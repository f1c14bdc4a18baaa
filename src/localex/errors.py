"""Error types shared across the package, and the file helpers that turn OS
and JSON failures into them.

The CLI maps ConfigError to exit code 1 and every other failure to exit
code 2, so keep configuration problems on the ConfigError branch.
"""
from __future__ import annotations

import json
import math
import os
import sys
from typing import Any


# what parsing a config value can raise: a missing key, a wrong type, a bad
# literal, or an overflow (a JSON number such as 1e400 reads as inf, and int(inf)
# overflows)
MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def check_positive(name: str, *values: float, error: type[Exception] = ValueError) -> None:
    """Raise error unless every value is a finite number > 0: a kernel or sampling
    width, or a ball radius. A JSON number such as 1e400 reads as inf, and NaN
    compares false, so both fail."""
    for value in values:
        if not 0 < value < math.inf:
            raise error(f"{name} must be finite and > 0, got {value}")


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EngineError):
    """Invalid configuration: bad file, missing field, violated invariant."""


class DimensionMismatch(EngineError):
    """Input width does not match the declared dimension."""


class LengthMismatch(EngineError):
    """Vector lengths disagree (raw space vs feature space)."""


class InvalidGrid(ConfigError):
    """Grid segmentation parameters are non-positive or oversized."""


class RemoteUnavailable(EngineError):
    """Remote model endpoint unreachable, timed out, or returned HTTP >= 400."""


class RemoteMalformed(EngineError):
    """Remote model response did not match the request batch."""


class NonFiniteOutput(EngineError):
    """A model returned NaN or an infinite value."""


class UnsupportedModel(EngineError):
    """Operation not defined for this model variant (e.g. gradient of Remote)."""


class ShapDegenerate(EngineError):
    """Shapley kernel weight requested for an all-on or all-off coalition."""


class SingularSystem(EngineError):
    """Unregularized normal equations are rank-deficient."""


class UnsupportedCombination(EngineError):
    """No closed-form moments for this distribution/weighting pair."""


class NotPositiveDefinite(EngineError):
    """Covariance parameters violate positive-definiteness of Sigma + lambda*I."""


class DimensionTooLarge(EngineError):
    """Exact coalition enumeration requested above the supported dimension."""


class IoFailure(EngineError):
    """Could not write an output artifact."""


def read_json(path: str, what: str) -> Any:
    """Parse a JSON input file; `what` names the file in the error message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def write_text(text: str, path: str | None) -> None:
    """Write an output artifact to path, or to stdout when path is None."""
    if path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            _discard_stdout()
            raise IoFailure(f"cannot write to stdout: {exc}") from exc
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so the interpreter's flush
    of what is still buffered at exit cannot fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor: nothing is flushed to one
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)
