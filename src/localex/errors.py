"""Error types shared across the package, the file helpers that turn OS and
JSON failures into them, and the one reader that types every JSON field.

The CLI maps ConfigError to exit code 1 and every other failure to exit
code 2, so keep configuration problems on the ConfigError branch.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import MISSING, fields
from typing import Any, get_type_hints

import numpy as np


# what a constructor that converts JSON arrays or range-checks its fields can
# raise: a missing key, a wrong type, a bad value, or an overflow
MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def check_scale(name: str, *values: float, error: type[Exception] = ValueError) -> None:
    """Raise error unless every value is a usable kernel or sampling width or ball
    radius, a number in [1e-150, 1e150]. The laws and kernels divide by a width's
    square, which stays a finite, normal double there; NaN fails the test."""
    for value in values:
        if not 1e-150 <= value <= 1e150:
            raise error(f"{name} must lie in [1e-150, 1e150], got {value}")


MAX_VALUES = 2**27  # float64 values one array of rows may hold: 1 GiB


def check_rows(name: str, rows: int, width: int) -> None:
    """Raise ConfigError unless rows of width float64 values fit in MAX_VALUES,
    so that no count read from a config asks for an unbounded array."""
    if rows * width > MAX_VALUES:
        raise ConfigError(f"{name} x width must be at most {MAX_VALUES} values, "
                          f"got {rows} x {width}")


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EngineError):
    """Invalid configuration: bad file, missing field, violated invariant."""


class DimensionMismatch(EngineError):
    """Widths disagree: an input's and the model's, or raw space's and feature
    space's."""


class InvalidGrid(ConfigError):
    """Grid segmentation parameters are non-positive or oversized."""


class RemoteUnavailable(EngineError):
    """Remote model endpoint unreachable, timed out, or returned HTTP >= 400."""


class RemoteMalformed(EngineError):
    """Remote model response did not match the request batch."""


class NonFiniteOutput(EngineError):
    """A model returned NaN or an infinite value. bad counts the model's non-finite
    responses when they were counted; 0 when a fit or an estimate overflowed."""

    def __init__(self, message: str, bad: int = 0) -> None:
        super().__init__(message)
        self.bad = bad


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


class DimensionTooLarge(ConfigError):
    """Exact coalition enumeration requested above the supported dimension, which
    the request alone rules out, so it is a configuration error."""


class IoFailure(EngineError):
    """Could not write an output artifact."""


def read_json(path: str, what: str) -> Any:
    """Parse a JSON input file; `what` names the file in the error message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # RecursionError: arrays or objects nested too deep to parse
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL character in the path
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


# each field kind: the JSON types it takes (true and false are never numbers) and its
# name in errors. An np.ndarray field takes an array of numbers, read by read_numbers.
_FIELD_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                bool: ((bool,), "true or false"), str: ((str,), "a string"),
                dict: ((dict,), "an object"), list: ((list,), "a list")}


def field(obj: dict, key: str, kind: Any, default: Any = MISSING) -> Any:
    """obj[key] read as kind: int, float (any number, returned as a float), bool, str,
    dict, np.ndarray (read_numbers), or [kind], a list of kind returned as a tuple. An
    absent key, or null where the default is None, reads as the default; without one
    it is a ConfigError, as is a value that kind does not take."""
    if key not in obj or obj[key] is None and default is None:
        if default is MISSING:
            raise ConfigError(f"missing field {key!r}")
        return default
    return _as_kind(obj[key], kind, key)


def _as_kind(value: Any, kind: Any, name: str) -> Any:
    if kind is np.ndarray:
        return read_numbers(value, name)
    listed = isinstance(kind, list)
    types, expected = _FIELD_KINDS[list if listed else kind]
    if isinstance(value, types) and (bool in types or not isinstance(value, bool)):
        if listed:
            return tuple(_as_kind(item, kind[0], f"{name}[{i}]") for i, item in enumerate(value))
        try:
            return float(value) if kind is float else value
        except OverflowError:  # an integer literal beyond the double range
            expected = "a number in the double range"
    raise ConfigError(f"{name} must be {expected}, got {json.dumps(value)}")


def read_numbers(value: Any, name: str) -> np.ndarray:
    """A JSON array of numbers as a float64 array of its shape. Each entry is a number
    as field reads one: an int or a float, never true, false, a string or null, and
    an integer only inside the double range. Nested arrays must be rectangular.
    Anything else is a ConfigError naming name."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be an array of numbers, got {json.dumps(value)}")
    # rows of unequal length, or nested deeper than numpy's 64 dimensions, leave
    # lists among the cells
    cells = np.array(value, dtype=object)
    flat = cells.reshape(-1)
    if not set(map(type, flat)) <= {int, float}:
        bad = next(cell for cell in flat if type(cell) not in (int, float))
        raise ConfigError(f"{name} must all be numbers, in rows of equal length; "
                          f"got {json.dumps(bad)}")
    try:
        return cells.astype(np.float64)
    except OverflowError as exc:
        raise ConfigError(f"{name} must fit a double: {exc}") from None


_type_hints = functools.cache(get_type_hints)  # a class's annotations, resolved once


def read_fields(cls: type, obj: dict) -> dict:
    """Keyword arguments for dataclass cls from a JSON object, each field read by its
    annotation and an absent one taking its default."""
    hints = _type_hints(cls)
    return {f.name: field(obj, f.name, hints[f.name], f.default) for f in fields(cls)}


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
    except (OSError, ValueError) as exc:  # ValueError: a NUL character in the path
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
