"""Error types shared across the package, the file helpers that turn OS and
JSON failures into them, and the one codec of every JSON object: a reader that
types each field and a writer.

The CLI maps ConfigError to exit code 1 and every other failure to exit
code 2, so keep configuration problems on the ConfigError branch.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, get_args, get_origin, get_type_hints

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
    """Raise ConfigError unless rows of width float64 values, an array called name,
    fit in MAX_VALUES, so that no count read from a config asks for an unbounded
    array."""
    if rows * width > MAX_VALUES:
        raise ConfigError(f"{name} must be at most {MAX_VALUES} values, got {rows} x {width}")


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


class ShapDegenerate(EngineError):
    """Shapley kernel weight requested for an all-on or all-off coalition."""


class SingularSystem(EngineError):
    """Unregularized normal equations are rank-deficient."""


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


# each scalar field kind: the JSON types it takes (true and false are never numbers)
# and its name in errors; tuple stands for tuple[X, ...], a JSON array of X
_FIELD_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                bool: ((bool,), "true or false"), str: ((str,), "a string"),
                dict: ((dict,), "an object"), tuple: ((list,), "a list")}


def field(obj: dict, key: str, kind: Any, name: str) -> Any:
    """obj[key] read as kind, an annotation read_fields takes; an absent key is a
    ConfigError naming obj as name."""
    if key not in obj:
        raise ConfigError(f"{name} is missing field {key!r}")
    return _as_kind(obj[key], kind, key)


def _as_kind(value: Any, kind: Any, name: str) -> Any:
    if kind is np.ndarray:
        return read_numbers(value, name)
    if is_dataclass(kind):
        return kind(**read_fields(kind, {} if value is None else value, name))
    args = get_args(kind)
    if type(None) in args:  # X | None
        return None if value is None else _as_kind(value, args[0], name)
    origin = get_origin(kind) or kind
    types, expected = _FIELD_KINDS[origin]
    if isinstance(value, types) and (bool in types or not isinstance(value, bool)):
        if origin is tuple:
            return tuple(_as_kind(item, args[0], f"{name}[{i}]") for i, item in enumerate(value))
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


def read_fields(cls: type, obj: Any, name: str, tags: tuple[str, ...] = ()) -> dict:
    """Keyword arguments for dataclass cls from a JSON object, called name in errors.
    Each field is read from its key, its name or else its metadata["key"], by its
    annotation: int, float (any number, returned as a float), bool, str, dict,
    np.ndarray (read_numbers), tuple[X, ...] (a list of X), X | None (null reads as
    None) or a dataclass (an object read by this function, null reading as {}, so as
    the class's defaults). An absent field takes its default; without one it is a ConfigError,
    as is a value its annotation does not take and a key that is neither a field's
    nor among tags."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object")
    keys = {f.metadata.get("key", f.name): f for f in fields(cls)}
    if unknown := next((key for key in obj if key not in keys and key not in tags), None):
        raise ConfigError(f"{name} has no field {unknown!r}")
    hints = _type_hints(cls)
    return {f.name: field(obj, key, hints[f.name], name) if key in obj or f.default is MISSING
            else f.default for key, f in keys.items()}


def read_tagged(obj: Any, tag: str, classes: dict[str, type], name: str, noun: str,
                extra: tuple[str, ...] = ()) -> Any:
    """The instance a tagged JSON object describes: the class that its tag field
    picks from classes, built from its other fields by read_fields. Errors call
    the object name until its tag is read, and "<tag> <noun>" after it, such as
    "mlp model". A key in extra is accepted where no field takes it. An unknown
    tag, and a constructor that raises MALFORMED, is one ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object")
    value = field(obj, tag, str, name)
    if value not in classes:
        raise ConfigError(f"{name} has unknown {tag} {value!r}, not one of {', '.join(classes)}")
    cls, name = classes[value], f"{value} {noun}"
    try:
        return cls(**read_fields(cls, obj, name, (tag, *extra)))
    except MALFORMED as exc:
        raise ConfigError(f"malformed {name}: {exc}") from exc


def to_json(value: Any) -> Any:
    """value as read_fields reads it back: a dataclass as an object of its fields,
    leaving out a flag that is off by default, a tuple or an array as a list."""
    if is_dataclass(value):
        return {f.name: to_json(v) for f in fields(value)
                if (v := getattr(value, f.name)) is not False or f.default is not False}
    if isinstance(value, tuple):
        return [to_json(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


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
