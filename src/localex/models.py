"""Black-box models: builtin synthetic families plus a remote HTTP adapter.

Builtin variants are pure and deterministic so analytic oracles stay exact.
Outputs are not clamped to [0,1]; the concentration theory behind the
explanation methods assumes bounded outputs, but the engine accepts any real
response and leaves the assumption to the caller.
"""
from __future__ import annotations

import json
import time
import typing
import urllib.parse
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteOutput,
    RemoteMalformed,
    RemoteUnavailable,
    read_json,
    read_numbers,
    read_tagged,
    to_json,
)

# points a builtin model is given per forward call, so an explain lifts at most
# this many rows at once. BLAS kernels can treat a row by the row count of its
# call, so responses may differ from one whole call's in the last bits; the
# tests pin where blocks of this size match a whole call bit for bit.
BLOCK_ROWS = 512
# evaluate_blocks overlaps blocks of this many values per point or more: D = 3072
# (32x32x3 images) gains, desk's D = 16 and 64 do not. A thread handoff costs
# about as much as lifting 512 points of 64 values: overlapping every explain of
# more than one block raised desk_sweeps' latency_ms_tail from 0.42-0.43 ms to
# 0.74 ms and its pass_s by a third (2-core VM, two 10 s runs, BENCH_31.json).
OVERLAP_FROM_WIDTH = 1024
REMOTE_MAX_TIMEOUT_MS = 3_600_000  # one hour per request
REMOTE_MAX_RETRIES = 10  # the pauses between attempts add up to 6.55 s at most


def _check_finite(*params: np.ndarray | float) -> None:
    """Raise ValueError unless every parameter value is finite: a model that holds
    NaN or an infinity is rejected at load, not at its first evaluation."""
    if not all(np.isfinite(p).all() for p in params):
        raise ValueError("parameters must be finite numbers")


class _Model:
    """A model kind's row, read by evaluate and the file codec instead of its
    type: these attributes and forward(points). A model file holds the kind tag,
    then the kind's fields, which are its constructor's arguments."""

    kind: str  # the model file's "kind" tag
    width: int | None  # declared input width; None: the server defines it
    block_rows: int = BLOCK_ROWS  # the most points one forward call is given


@dataclass(frozen=True)
class Linear(_Model):
    """f(x) = c . x + bias."""

    coefficients: np.ndarray
    bias: float = 0.0
    kind = "linear"

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("coefficients must be a flat vector")
        _check_finite(c, self.bias)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "bias", float(self.bias))

    width = property(lambda self: self.coefficients.shape[0])

    def forward(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.coefficients + self.bias


@dataclass(frozen=True)
class Quadratic(_Model):
    """f(x) = x^T A x + c . x + bias; A is symmetrized at construction."""

    matrix: np.ndarray
    coefficients: np.ndarray
    bias: float = 0.0
    kind = "quadratic"

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=np.float64)
        c = np.asarray(self.coefficients, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if c.shape != (a.shape[0],):
            raise ValueError("coefficients must match the matrix dimension")
        _check_finite(a, c, self.bias)
        object.__setattr__(self, "matrix", (a + a.T) / 2.0)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "bias", float(self.bias))

    width = property(lambda self: self.coefficients.shape[0])

    def forward(self, pts: np.ndarray) -> np.ndarray:
        quad = np.einsum("ni,ij,nj->n", pts, self.matrix, pts)
        return quad + pts @ self.coefficients + self.bias


@dataclass(frozen=True)
class Layer:
    """One dense layer of an mlp: weights of shape (fan_in, fan_out) and a bias of
    length fan_out, both finite."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ValueError("layer shapes are inconsistent")
        _check_finite(w, b)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class Mlp(_Model):
    """Fixed-weight dense network, tanh hidden activations, scalar linear output.

    Its layers are loaded from a file and never trained.
    """

    layers: tuple[Layer, ...]
    kind = "mlp"

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        if layers[-1].weights.shape[1] != 1:
            raise ValueError("output layer must produce a scalar")
        for prev, layer in zip(layers, layers[1:]):
            if prev.weights.shape[1] != layer.weights.shape[0]:
                raise ValueError("consecutive layer widths do not chain")
        object.__setattr__(self, "layers", layers)

    width = property(lambda self: self.layers[0].weights.shape[0])

    def forward(self, pts: np.ndarray) -> np.ndarray:
        h = pts
        for layer in self.layers[:-1]:
            h = np.tanh(h @ layer.weights + layer.bias)
        out = self.layers[-1]
        return (h @ out.weights + out.bias)[:, 0]


def points_body(batch: np.ndarray) -> bytes:
    """The request body json.dumps({"points": batch.tolist()}).encode() writes for a
    float64 batch, byte for byte. json encodes each distinct value once and the
    cells gather their tokens, so a binary lift's points (at most two values per
    column) cost a few tokens. Values are told apart by their bits, so -0.0 never
    takes 0.0's token."""
    pts = np.ascontiguousarray(batch, dtype=np.float64)
    values, inverse = np.unique(pts.view(np.uint64), return_inverse=True)
    # a float's JSON token holds no ", ", so the list's tokens split apart exactly
    tokens = np.array(json.dumps(values.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    rows = ("[" + ", ".join(row) + "]" for row in tokens[inverse.reshape(pts.shape)].tolist())
    return ('{"points": [' + ", ".join(rows) + "]}").encode("utf-8")


@dataclass(frozen=True)
class Remote(_Model):
    """HTTP adapter: POST {"points": [[...]]} -> {"values": [...]}, through
    urllib, one connection per POST. A forward call posts batch_size points at
    a time, two batches at once on two worker threads of its own, so the server
    works on one while the client encodes or reads another; a call of one batch
    posts it on the calling thread."""

    endpoint: str
    timeout_ms: int = 10000
    batch_size: int = 64
    retries: int = 0
    kind = "remote"
    width = None
    # whole batches: as many as fit in 2 * BLOCK_ROWS points, and two at least,
    # so that a forward call gives both workers a batch
    block_rows = property(lambda self: max(2, 2 * BLOCK_ROWS // self.batch_size) * self.batch_size)

    def __post_init__(self) -> None:
        if not self.endpoint.startswith(("http://", "https://")):
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {self.endpoint!r}")
        try:
            urllib.parse.urlsplit(self.endpoint).port  # raises where urlopen could not parse it
        except ValueError as exc:
            raise ValueError(f"endpoint {self.endpoint!r} is not a valid URL: {exc}") from None
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 1 <= self.timeout_ms <= REMOTE_MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms must be in [1, {REMOTE_MAX_TIMEOUT_MS}], "
                             f"got {self.timeout_ms}")
        if not 0 <= self.retries <= REMOTE_MAX_RETRIES:
            raise ValueError(f"retries must be in [0, {REMOTE_MAX_RETRIES}], got {self.retries}")

    def forward(self, pts: np.ndarray) -> np.ndarray:
        """POST pts batch_size points at a time. A single batch is posted on the
        calling thread. More are handed at once to a pool of two worker threads
        that this call makes, so two requests at most are in flight, and they may
        reach the server in either order. As soon as one fails, the batches still
        queued are cancelled, and the first failure in batch order is raised once
        both workers have stopped."""
        step = self.batch_size
        if len(pts) <= step:  # nothing to overlap, so no thread handoff to pay
            return self._post(pts)
        import concurrent.futures
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=2)
        try:
            posts = [pool.submit(self._post, pts[start:start + step])
                     for start in range(0, len(pts), step)]
            concurrent.futures.wait(posts, return_when=concurrent.futures.FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
        # the pool starts batches in order, so every batch cancelled comes after the
        # one that failed
        return np.concatenate([post.result() for post in posts])

    def _post(self, batch: np.ndarray) -> np.ndarray:
        """The server's values for batch's points: one POST and its retries, on the
        thread that calls this, through urlopen's default opener."""
        # an attempt fails with an OSError, as urllib's errors (a status >= 400, a
        # connection that fails) and the socket's (a timeout among them) are, or
        # with http.client's own (a broken status line, a body cut short)
        import http.client
        import urllib.error
        import urllib.request
        body, last_error = points_body(batch), None
        for attempt in range(self.retries + 1):
            if attempt:  # back off: 0.05 s before the first retry, doubling up to 1 s
                time.sleep(min(0.05 * 2 ** (attempt - 1), 1.0))
            request = urllib.request.Request(self.endpoint, body,
                                             {"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=self.timeout_ms / 1e3) as reply:
                    raw = reply.read()
                break
            except urllib.error.HTTPError as exc:
                exc.close()  # it holds the response and its socket
                last_error = exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
        else:
            raise RemoteUnavailable(f"remote model at {self.endpoint} failed: {last_error}")
        try:
            payload = json.loads(raw.decode("utf-8"))
        # ValueError: not UTF-8, not JSON, or an integer of more than 4,300 digits;
        # RecursionError: arrays or objects nested too deep to parse
        except (ValueError, RecursionError) as exc:
            raise RemoteMalformed(f"remote returned invalid JSON: {exc}") from exc
        try:
            values = read_numbers(payload.get("values") if isinstance(payload, dict) else None,
                                  "values")
        except ConfigError as exc:
            raise RemoteMalformed(f"remote {exc}") from None
        if values.shape != (len(batch),):
            raise RemoteMalformed(f"remote returned values of shape {values.shape} "
                                  f"for {len(batch)} points")
        return values


ModelSpec = Linear | Quadratic | Mlp | Remote

_KINDS = {cls.kind: cls for cls in typing.get_args(ModelSpec)}


def check_input(model: ModelSpec, x: np.ndarray) -> None:
    """Reject an input whose length is not the model's declared input width."""
    dim = model.width
    if dim is not None and len(x) != dim:
        raise ConfigError(f"input has length {len(x)}, model expects {dim}")


def _as_batch(model: ModelSpec, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be an n x D matrix, got shape {pts.shape}")
    dim = model.width
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatch(f"points have width {pts.shape[1]}, model expects {dim}")
    return pts


def _non_finite(bad: int, n: int) -> NonFiniteOutput:
    return NonFiniteOutput(f"model returned {bad} non-finite value(s) for {n} points", bad)


def evaluate_blocks(
    model: ModelSpec, n: int, rows: typing.Callable[[slice], np.ndarray],
    evaluate: typing.Callable[[ModelSpec, np.ndarray], np.ndarray], overlap: bool = False,
) -> np.ndarray:
    """The model's responses to n points made model.block_rows at a time:
    evaluate(model, rows(block)) for each block, a slice of range(n), in order.
    Callers pass the evaluate they look up themselves. Each block is made inside
    its call, so only one block of points exists at once. Raises
    NonFiniteOutput counting over all n points, else the first failure in block
    order.

    With overlap, for a builtin model of OVERLAP_FROM_WIDTH inputs or more and
    more than one block, the calling thread makes block k + 1 while one helper
    thread that this call makes and stops evaluates block k, so two blocks exist
    at once. Only evaluate runs on the helper: blocks are allocated by the
    calling thread, whose malloc arena then reuses their memory. The helper has
    stopped by the time the call returns or raises.
    """
    y = np.empty(n)
    bad = 0
    blocks = [slice(start, start + model.block_rows) for start in range(0, n, model.block_rows)]

    def collect(block: slice, values: typing.Callable[[], np.ndarray]) -> None:
        nonlocal bad
        try:
            y[block] = values()
        except NonFiniteOutput as exc:
            if not exc.bad:  # not a count of this block's responses
                raise
            bad += exc.bad

    # a remote model's width is None: it overlaps its own POSTs
    if overlap and len(blocks) > 1 and (model.width or 0) >= OVERLAP_FROM_WIDTH:
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as helper:
            pending = blocks[0], helper.submit(evaluate, model, rows(blocks[0])).result
            for block in blocks[1:]:
                try:
                    points = rows(block)
                finally:  # the block before fails first in block order
                    collect(*pending)
                pending = block, helper.submit(evaluate, model, points).result
            collect(*pending)
    else:
        for block in blocks:
            collect(block, lambda: evaluate(model, rows(block)))
    if bad:
        raise _non_finite(bad, n)
    return y


def evaluate(model: ModelSpec, points: np.ndarray) -> np.ndarray:
    """Apply the model row-wise to an n x D matrix; returns a length-n vector.

    No points, or more than model.block_rows, go through evaluate_blocks.
    Raises NonFiniteOutput when any response is NaN or infinite, so no
    non-finite value reaches the solver or the metrics.
    """
    pts = _as_batch(model, points)
    if not 0 < len(pts) <= model.block_rows:
        return evaluate_blocks(model, len(pts), pts.__getitem__, evaluate)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        out = model.forward(pts)
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise _non_finite(bad, len(out))
    return out


# ---------------------------------------------------------------------------
# model files: JSON with a "kind" tag selecting the variant


def model_from_json(obj: dict) -> ModelSpec:
    return read_tagged(obj, "kind", _KINDS, "model file", "model")


def model_to_json(model: ModelSpec) -> dict:
    return {"kind": model.kind, **to_json(model)}


def load_model(path: str) -> ModelSpec:
    return model_from_json(read_json(path, "model file"))
