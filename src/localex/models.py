"""Black-box models: builtin synthetic families plus a remote HTTP adapter.

Builtin variants are pure and deterministic so analytic oracles stay exact.
Outputs are not clamped to [0,1]; the concentration theory behind the
explanation methods assumes bounded outputs, but the engine accepts any real
response and leaves the assumption to the caller.
"""
from __future__ import annotations

import dataclasses
import json
import time
import typing
import urllib.parse
from dataclasses import dataclass

import numpy as np

from .errors import (
    MALFORMED,
    ConfigError,
    DimensionMismatch,
    NonFiniteOutput,
    RemoteMalformed,
    RemoteUnavailable,
    UnsupportedModel,
    field,
    read_fields,
    read_json,
    read_numbers,
)

MLP_GRADIENT_STEP = 1e-5
# points a builtin model is given per forward call, so an explain lifts at most
# this many rows at once. BLAS kernels can treat a row by the row count of its
# call, so responses may differ from one whole call's in the last bits; the
# tests pin where blocks of this size match a whole call bit for bit.
BLOCK_ROWS = 512
REMOTE_MAX_TIMEOUT_MS = 3_600_000  # one hour per request
REMOTE_MAX_RETRIES = 10  # the pauses between attempts add up to 6.55 s at most


def _check_finite(*params: np.ndarray | float) -> None:
    """Raise ValueError unless every parameter value is finite: a model that holds
    NaN or an infinity is rejected at load, not at its first evaluation."""
    if not all(np.isfinite(p).all() for p in params):
        raise ValueError("parameters must be finite numbers")


class _Model:
    """A model kind's row, read by evaluate, gradient and the file codec instead
    of its type: these attributes, forward(points) and gradient(point). A model
    file holds the kind tag, then fields_to_json(); from_fields reads them back,
    an absent field taking its dataclass default."""

    kind: str  # the model file's "kind" tag
    width: int | None  # declared input width; None: the server defines it
    block_rows: int = BLOCK_ROWS  # the most points one forward call is given

    def fields_to_json(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}

    @classmethod
    def from_fields(cls, obj: dict) -> ModelSpec:
        return cls(**read_fields(cls, obj))


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

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.coefficients.copy()


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

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.matrix @ x) + self.coefficients


@dataclass(frozen=True)
class Mlp(_Model):
    """Fixed-weight dense network, tanh hidden activations, scalar linear output.

    weights[i] has shape (fan_in, fan_out); weights are loaded from a file and
    never trained. The file lists them as layers of {"weights", "bias"}.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    kind = "mlp"

    def __post_init__(self) -> None:
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(ws) != len(bs) or not ws:
            raise ValueError("need one bias vector per weight matrix")
        for w, b in zip(ws, bs):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("layer shapes are inconsistent")
        if ws[-1].shape[1] != 1:
            raise ValueError("output layer must produce a scalar")
        for w_prev, w_next in zip(ws, ws[1:]):
            if w_prev.shape[1] != w_next.shape[0]:
                raise ValueError("consecutive layer widths do not chain")
        _check_finite(*ws, *bs)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    width = property(lambda self: self.weights[0].shape[0])

    def forward(self, pts: np.ndarray) -> np.ndarray:
        h = pts
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ w + b)
        return (h @ self.weights[-1] + self.biases[-1])[:, 0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Central differences, one batched evaluation of 2D shifted points."""
        h, dim = MLP_GRADIENT_STEP, self.width
        shifts = np.vstack([x + h * np.eye(dim), x - h * np.eye(dim)])
        vals = evaluate(self, shifts)
        return (vals[:dim] - vals[dim:]) / (2.0 * h)

    def fields_to_json(self) -> dict:
        return {"layers": [{"weights": w.tolist(), "bias": b.tolist()}
                           for w, b in zip(self.weights, self.biases)]}

    @classmethod
    def from_fields(cls, obj: dict) -> Mlp:
        layers = field(obj, "layers", [dict])
        return cls([field(layer, "weights", np.ndarray) for layer in layers],
                   [field(layer, "bias", np.ndarray) for layer in layers])


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
    works on one while the client encodes or reads another."""

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
        """POST pts batch_size points at a time. Every batch is handed at once to a
        pool of two worker threads that this call makes, so two requests at most are
        in flight, and they may reach the server in either order. As soon as one
        fails, the batches still queued are cancelled, and the first failure in
        batch order is raised once both workers have stopped."""
        import concurrent.futures
        step = self.batch_size
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

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise UnsupportedModel("gradient is not available for remote models")

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
    evaluate: typing.Callable[[ModelSpec, np.ndarray], np.ndarray],
) -> np.ndarray:
    """The model's responses to n points made model.block_rows at a time:
    evaluate(model, rows(block)) for each block, a slice of range(n), in order.
    Callers pass the evaluate they look up themselves. Each block is made inside
    its call, so only one block of points exists at once. Raises
    NonFiniteOutput counting over all n points.
    """
    y = np.empty(n)
    bad = 0
    for start in range(0, n, model.block_rows):
        block = slice(start, start + model.block_rows)
        try:
            y[block] = evaluate(model, rows(block))
        except NonFiniteOutput as exc:
            if not exc.bad:  # not a count of this block's responses
                raise
            bad += exc.bad
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


def gradient(model: ModelSpec, point: np.ndarray) -> np.ndarray:
    """Gradient at one point; analytic for Linear/Quadratic, central differences for Mlp."""
    x = np.asarray(point, dtype=np.float64)
    dim = model.width
    if dim is not None and x.shape != (dim,):
        raise DimensionMismatch(f"point has shape {x.shape}, model expects ({dim},)")
    return model.gradient(x)


# ---------------------------------------------------------------------------
# model files: JSON with a "kind" tag selecting the variant


def model_from_json(obj: dict) -> ModelSpec:
    if not isinstance(obj, dict):
        raise ConfigError("model file must be a JSON object")
    kind = field(obj, "kind", str)
    if kind not in _KINDS:
        raise ConfigError(f"unknown model kind: {kind!r}")
    try:
        return _KINDS[kind].from_fields(obj)
    except MALFORMED as exc:
        raise ConfigError(f"malformed '{kind}' model: {exc}") from exc


def model_to_json(model: ModelSpec) -> dict:
    return {"kind": model.kind, **model.fields_to_json()}


def load_model(path: str) -> ModelSpec:
    return model_from_json(read_json(path, "model file"))
