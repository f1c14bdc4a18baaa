import contextlib
import gc
import itertools
import json
import os
import socket
import ssl
import struct
import sys
import threading
import time
import urllib.request
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import asset
from localex import models
from localex.explain import ExplainRequest, GlimeBinomial, GlimeGauss, Lime, explain
from localex.feature_space import (Reference, grid_segment, mean_reference, reconstruct_binary,
                                   reconstruct_continuous)
from localex.harness import json_dumps
from localex.solver import one_blas_thread
from localex.errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteOutput,
    RemoteMalformed,
    RemoteUnavailable,
)
from localex.models import (
    REMOTE_MAX_RETRIES,
    REMOTE_MAX_TIMEOUT_MS,
    Layer,
    Linear,
    Mlp,
    BLOCK_ROWS,
    BLOCK_VALUES,
    Quadratic,
    Remote,
    evaluate,
    evaluate_blocks,
    check_input,
    load_model,
    model_from_json,
    model_to_json,
    points_body,
)
from oracles import (central_difference_gradient, distinct_rows_direct, explain_every_row,
                     gradient, lift_direct, lift_whole)


def small_mlp() -> Mlp:
    rng = np.random.default_rng(5)
    w1, w2 = rng.normal(size=(3, 8)) * 0.5, rng.normal(size=(8, 1)) * 0.5
    return Mlp((Layer(w1, rng.normal(size=8) * 0.1), Layer(w2, rng.normal(size=1) * 0.1)))


# ---------------------------------------------------------------------------
# builtin families


def test_linear_evaluates_rowwise():
    m = Linear(np.array([1.0, -2.0]), 0.5)
    out = evaluate(m, np.array([[1.0, 1.0], [0.0, 3.0]]))
    assert out.tolist() == [-0.5, -5.5]


def test_quadratic_matches_hand_computation():
    m = Quadratic(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 0.0]), 1.0)
    # f([1,2]) = 1 + 8 + 1 + 1 = 11
    assert evaluate(m, np.array([[1.0, 2.0]]))[0] == pytest.approx(11.0)


def test_quadratic_symmetrizes_its_matrix():
    m = Quadratic(np.array([[0.0, 2.0], [0.0, 0.0]]), np.zeros(2), 0.0)
    assert np.array_equal(m.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))
    # x^T A x is invariant under symmetrization
    assert evaluate(m, np.array([[3.0, 5.0]]))[0] == pytest.approx(30.0)


def test_mlp_forward_matches_manual_computation():
    m = small_mlp()
    x = np.array([0.2, -0.4, 1.0])
    first, out = m.layers
    manual = np.tanh(x @ first.weights + first.bias) @ out.weights + out.bias
    assert evaluate(m, x[None])[0] == pytest.approx(manual[0], rel=1e-14)


def test_mlp_rejects_inconsistent_layers():
    with pytest.raises(ValueError):
        Mlp((Layer(np.zeros((3, 4)), np.zeros(4)), Layer(np.zeros((5, 1)), np.zeros(1))))
    with pytest.raises(ValueError):
        Mlp((Layer(np.zeros((3, 2)), np.zeros(2)),))  # output width != 1


def test_evaluate_rejects_wrong_width():
    with pytest.raises(DimensionMismatch):
        evaluate(Linear(np.ones(3)), np.ones((2, 4)))
    with pytest.raises(DimensionMismatch):
        evaluate(Linear(np.ones(3)), np.ones(3))  # must be 2-d


def test_input_dim_per_family():
    assert Linear(np.ones(7)).width == 7
    assert small_mlp().width == 3
    assert Remote("http://localhost:1/f").width is None


def test_check_input_compares_the_input_length_with_the_model_width():
    check_input(Linear(np.ones(3)), np.zeros(3))
    check_input(Remote("http://localhost:1/f"), np.zeros(5))  # the server decides
    with pytest.raises(ConfigError, match="input has length 4, model expects 3"):
        check_input(Linear(np.ones(3)), np.zeros(4))


def test_a_builtin_block_is_the_largest_power_of_two_of_rows_within_the_block_values():
    rows = {dim: Linear(np.ones(dim)).block_rows
            for dim in (1, 16, 1024, 1025, 2048, 2049, 3072, 8192, 32768, 32769, 150528)}
    assert rows == {1: 512, 16: 512, 1024: 512, 1025: 256, 2048: 256, 2049: 128, 3072: 128,
                    8192: 64, 32768: 16, 32769: 16, 150528: 16}
    assert all(dim * step <= BLOCK_VALUES or step == 16 for dim, step in rows.items())
    # a remote model's blocks are whole batches, whatever their width
    assert [Remote("http://localhost:1/f", batch_size=b).block_rows
            for b in (1, 64, 100, 600)] == [1024, 1024, 1000, 1200]


def _block_case_models(dim):
    """A linear model, mlps of hidden width 1, 8 and 32 and, where its D^2
    forward stays cheap, a quadratic model, all of width dim."""
    rng = np.random.default_rng(dim)
    yield "linear", Linear(rng.normal(size=dim) * 0.1, 0.2)
    for hidden in (1, 8, 32):
        w1 = rng.normal(size=(dim, hidden)) / np.sqrt(dim)
        yield f"mlp{hidden}", Mlp([Layer(w1, rng.normal(size=hidden) * 0.1),
                                   Layer(rng.normal(size=(hidden, 1)), np.zeros(1))])
    if dim <= 64:
        yield "quadratic", Quadratic(rng.normal(size=(dim, dim)) * 0.01,
                                     rng.normal(size=dim) * 0.1, 0.1)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [16, 64, 1025, 3072])
def test_blocks_of_block_rows_give_the_bits_of_512_row_blocks(dim, order):
    # at one BLAS thread a response's bits depend on its row's place within the
    # kernel's 16-row unroll and on its call's size (one row, or a small-matrix
    # product), which blocks of a power of two of rows that divides 512, with a
    # short last block folded into the one before it, leave as they are
    pts = np.random.default_rng(7).normal(size=(2048, dim))
    with one_blas_thread():
        for name, model in _block_case_models(dim):
            for n in (1, 15, 16, 17, 129, 257, 513, 1300, 2048):
                blocks = [np.array(pts[start:min(start + BLOCK_ROWS, n)], order=order)
                          for start in range(0, n, BLOCK_ROWS)]
                expected = np.concatenate([model.forward(block) for block in blocks])
                y = evaluate_blocks(model, n, lambda rows: np.array(pts[rows], order=order),
                                    evaluate)
                assert y.tobytes() == expected.tobytes(), (name, n, model.block_rows)


def test_remote_rejects_what_it_cannot_use():
    for endpoint in ("x", "", "ftp://localhost/f", "localhost:1/f", "http://[::1/p",
                     "http://localhost:port/f", "http://localhost:65536/f"):
        with pytest.raises(ValueError, match="endpoint"):
            Remote(endpoint)
    for timeout_ms in (0, REMOTE_MAX_TIMEOUT_MS + 1, 10**308):
        with pytest.raises(ValueError, match="timeout_ms"):
            Remote("http://localhost:1/f", timeout_ms=timeout_ms)
    for retries in (-1, REMOTE_MAX_RETRIES + 1, 10**9):
        with pytest.raises(ValueError, match="retries"):
            Remote("http://localhost:1/f", retries=retries)
    Remote("https://localhost:1/f", timeout_ms=REMOTE_MAX_TIMEOUT_MS, retries=REMOTE_MAX_RETRIES)


# ---------------------------------------------------------------------------
# gradients


def test_linear_gradient_is_its_coefficients():
    c = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(gradient(Linear(c, 9.0), np.zeros(3)), c)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_quadratic_gradient_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    m = Quadratic(rng.normal(size=(3, 3)), rng.normal(size=3), 0.3)
    x = rng.normal(size=3)
    numeric = central_difference_gradient(lambda p: evaluate(m, p[None])[0], x)
    assert np.allclose(gradient(m, x), numeric, atol=1e-6)


def test_mlp_gradient_matches_independent_central_differences():
    # the gradient oracle differences an Mlp at step 1e-5; this one at 1e-6
    m = small_mlp()
    x = np.array([0.1, 0.2, -0.3])
    numeric = central_difference_gradient(lambda p: evaluate(m, p[None])[0], x, h=1e-6)
    assert np.allclose(gradient(m, x), numeric, atol=1e-8)


# ---------------------------------------------------------------------------
# JSON round trips


def test_model_json_round_trips():
    rng = np.random.default_rng(0)
    models = [
        Linear(rng.normal(size=4), 1.5),
        Quadratic(rng.normal(size=(3, 3)), rng.normal(size=3), -0.5),
        small_mlp(),
        Remote("http://localhost:9/f", timeout_ms=500, batch_size=16, retries=2),
    ]
    for m in models:
        back = model_from_json(model_to_json(m))
        assert type(back) is type(m)
        if not isinstance(m, Remote):
            pts = rng.normal(size=(5, m.width))
            assert np.allclose(evaluate(back, pts), evaluate(m, pts))
        else:
            assert back == m


def test_model_from_json_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        model_from_json({"kind": "forest"})
    with pytest.raises(ConfigError):
        model_from_json(["not", "an", "object"])
    with pytest.raises(ConfigError):
        model_from_json({"kind": "linear"})  # missing coefficients


def test_load_model_reads_the_bundled_assets():
    for name, dim in (("linear_8x8.json", 64), ("quadratic_10.json", 10),
                      ("mlp_small.json", 8)):
        m = load_model(asset(name))
        assert m.width == dim


@pytest.mark.parametrize("name", ["linear_8x8.json", "quadratic_10.json", "mlp_small.json"])
def test_bundled_model_files_are_what_model_to_json_writes(name):
    with open(asset(name), "rb") as fh:
        data = fh.read()
    assert (json_dumps(model_to_json(load_model(asset(name)))) + "\n").encode() == data


def test_load_model_missing_file_is_a_config_error():
    with pytest.raises(ConfigError):
        load_model("/no/such/model.json")


# ---------------------------------------------------------------------------
# the remote request body

def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


@st.composite
def batches(draw):
    """A batch in C, Fortran or strided layout: raw lifts of an explain's samples
    on a grid, or n x D cells over a pool of k bitwise-distinct floats, with k
    anywhere from 1 (every cell shares one token) to n D (no two cells do)."""
    source = draw(st.sampled_from(["binary", "continuous", "pool"]))
    if source == "pool":
        n, dim = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        k = draw(st.integers(1, n * dim))
        # st.floats draws -0.0, NaN, the infinities and subnormals among the rest
        pool = np.array(draw(st.lists(st.floats(), min_size=k, max_size=k, unique_by=_bits)))
        # each pool value once, then any of them, in any order
        rest = draw(st.lists(st.integers(0, k - 1), min_size=n * dim - k, max_size=n * dim - k))
        order = draw(st.permutations(range(n * dim)))
        batch = pool[np.r_[np.arange(k), rest].astype(int)[order]].reshape(n, dim)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        side, cells = draw(st.integers(1, 8)), draw(st.integers(1, 4))
        seg = grid_segment(side, side, draw(st.integers(1, 3)), min(cells, side), min(cells, side))
        x, n = rng.normal(size=seg.size), draw(st.integers(1, 70))
        if source == "binary":
            z = rng.integers(0, 2, size=(n, seg.d))
            batch = reconstruct_binary(x, mean_reference(x, seg), seg, z)
        else:
            batch = reconstruct_continuous(x, seg, rng.normal(size=(n, seg.d)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(batch)
    if layout == "strided":
        wide = np.zeros((2 * batch.shape[0], 2 * batch.shape[1]))
        wide[::2, 1::2] = batch
        return wide[::2, 1::2]
    return batch


_NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)


@given(batches())
@example(np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0]]))
@example(np.array([[np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, 1e-310, np.nan, np.inf]] * 4))
@example(np.r_[_NAN_PAYLOAD, np.nan, 1.0].reshape(1, 4).repeat(3, axis=0))
@example(np.array([[0.5]]))
@example(np.full((1, 7), -0.0))
@example(np.empty((0, 3)))
def test_points_body_is_json_dumps_byte_for_byte(batch):
    assert points_body(batch) == json.dumps({"points": batch.tolist()}).encode("utf-8")


# ---------------------------------------------------------------------------
# remote adapter against a real local HTTP server


class _Handler(BaseHTTPRequestHandler):
    mode = "sum"
    calls: list[int] = []
    bodies: list[bytes] = []  # each request body as received
    failing: set[int] = set()  # the calls, counted from 1, that get a 500 in any mode

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).bodies.append(raw)
        body = json.loads(raw)
        type(self).calls.append(len(body["points"]))
        if type(self).mode == "error" or len(type(self).calls) in type(self).failing:
            self.send_response(500)
            self.end_headers()
            return
        if type(self).mode == "short":
            payload = {"values": [0.0]}
        elif type(self).mode == "nonfinite":
            payload = {"values": [float("nan"), float("inf")]}  # JSON NaN, Infinity
        elif type(self).mode == "garbage":
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
            self.end_headers()
            self.wfile.write(b"not json")
            return
        else:
            payload = {"values": [float(sum(p)) for p in body["points"]]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


# a self-signed certificate for 127.0.0.1 and its key, valid from 2000 to 2999
LOOPBACK_TLS = os.path.join(os.path.dirname(__file__), "loopback_tls.pem")


@contextlib.contextmanager
def serving(handler, tls=False, threads=False):
    """The URL of a single-threaded HTTPServer answering with handler, in a thread;
    with tls, an https server with the certificate in LOOPBACK_TLS; with threads, a
    server that answers each request in a thread of its own."""
    httpd = (ThreadingHTTPServer if threads else HTTPServer)(("127.0.0.1", 0), handler)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(LOOPBACK_TLS)
        httpd.socket = context.wrap_socket(httpd.socket, server_side=True)
    # a short poll lets shutdown() return at once instead of after up to 0.5 s
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{httpd.server_port}"
    finally:
        httpd.shutdown()
        thread.join()
        httpd.server_close()


@pytest.fixture()
def server():
    _Handler.mode = "sum"
    _Handler.calls = []
    _Handler.bodies = []
    _Handler.failing = set()
    with serving(_Handler) as url:
        yield f"{url}/predict"


def test_remote_evaluates_and_batches(server):
    m = Remote(server, batch_size=4)
    pts = np.arange(20.0).reshape(10, 2)
    out = evaluate(m, pts)
    assert np.allclose(out, pts.sum(axis=1))
    assert sorted(_Handler.calls) == [2, 4, 4]  # two requests in flight: in either order


def test_remote_http_error_raises_unavailable(server):
    _Handler.mode = "error"
    with pytest.raises(RemoteUnavailable):
        evaluate(Remote(server), np.ones((2, 2)))


def test_remote_retries_then_raises(server, monkeypatch):
    pauses = []
    monkeypatch.setattr(models.time, "sleep", pauses.append)
    _Handler.mode = "error"
    with pytest.raises(RemoteUnavailable):
        evaluate(Remote(server, retries=2), np.ones((1, 2)))
    assert len(_Handler.calls) == 3
    assert pauses == [0.05, 0.1]  # before each retry, none before the first attempt


def test_remote_closes_each_failed_response(server, monkeypatch):
    monkeypatch.setattr(models.time, "sleep", lambda seconds: None)
    _Handler.mode = "error"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RemoteUnavailable):
            evaluate(Remote(server, retries=2), np.ones((1, 2)))
        gc.collect()  # an unclosed response's socket warns when collected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_remote_length_mismatch_is_malformed(server):
    _Handler.mode = "short"
    with pytest.raises(RemoteMalformed):
        evaluate(Remote(server), np.ones((3, 2)))


def test_remote_nan_and_infinity_are_non_finite_outputs(server):
    _Handler.mode = "nonfinite"
    with pytest.raises(NonFiniteOutput):
        evaluate(Remote(server), np.ones((2, 2)))


def test_remote_non_json_body_is_malformed(server):
    _Handler.mode = "garbage"
    with pytest.raises(RemoteMalformed):
        evaluate(Remote(server), np.ones((1, 2)))


class _SmallSendBuffer(_Handler):
    def setup(self):
        # a reply of more than a few hundred kB waits for the client to read it
        self.request.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        super().setup()


def test_a_single_threaded_server_takes_batches_beyond_the_socket_buffers(server):
    # block 1's request goes out before block 0's reply is read. Each body and reply
    # holds 5.2 MB, more than a socket takes before it is read, so the write of
    # block 1's request waits for the server, which waits to write block 0's reply
    # until the client reads it: the write must not hold up that read
    pts = -np.random.default_rng(0).random((400_000, 1)) * 1e-10
    out = evaluate(Remote(server, timeout_ms=5000, batch_size=200_000), pts)
    assert np.array_equal(out, pts[:, 0])
    assert _Handler.calls == [200_000, 200_000]


def test_a_single_threaded_https_server_takes_batches_beyond_the_socket_buffers(monkeypatch):
    # a single-threaded server shakes hands on block 1's connection only after it
    # has written block 0's reply, which waits for the client to read it: the
    # handshake must not hold up that read
    monkeypatch.setattr(ssl, "_create_default_https_context",
                        lambda: ssl.create_default_context(cafile=LOOPBACK_TLS))
    _Handler.mode, _Handler.calls, _Handler.bodies = "sum", [], []
    pts = -np.random.default_rng(1).random((100_000, 1)) * 1e-10
    with serving(_SmallSendBuffer, tls=True) as url:
        out = evaluate(Remote(url, timeout_ms=5000, batch_size=50_000), pts)
    assert np.array_equal(out, pts[:, 0])
    assert _Handler.calls == [50_000, 50_000]


class _Sockets:
    """The sockets socket.create_connection opens, as http.client opens them, and
    how many of them were open as each was opened."""

    def __init__(self):
        self.made, self.open_before = [], []

    def open(self) -> int:
        return sum(s.fileno() != -1 for s in self.made)

    def connect(self, *args, real=socket.create_connection, **kwargs):
        self.open_before.append(self.open())
        self.made.append(real(*args, **kwargs))
        return self.made[-1]


@pytest.fixture()
def sockets(monkeypatch):
    tracked = _Sockets()
    monkeypatch.setattr(socket, "create_connection", tracked.connect)
    return tracked


def test_two_requests_in_flight_on_two_connections_at_most(server, sockets):
    pts = np.arange(20.0).reshape(10, 2)
    assert np.array_equal(evaluate(Remote(server, batch_size=4), pts), pts.sum(axis=1))
    # batches 0 and 1 go out together, batch 2 once either one has its reply
    assert len(sockets.open_before) == 3 and max(sockets.open_before) <= 1
    assert sockets.open() == 0
    assert sorted(_Handler.bodies) == sorted(points_body(pts[s:s + 4]) for s in (0, 4, 8))


def test_a_failed_block_closes_the_request_sent_after_it(server, sockets):
    _Handler.failing = {2}  # the second POST fails; the one sent after it was in flight
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RemoteUnavailable, match="HTTP Error 500: Internal Server Error"):
            evaluate(Remote(server, batch_size=4), np.ones((10, 2)))
        assert sockets.open() == 0
        gc.collect()  # an unclosed connection's socket warns when collected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _pool_workers() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


def test_no_worker_outlives_a_forward_call(server):
    pts = np.arange(20.0).reshape(10, 2)
    _Handler.failing = {2}
    with pytest.raises(RemoteUnavailable, match="HTTP Error 500"):
        evaluate(Remote(server, batch_size=4), pts)
    assert _pool_workers() == []
    _Handler.failing = set()
    assert np.array_equal(evaluate(Remote(server, batch_size=4), pts), pts.sum(axis=1))
    assert _pool_workers() == []


def test_a_one_batch_call_posts_on_the_calling_thread(server, monkeypatch):
    pts = np.arange(8.0).reshape(4, 2)
    pooled = evaluate(Remote(server, batch_size=2), pts)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self)))
    one = evaluate(Remote(server, batch_size=4), pts)
    assert started == []
    assert one.tobytes() == pooled.tobytes() == pts.sum(axis=1).tobytes()
    assert _Handler.bodies[-1] == points_body(pts)


class _Threaded(BaseHTTPRequestHandler):
    """Answers each POST with the status and values reply(points) gives, for a
    server with threads, so that a POST held in reply holds up no other."""

    def do_POST(self):
        points = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["points"]
        status, values = self.reply(points)
        self.send_response(status)
        self.end_headers()
        self.wfile.write(json.dumps({"values": values}).encode())

    def log_message(self, *args):
        pass


def test_while_one_request_is_held_the_other_worker_posts_every_other_batch():
    arrivals, others_arrived, held = itertools.count(), threading.Event(), []

    class Handler(_Threaded):
        def reply(self, points):
            order = next(arrivals)
            if order == 0:  # the first POST waits until the four others have arrived
                held.append(others_arrived.wait(5))
            elif order == 4:
                others_arrived.set()
            return 200, [sum(p) for p in points]

    pts = np.arange(20.0).reshape(10, 2)
    with serving(Handler, threads=True) as url:
        out = evaluate(Remote(url, batch_size=2), pts)
    assert held == [True]
    assert np.array_equal(out, pts.sum(axis=1))


@pytest.mark.parametrize("failing", [0, 1])
def test_once_a_batch_fails_the_queued_batches_never_reach_the_server(failing):
    seen, answered = [], []

    class Handler(_Threaded):
        def reply(self, points):
            batch = int(points[0][0])  # batch i's points are all i
            seen.append(batch)
            if batch != failing:  # long enough for the call to cancel the queued batches
                time.sleep(0.3)
            answered.append(batch)
            return 500 if batch == failing else 200, [sum(p) for p in points]

    pts = np.repeat(np.arange(6.0), 2)[:, None]  # six batches of two points
    with serving(Handler, threads=True) as url:
        with pytest.raises(RemoteUnavailable, match="HTTP Error 500"):
            evaluate(Remote(url, batch_size=2), pts)
        assert sorted(answered) == sorted(seen)  # no request was in flight at the raise
    # batches 0 and 1 go out together. The worker that the failure frees may take
    # batch 2 before the call sees that failure; 3 to 5 never start
    assert sorted(seen) in ([0, 1], [0, 1, 2])


def test_one_remote_serves_two_threads_at_once(server):
    m = Remote(server, batch_size=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that the calls interleave
    try:
        for trial in range(20):
            _Handler.bodies = []
            pts = [np.arange(40.0).reshape(20, 2) + 100 * (2 * trial + i) for i in range(2)]
            outs, errors = [None, None], []

            def run(i):
                try:
                    outs[i] = evaluate(m, pts[i])
                except Exception as exc:  # reported by the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
                assert not t.is_alive()
            assert errors == []
            for out, p in zip(outs, pts):
                assert np.array_equal(out, p.sum(axis=1))
            # each body reaches the server exactly once
            assert sorted(_Handler.bodies) == sorted(points_body(p[s:s + 4])
                                                     for p in pts for s in range(0, 20, 4))
    finally:
        sys.setswitchinterval(interval)


def test_a_retry_leaves_the_other_request_in_flight(server, monkeypatch):
    monkeypatch.setattr(models.time, "sleep", lambda seconds: None)
    _Handler.failing = {2}  # the second POST's first attempt
    pts = np.arange(20.0).reshape(10, 2)
    out = evaluate(Remote(server, batch_size=4, retries=1), pts)
    assert np.array_equal(out, pts.sum(axis=1))
    # the failed POST goes out twice; the other request in flight, once
    blocks = [points_body(pts[s:s + 4]) for s in (0, 4, 8)]
    assert _Handler.bodies[1] in blocks
    assert sorted(_Handler.bodies) == sorted([*blocks, _Handler.bodies[1]])


def test_remote_non_finite_responses_are_counted_over_every_block(server):
    pts = np.zeros((10, 2))
    pts[[1, 5, 9]] = 1e308  # the server's sum of each of these rows is inf, one per block
    with pytest.raises(NonFiniteOutput, match=r"^model returned 3 non-finite value\(s\) "
                                              r"for 10 points$"):
        evaluate(Remote(server, batch_size=4), pts)


class _Proxy(BaseHTTPRequestHandler):
    """A forward proxy that answers every POST itself, with -1 for each point."""

    seen: list[tuple[str, str]] = []  # each request's target and Host header

    def do_POST(self):
        type(self).seen.append((self.path, self.headers["Host"]))
        points = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["points"]
        self.send_response(200)
        self.end_headers()
        self.wfile.write(json.dumps({"values": [-1.0] * len(points)}).encode())

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("no_proxy", [None, "127.0.0.1"])
def test_http_proxy_routes_each_post_unless_no_proxy_lists_the_host(server, monkeypatch,
                                                                     no_proxy):
    for var in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
        monkeypatch.delenv(var, raising=False)
    if no_proxy:
        monkeypatch.setenv("no_proxy", no_proxy)
    _Proxy.seen = []
    with serving(_Proxy) as proxy:
        monkeypatch.setenv("http_proxy", proxy)
        # urlopen's default opener reads the proxy variables once, when it is built
        monkeypatch.setattr(urllib.request, "_opener", None)
        out = evaluate(Remote(server, batch_size=4), np.ones((6, 2)))
    if no_proxy:
        assert _Proxy.seen == [] and np.array_equal(out, np.full(6, 2.0))
    else:  # the whole URL as the target, and the endpoint's host
        host = server.split("/")[2]
        assert _Proxy.seen == [(server, host)] * 2 and np.array_equal(out, np.full(6, -1.0))
        assert _Handler.calls == []


def test_remote_connection_refused_is_unavailable():
    with pytest.raises(RemoteUnavailable):
        evaluate(Remote("http://127.0.0.1:1/f", timeout_ms=300), np.ones((1, 2)))


def remote_request(server, method, n, seed, x=None, reference=None):
    """An explain of the sum of a 64-value input's points, served by _Handler,
    on a 4 x 4 grid: 16 segments."""
    x = np.random.default_rng(11).normal(size=8 * 8) if x is None else x
    seg = grid_segment(8, 8, 1, 4, 4)
    return ExplainRequest(model=Remote(server, batch_size=64), x=x, segmentation=seg,
                          method=method, n=n, seed=seed,
                          reference=mean_reference(x, seg) if reference is None else reference)


@pytest.mark.parametrize("method", [GlimeBinomial(0.5), GlimeGauss(0.5)],
                         ids=["binary_lift", "continuous_lift"])
def test_remote_explain_posts_json_dumps_of_each_lifted_block(server, method):
    req = remote_request(server, method, n=200, seed=3)
    explain(req)
    design, points = lift_whole(req)
    if method.binary:  # each distinct mask once, in the order the masks first occur
        points = lift_direct(req.x, req.segmentation, distinct_rows_direct(design),
                             req.reference.values)
    assert sorted(_Handler.bodies) == sorted(json.dumps({"points": points[s:s + 64].tolist()})
                                             .encode() for s in range(0, len(points), 64))


def test_a_small_sigma_binomial_explain_posts_its_distinct_masks_in_one_request(server):
    req = remote_request(server, GlimeBinomial(0.5), n=1024, seed=0)
    exp = explain(req)
    masks = distinct_rows_direct(lift_whole(req)[0])
    assert len(masks) < 64  # most of the 1024 masks keep every segment
    points = lift_direct(req.x, req.segmentation, masks, req.reference.values)
    assert _Handler.bodies == [json.dumps({"points": points.tolist()}).encode()]
    assert exp.n == 1024
    every_row = np.r_[explain_every_row(req)]
    assert _Handler.calls[1:] == [64] * 16  # the oracle's POSTs
    assert np.r_[exp.w, exp.intercept, exp.r2].tobytes() == every_row.tobytes()


def test_an_explain_whose_masks_are_all_distinct_posts_every_lifted_block(server):
    req = remote_request(server, Lime(0.5), n=200, seed=4)
    design, points = lift_whole(req)
    assert len(distinct_rows_direct(design)) == 200  # seed 3's 200 masks hold a repeat
    explain(req)
    assert sorted(_Handler.bodies) == sorted(json.dumps({"points": points[s:s + 64].tolist()})
                                             .encode() for s in range(0, 200, 64))


def test_remote_explain_counts_non_finite_responses_over_the_points_sent(server):
    x = np.zeros(64)
    x[[0, 1]] = 1e308  # both in segment 0: a point that keeps it sums to inf
    req = remote_request(server, GlimeBinomial(0.5), n=1024, seed=0, x=x,
                         reference=Reference(np.zeros(64)))
    masks = distinct_rows_direct(lift_whole(req)[0])
    bad = int(masks[:, 0].sum())
    assert 0 < bad < len(masks) < 1024
    with pytest.raises(NonFiniteOutput, match=rf"^model returned {bad} non-finite value\(s\) "
                                              rf"for {len(masks)} points$"):
        explain(req)


def test_a_failed_explain_closes_the_request_sent_after_the_failing_one(server):
    _Handler.failing = {2}  # block 1 fails; block 2 was sent before its reply was read
    req = remote_request(server, Lime(0.5), n=200, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RemoteUnavailable, match="HTTP Error 500: Internal Server Error"):
            explain(req)
        gc.collect()  # an unclosed connection's socket warns when collected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert _Handler.calls[:2] == [64, 64]
