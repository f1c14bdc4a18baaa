"""The command line's exit-code contract, on generated files: 0 for success, 1 for a
bad configuration, 2 for a runtime failure, at most one `error:` line on stderr and
never a traceback.

Each example writes a model file, an input file and a config whose fields start out
well-formed, then replaces a few of them, or a whole file, with arbitrary JSON.
Every count drawn is at most 64 and every list holds a few items, so n, m and the
sample sizes stay <= 64 and d <= 8, and no model kind is remote. No generated config
can therefore allocate much or open a connection. The remote model's transport
failures are checked apart, against raw-socket servers that break HTTP.
"""
import contextlib
import io
import json
import os.path
import re
import socket
import tempfile
import threading

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_METHODS, asset
from localex import cli
from localex.cli import main

# well-formed values; corrupted() puts arbitrary JSON in place of some of them
FLOATS = st.floats(-2, 2)
# one width in four is any float at all (zero, negative, subnormal, huge, inf or NaN)
# or an integer beyond the double range
WIDTHS = st.one_of(*[st.floats(0.05, 4)] * 3, st.floats() | st.just(10**400))
# no "/" in generated text, so a string read as a path stays in the workspace and none
# is a URL
TEXT = st.text(st.characters(blacklist_characters="/"), max_size=4)
ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 64) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
).filter(lambda v: v != "remote")  # no model file may name a kind that connects
METHOD_NAMES = sorted({type(method).__name__ for method in ALL_METHODS})


def few(elements, min_size=1):
    return st.lists(elements, min_size=min_size, max_size=3)


@st.composite
def model_file(draw, d):
    kind = draw(st.sampled_from(["linear", "quadratic", "mlp"]))
    vector = st.lists(FLOATS, min_size=d, max_size=d)
    if kind == "mlp":
        hidden = draw(st.integers(1, 3))
        return {"kind": "mlp", "layers": [
            {"weights": [[draw(FLOATS) for _ in range(hidden)] for _ in range(d)],
             "bias": [draw(FLOATS) for _ in range(hidden)]},
            {"weights": [[draw(FLOATS)] for _ in range(hidden)], "bias": [draw(FLOATS)]}]}
    model = {"kind": kind, "coefficients": draw(vector), "bias": draw(FLOATS)}
    if kind == "quadratic":
        model["matrix"] = [draw(vector) for _ in range(d)]
    return model


@st.composite
def input_file(draw, d):
    values = draw(st.lists(FLOATS, min_size=d, max_size=d))
    shapes = [[d], [1, d], [d, 1], [d // 2, 2, 1]] if d % 2 == 0 else [[d], [1, d, 1]]
    return draw(st.sampled_from([values, {"values": values}]) | st.builds(
        lambda shape: {"values": values, "shape": shape}, st.sampled_from(shapes)))


def method_entry(with_sigma):
    return st.fixed_dictionaries(
        {"method": st.sampled_from(METHOD_NAMES), **({"sigma": WIDTHS} if with_sigma else {})},
        optional={"unit_weights": st.booleans(), "exact": st.booleans()})


COMMON = {
    "segmentation": st.fixed_dictionaries({}, optional={"rows": st.integers(1, 4),
                                                        "cols": st.integers(1, 4)}),
    "reference": st.sampled_from(["mean", "zero"]),
}
OUTPUT = st.fixed_dictionaries({}, optional={"format": st.sampled_from(["csv", "json"])})
CONFIGS = {
    "explain": st.fixed_dictionaries(
        {"model": st.just("model.json"), "input": st.just("input.json"),
         "method": method_entry(True), "n": st.integers(1, 64)},
        optional={"seed": st.integers(0, 2**64), "lambda": WIDTHS, **COMMON}),
    "sweep": st.fixed_dictionaries(
        {"model": st.just("model.json"), "input": st.just("input.json"),
         "methods": few(method_entry(False)), "sigmas": few(WIDTHS),
         "sample_sizes": few(st.integers(1, 64)), "lambdas": few(WIDTHS)},
        optional={"seeds": few(st.integers(0, 2**64)), **COMMON,
                  "metrics": st.fixed_dictionaries({}, optional={
                      "k": st.integers(1, 8), "epsilons": few(WIDTHS),
                      "norms": few(st.sampled_from(["l1", "l2", "linf"])),
                      "m": st.integers(1, 64)}),
                  "output": OUTPUT}),
    "distributions": st.fixed_dictionaries(
        {"d": st.integers(1, 8), "sigmas": few(WIDTHS)},
        optional={"ks": few(st.integers(0, 8), 0), "output": OUTPUT}),
}


def slots(obj, depth=2):
    """(container, key) of each value in obj, down to depth levels of nesting."""
    items = (obj.items() if isinstance(obj, dict) else enumerate(obj)
             if isinstance(obj, list) else ())
    return [slot for key, value in items
            for slot in [(obj, key), *(slots(value, depth - 1) if depth > 1 else [])]]


@st.composite
def corrupted(draw, obj):
    """obj with up to two values, at most two levels down, replaced by arbitrary JSON,
    or, rarely, all of it replaced."""
    where = slots(obj)
    if not where or draw(st.integers(0, 9)) == 0:
        return draw(ANY)
    for container, key in draw(st.lists(st.sampled_from(where), min_size=1, max_size=2)):
        container[key] = draw(ANY)
    return obj


@st.composite
def runs(draw):
    """([command, other flags], {file name: JSON value}) for one run besides its
    --config: well-formed files, of which at most one is corrupted."""
    command = draw(st.sampled_from(["explain", "stability", "converge", "fidelity",
                                    "distributions"]))
    d = draw(st.integers(1, 8))
    files = {"model.json": draw(model_file(d)), "input.json": draw(input_file(d)),
             "config.json": draw(CONFIGS[command if command in CONFIGS else "sweep"])}
    target = draw(st.sampled_from([None, *files]))
    if target is not None:
        files[target] = draw(corrupted(files[target]))
    flags = ["--seed", str(draw(st.integers(-2, 2**32)))] if draw(st.booleans()) else []
    return [command, *flags], files


@given(runs())
@settings(max_examples=100, deadline=None)
def test_every_generated_input_meets_the_exit_code_contract(run):
    (command, *flags), files = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        config = os.path.join(tmp, "config.json")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", config, *flags])
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error:") and err.count("\n") == 1, err


@contextlib.contextmanager
def raw_server(reply: bytes):
    """The URL of a server that reads each request whole, writes reply and closes the
    connection, and the list of request heads it has read."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)  # so the loop sees stop soon after it is set
    stop, heads = threading.Event(), []

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn, conn.makefile("rb") as rfile:
                head = b""
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    head += line
                rfile.read(int(re.search(rb"Content-Length: (\d+)", head)[1]))
                heads.append(head)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/predict", heads
    finally:
        stop.set()
        thread.join(timeout=30)
        listener.close()
    assert not thread.is_alive()


def run_remote_explain(model, tmp_path, capsys):
    """main's exit code and stderr for an explain of 8 GlimeGauss samples, one POST
    of 8 points, of the remote model whose file holds model."""
    files = {"model.json": {"kind": "remote", **model},
             "input.json": {"values": [0.5, -1.0, 2.0, 0.0]},
             "config.json": {"model": "model.json", "input": "input.json",
                             "method": {"method": "GlimeGauss", "sigma": 1}, "n": 8}}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    code = main(["explain", "--config", str(tmp_path / "config.json")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("reply", [
    b"garbage\r\n\r\n",  # no status line: http.client's BadStatusLine
    # 12 of the 100 bytes promised, then the close: http.client's IncompleteRead
    b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{\"values\": [",
], ids=["bad_status_line", "incomplete_read"])
def test_broken_http_is_retried_then_exits_2_with_one_error_line(reply, tmp_path, capsys):
    with raw_server(reply) as (url, heads):
        code, err = run_remote_explain({"endpoint": url, "retries": 1}, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"error: remote model at {url} failed: ") and err.count("\n") == 1, err
    assert len(heads) == 2  # the first attempt and its one retry


@pytest.mark.parametrize("value, error", [
    (b"[1.0]", "values must all be numbers"),
    (b"1" * 401, "values must fit a double"),
    (b'"1.5"', "values must all be numbers"),
    (b"true", "values must all be numbers"),
    (b"1" * 5000, "returned invalid JSON"),  # more digits than Python reads as an int
    (b"[" * 100_000 + b"]" * 100_000, "returned invalid JSON"),  # nested too deep
], ids=["list", "401_digit_integer", "string", "boolean", "5000_digit_integer",
        "deep_nesting"])
def test_a_reply_value_that_is_not_a_number_exits_2_with_one_error_line(value, error,
                                                                           tmp_path, capsys):
    body = b'{"values": [' + value + b", 0.0" * 7 + b"]}"
    reply = b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    with raw_server(reply) as (url, heads):
        code, err = run_remote_explain({"endpoint": url}, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"error: remote {error}") and err.count("\n") == 1, err
    assert len(heads) == 1


def test_a_nan_reply_exits_2_as_a_non_finite_output(tmp_path, capsys):
    body = b'{"values": [NaN' + b", 0.0" * 7 + b"]}"
    reply = b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    with raw_server(reply) as (url, heads):
        code, err = run_remote_explain({"endpoint": url}, tmp_path, capsys)
    assert code == 2
    assert err == "error: model returned 1 non-finite value(s) for 8 points\n", err
    assert len(heads) == 1


def test_an_endpoint_urllib_cannot_parse_exits_1_with_one_error_line(tmp_path, capsys):
    code, err = run_remote_explain({"endpoint": "http://[::1/p"}, tmp_path, capsys)
    assert code == 1
    assert err.startswith("error: ") and "Invalid IPv6 URL" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 9.31 GiB for an array with shape (50000, 25000) and "
                 "data type float64"),
     "error: out of memory: Unable to allocate 9.31 GiB for an array with shape (50000, "
     "25000) and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_2_with_one_line_and_puts_the_blas_count_back(
        exc, line, blas, monkeypatch, capsys):
    # a sweep cell that runs out of memory stops the sweep the same way
    def runner(config):
        raise exc

    get, seen = blas
    monkeypatch.setitem(cli._RUNNERS, "stability", runner)
    assert main(["stability", "--config", asset("stability.json")]) == 2
    assert capsys.readouterr().err == line
    assert seen["set"] == [1, 3] and get() == 3
