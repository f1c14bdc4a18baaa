"""Single-threaded HTTP model server for the remote_explain workload.

Serves a localex linear model file over the remote protocol
(POST {"points": [[...]]} -> {"values": [...]}) and counts round trips, bytes
and service time, which GET /stats returns as JSON. It prints its port on the
first line of stdout once it listens.

    python3 perfbench/model_server.py MODEL.json
"""
from __future__ import annotations

import json
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer


class ModelServer(HTTPServer):
    def __init__(self, coefficients: list[float], bias: float) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.coefficients = coefficients
        self.bias = bias
        self.stats = {"round_trips": 0, "bytes_received": 0, "bytes_sent": 0,
                      "server_s": 0.0, "errors": 0}

    def predict(self, points: list[list[float]]) -> list[float]:
        c = self.coefficients
        if any(len(p) != len(c) for p in points):
            raise ValueError(f"points must have width {len(c)}")
        # a fixed summation order keeps the values, and so the outputs, identical
        return [sum(ci * xi for ci, xi in zip(c, p)) + self.bias for p in points]


class Handler(BaseHTTPRequestHandler):
    server: ModelServer
    # headers and body leave in one segment; with Nagle on and the body sent
    # separately, a delayed ACK could stall a reply by tens of milliseconds
    wbufsize = -1
    disable_nagle_algorithm = True

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        start = time.perf_counter()
        stats = self.server.stats
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            values = self.server.predict(json.loads(body)["points"])
        except (ValueError, KeyError, TypeError) as exc:
            stats["errors"] += 1
            self._reply(400, json.dumps({"error": str(exc)}).encode())
            return
        out = json.dumps({"values": values}).encode()
        self._reply(200, out)
        stats["round_trips"] += 1
        stats["bytes_received"] += len(body)
        stats["bytes_sent"] += len(out)
        stats["server_s"] += time.perf_counter() - start

    def do_GET(self) -> None:  # noqa: N802
        if self.path != "/stats":
            self._reply(404, b"{}")
            return
        self._reply(200, json.dumps(self.server.stats).encode())

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: model_server.py MODEL.json", file=sys.stderr)
        return 1
    with open(argv[0], encoding="utf-8") as fh:
        model = json.load(fh)
    if model.get("kind") != "linear":
        print("model_server serves linear models only", file=sys.stderr)
        return 1
    with ModelServer([float(c) for c in model["coefficients"]],
                     float(model.get("bias", 0.0))) as server:
        print(server.server_address[1], flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
