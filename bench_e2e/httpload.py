"""The HTTP side of the load generator: server child and client connections.

The server runs in a child process (``server_child.py``), so the client
threads never share its GIL.  Clients keep one persistent connection each,
with ``TCP_NODELAY`` set and every request leaving in a single write, so
whatever stall shows up in a latency is the server's, not Nagle on the
client.  Fresh-connection requests are a separate, explicitly named probe.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"

#: Bound on every wait for the child (start-up line, drain after SIGTERM).
CHILD_TIMEOUT_S = 30.0


class ServerChild:
    """A ``RegenerationServer`` over an existing store, in its own process."""

    def __init__(self, store_dir: Path, smoke: bool, log_path: Path) -> None:
        self.log_path = log_path
        self._log = log_path.open("w")
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE_DIR)] + [p for p in [environment.get("PYTHONPATH")] if p])
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server_child.py"),
             str(store_dir), "smoke" if smoke else "full"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True,
            env=environment)
        self.host = "127.0.0.1"
        try:
            self.port = int(self._read_line()["port"])
        except BaseException:
            self.kill()
            raise

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, error_type: object, *exc_info: object) -> None:
        """Graceful stop when the block succeeded, kill when it raised."""
        if error_type is None:
            self.exit_report = self.stop()
        else:
            self.kill()

    def _read_line(self) -> Dict[str, object]:
        # The child prints exactly two lines: its port, then its exit report.
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child said nothing (exit {self.process.poll()});"
                f" stderr:\n{self.stderr_text()}")
        return json.loads(line)

    def stderr_text(self) -> str:
        self._log.flush()
        return self.log_path.read_text()[-4000:]

    def stop(self) -> Dict[str, object]:
        """SIGTERM, wait for the graceful drain, return the exit report."""
        self.process.send_signal(signal.SIGTERM)
        try:
            report = self._read_line()
            code = self.process.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self._log.close()
        if code != 0:
            raise RuntimeError(f"server child exited {code};"
                               f" stderr:\n{self.stderr_text()}")
        return report

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log.close()


class Client:
    """One persistent HTTP/1.1 connection; closed-loop request/response."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.sock = socket.create_connection((host, port), timeout=CHILD_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self.sock.close()

    def _send(self, method: str, path: str, body: bytes) -> http.client.HTTPResponse:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.sock.sendall(head + body)
        response = http.client.HTTPResponse(self.sock, method=method)
        response.begin()
        return response

    def json(self, method: str, path: str,
             body: bytes = b"") -> Tuple[int, Dict[str, object]]:
        """One request whose reply is a JSON object: ``(status, payload)``."""
        response = self._send(method, path, body)
        try:
            return response.status, json.loads(response.read())
        finally:
            response.close()

    def stream(self, path: str) -> Dict[str, object]:
        """GET an NDJSON stream; the body is read as it arrives and kept."""
        sent = time.perf_counter()
        response = self._send("GET", path, b"")
        try:
            # read1 returns as soon as any body byte is there; read(n) would
            # wait for n bytes and hide the time to the first one.
            pieces = [response.read1(1 << 16)]
            first_byte = time.perf_counter() - sent
            while pieces[-1]:
                pieces.append(response.read(1 << 20))
            return {
                "status": response.status, "body": b"".join(pieces),
                "first_byte_s": first_byte,
                "seconds": time.perf_counter() - sent,
                "total_rows": int(response.getheader("X-Repro-Total-Rows", -1)),
            }
        finally:
            response.close()


def fresh_json(host: str, port: int, method: str, path: str,
               body: bytes = b"") -> Tuple[int, Dict[str, object]]:
    """The same request over a connection opened for it and closed after."""
    client = Client(host, port)
    try:
        return client.json(method, path, body)
    finally:
        client.close()
