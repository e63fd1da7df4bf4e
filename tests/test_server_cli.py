"""Two-process test of ``python -m repro serve --listen``.

Process 1 warms a store (``summarize``), process 2 serves it over HTTP
(``serve --listen 127.0.0.1:0 --require-warm``), and this test process —
a third party knowing only the CLI flags — talks to it with ``urllib``:
fingerprint-exact warm summarize over the wire, sharded NDJSON streaming,
``/metrics`` showing zero LP solves, and a clean SIGTERM shutdown.  A cold
store under ``--require-warm`` must exit :data:`repro.cli.EXIT_NOT_WARM`
*before* binding the socket.  Every ``serve`` flag that names a serving
knob lands on the :class:`~repro.api.RegenConfig` the server reads, and
``stats --url`` scrapes a running server.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import RegenConfig
from repro.cli import EXIT_NOT_WARM, _config, build_parser, main
from repro.server import RegenerationServer
from repro.service.service import RegenerationService

from tests.test_server import make_toy_schema

REPO = Path(__file__).resolve().parent.parent
FLAGS = ["--scale", "0.0002", "--queries", "3", "--workload", "simple"]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_cli(*argv: str) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=cli_env(), cwd=REPO, timeout=300,
    )


def read_line(proc: "subprocess.Popen[str]", timeout: float) -> str:
    """One stdout line from the subprocess, or fail within ``timeout``."""
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, min(remaining, 1.0)))
        if ready:
            line = proc.stdout.readline()
            break
        if proc.poll() is not None:
            break
    if not line:
        raise AssertionError(
            f"server produced no output within {timeout}s"
            f" (exit={proc.poll()}, stderr={proc.stderr.read()[-2000:]})")
    return line.strip()


def benchmark_wire_workload() -> dict:
    """The same workload the CLI flags name, as the HTTP wire object."""
    from repro.benchdata.datagen import generate_database
    from repro.benchdata.tpcds import simple_workload, tpcds_schema
    from repro.hydra.client import extract_constraints
    from repro.server import constraint_set_to_wire

    schema = tpcds_schema(scale_factor=0.0002)
    database = generate_database(schema, seed=7)
    workload = simple_workload(schema, num_queries=3, seed=3)
    return constraint_set_to_wire(
        extract_constraints(database, workload).constraints)


class TestServeListenCLI:
    def test_two_process_warm_serving(self, tmp_path):
        store = str(tmp_path / "store")

        # Process 1: pay the LP solves once.
        warm = run_cli("summarize", "--store", store, *FLAGS)
        assert warm.returncode == 0, warm.stderr
        fingerprint = next(
            line.split("=", 1)[1] for line in warm.stdout.splitlines()
            if line.startswith("fingerprint="))

        # Process 2: the HTTP front-end, ephemeral port, warm-only.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store,
             *FLAGS, "--listen", "127.0.0.1:0", "--require-warm",
             "--cursor-idle-timeout", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=cli_env(), cwd=REPO)
        try:
            banner = read_line(proc, timeout=240)
            assert f"fingerprint={fingerprint}" in banner
            assert "warm=True" in banner
            url = banner.split()[2]
            assert url.startswith("http://127.0.0.1:")

            with urllib.request.urlopen(url + "/healthz", timeout=30) as r:
                health = json.loads(r.read())
            assert health["status"] == "ok"
            assert health["require_warm"] is True

            # Fingerprint-exactness across processes: this process encodes
            # the same benchmark workload to the wire form and the server
            # resolves it onto process 1's summary, warm.
            body = json.dumps({"workload": benchmark_wire_workload()})
            request = urllib.request.Request(
                url + "/v1/summarize", data=body.encode("utf-8"),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as r:
                summarized = json.loads(r.read())
            assert summarized["warm"] is True
            assert summarized["fingerprint"] == fingerprint

            # Sharded streaming: two shards concatenate to the relation.
            rows = []
            total = None
            for index in (1, 2):
                with urllib.request.urlopen(
                        f"{url}/v1/stream/{fingerprint}/item?shard={index}/2",
                        timeout=60) as r:
                    total = int(r.headers["X-Repro-Total-Rows"])
                    rows.extend(json.loads(line)
                                for line in r.read().splitlines())
            assert total and len(rows) == total
            assert [row["i_item_sk"] for row in rows] == \
                list(range(1, total + 1))

            # Warm path across processes: zero LP solves in the server.
            with urllib.request.urlopen(url + "/metrics", timeout=30) as r:
                metrics = r.read().decode()
            assert "repro_lp_components_solved_total 0" in metrics
            assert "repro_service_warm_hits_total" in metrics

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "pipeline_runs=0" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

    def test_require_warm_cold_store_exits_3_before_binding(self, tmp_path):
        cold = run_cli("serve", "--store", str(tmp_path / "empty"), *FLAGS,
                       "--listen", "127.0.0.1:0", "--require-warm")
        assert cold.returncode == EXIT_NOT_WARM
        assert "refusing" in cold.stderr
        assert "listening on" not in cold.stdout

    def test_listen_flag_validation(self, tmp_path):
        bad = run_cli("serve", "--store", str(tmp_path / "s"), *FLAGS,
                      "--listen", "no-port")
        assert bad.returncode != 0

    def test_one_shot_serve_still_requires_relation(self, tmp_path):
        missing = run_cli("serve", "--store", str(tmp_path / "s"), *FLAGS)
        assert missing.returncode == 2
        assert "--relation is required" in missing.stderr


class TestServeFlagsReachTheConfig:
    @staticmethod
    def parse(tmp_path, *argv: str):
        return build_parser().parse_args(
            ["serve", "--store", str(tmp_path / "s"), *argv])

    def test_defaults_are_the_config_defaults(self, tmp_path):
        assert _config(self.parse(tmp_path)) == RegenConfig()

    @pytest.mark.parametrize("flag, knob, value", [
        ("--max-connections", "max_connections", 3),
        ("--request-timeout", "request_timeout", 4.5),
        ("--max-request-bytes", "max_request_bytes", 1024),
        ("--batch-size", "batch_size", 17),
        ("--cursor-idle-timeout", "cursor_idle_timeout", 9.0),
        ("--workers", "workers", 3),
    ])
    def test_flag_sets_its_knob(self, tmp_path, flag, knob, value):
        config = _config(self.parse(tmp_path, flag, str(value)))
        assert getattr(config, knob) == value
        assert config == RegenConfig(**{knob: value})


class TestStatsURL:
    """``stats --url`` reads a running server's ``/metrics`` and
    ``/v1/stats`` instead of opening a store directory."""

    @pytest.fixture
    def server(self, tmp_path):
        service = RegenerationService(make_toy_schema(),
                                      store=str(tmp_path / "store"))
        with RegenerationServer(service, port=0) as server:
            yield server
        service.close()

    def test_prometheus(self, server, capsys):
        assert main(["stats", "--url", server.url, "--prometheus"]) == 0
        assert "repro_server_requests_total" in capsys.readouterr().out

    def test_json(self, server, capsys):
        assert main(["stats", "--url", server.url, "--json"]) == 0
        assert isinstance(json.loads(capsys.readouterr().out), dict)
