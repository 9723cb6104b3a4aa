"""``repro serve`` as a real subprocess: CLI flags, crash recovery,
signal-driven shutdown — the operational contract CI's serve-smoke job
re-checks on a live wheel.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def _live_group_members(pgid: int) -> list:
    """PIDs of the live (non-zombie) processes in process group ``pgid``,
    read from ``/proc`` (empty where there is no ``/proc``)."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # Fields after the parenthesised command: state, ppid, pgrp, ...
            state, _ppid, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # the process exited mid-scan
        if int(pgrp) == pgid and state != "Z":
            live.append(int(stat.parent.name))
    return live


@pytest.fixture
def serve_process(tmp_path):
    """A ``repro serve`` subprocess on an ephemeral port, with process
    workers and crash hooks enabled; yields (process, base_url).

    The server runs in its own session, so it and its forked pool workers
    form one process group.  Teardown stops it with SIGTERM (the clean
    shutdown path), SIGKILLs whatever of the group is still alive, and
    fails if any process of the group survives — an orphaned worker
    would otherwise outlive the test run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--test-hooks",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO),
        start_new_session=True,
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:\d+", banner)
    assert match, f"no listening banner in {banner!r}"
    yield proc, match.group(0)
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
    if _live_group_members(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    proc.stdout.close()
    deadline = time.monotonic() + 10
    while _live_group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_group_members(proc.pid) == []


def post(url: str, document) -> dict:
    data = json.dumps(document).encode()
    request = urllib.request.Request(
        url + "/v1/analyze", data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def get(url: str, route: str) -> dict:
    with urllib.request.urlopen(url + route, timeout=30) as response:
        return json.loads(response.read())


class TestServeSubprocess:
    def test_crash_then_respawn_then_sigterm(self, serve_process):
        proc, url = serve_process

        # 1. A healthy analysis through real worker processes.
        first = post(url, {"target": "counter", "stage": "full"})
        assert first["result"]["status"] == "ok"
        assert first["cached"] is False

        # 2. Kill a worker mid-job: one 500, structured.
        with pytest.raises(urllib.error.HTTPError) as info:
            post(url, {"kind": "__crash__"})
        assert info.value.code == 500
        error = json.loads(info.value.read())
        assert error["error"]["type"] == "worker-crash"

        # 3. The pool respawned: the next analysis succeeds, and the
        # earlier result is served from cache (state survived the crash).
        again = post(url, {"target": "counter", "stage": "full"})
        assert again["cached"] is True
        fresh = post(url, {"target": "counter", "stage": "partial"})
        assert fresh["result"]["status"] == "ok"
        counters = get(url, "/v1/stats")["counters"]
        assert counters["serve.workers.crashes"] == 1
        assert counters["serve.workers.crash_respawns"] == 1

        # 4. SIGTERM: clean exit 0 with the shutdown line.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert "shutting down" in proc.stdout.read()

    def test_run_and_suite_thin_clients(self, serve_process, tmp_path):
        proc, url = serve_process
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")

        run = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "examples/counter.rml", "--server", url,
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "100.00%" in run.stdout
        cached = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "examples/counter.rml", "--server", url,
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=300,
        )
        assert "[cached]" in cached.stdout

        report = tmp_path / "suite.json"
        suite = subprocess.run(
            [
                sys.executable, "-m", "repro", "suite", "examples",
                "--server", url, "--jobs", "4", "--json", str(report),
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=600,
        )
        assert suite.returncode == 0, suite.stderr
        document = json.loads(report.read_text())
        assert document["schema"] == "repro-coverage-suite/v2"
        assert document["totals"]["errors"] == 0

    def test_server_flag_rejects_local_only_output(self, serve_process):
        proc, url = serve_process
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "examples/counter.rml", "--server", url, "--traces", "2",
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=120,
        )
        assert out.returncode == 2
        assert "--server" in out.stderr

    def test_suite_fails_fast_when_server_is_down(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "suite", "examples",
                "--server", f"http://127.0.0.1:{port}",
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=120,
        )
        assert out.returncode == 2
        assert "unreachable" in out.stderr
