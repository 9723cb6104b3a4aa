"""Child processes: timed runs with per-process peak memory, and the
analysis server.

Peak memory comes from each child's own rusage (``os.wait4``), or for the
server from its ``VmHWM`` in ``/proc``, read while it runs.
``RUSAGE_CHILDREN`` is avoided on purpose: it keeps the maximum over
every child ever reaped, so one big run would leak into later readings.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclass
class Child:
    """One finished child process."""

    argv: List[str]
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int
    timed_out: bool

    @property
    def crashed(self) -> bool:
        """Killed by a signal or the timeout, rather than exiting."""
        return self.timed_out or self.returncode < 0


def repro_env(root: Path, hash_seed: Optional[str] = None) -> Dict[str, str]:
    """The environment that runs ``python -m repro`` from the checkout."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def run(
    argv: List[str],
    env: Dict[str, str],
    cwd: Path,
    scratch: Path,
    timeout: float,
) -> Child:
    """Run ``argv`` to completion; output goes through files in ``scratch``
    so no pipe can fill and stall the child."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        argv=argv,
        returncode=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        wall_s=wall,
        maxrss_kb=usage.ru_maxrss,
        timed_out=expired.is_set(),
    )


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process, from ``/proc``; 0 once gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Server:
    """A ``repro serve --port 0 --workers 1`` child with a fresh cache."""

    def __init__(self, root: Path, scratch: Path, cache_dir: Path):
        self.root = root
        self.scratch = scratch
        self.cache_dir = cache_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for the first ``/v1/health`` 200; returns the
        seconds from spawn to that answer."""
        log = self.scratch / "serve.log"
        argv = repro_argv(
            "serve", "--port", "0", "--workers", "1",
            "--cache-dir", str(self.cache_dir),
        )
        start = time.perf_counter()
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT,
                env=repro_env(self.root), cwd=self.root,
            )
        deadline = start + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{log.read_text()}")
            if not self.port:
                self.port = _listening_port(log.read_text(errors="replace"))
            if self.port and self._health_ok():
                return time.perf_counter() - start
            time.sleep(0.005)
        raise RuntimeError("server did not answer /v1/health in time")

    def _health_ok(self) -> bool:
        try:
            status, _ = self.get("/v1/health", timeout=5.0)
        except OSError:
            return False
        return status == 200

    def get(self, path: str, timeout: float = 30.0) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post(self, body: bytes, timeout: float = 120.0) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request(
                "POST", "/v1/analyze", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> Dict[str, float]:
        status, body = self.get("/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)["counters"]

    def peak_rss_kb(self) -> int:
        """The server process's own peak resident set (``VmHWM``)."""
        return vm_hwm_kb(self.proc.pid) if self.proc is not None else 0

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM, then reap (killing after ``timeout``)."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _listening_port(log: str) -> int:
    marker = "listening on http://127.0.0.1:"
    at = log.find(marker)
    if at < 0:
        return 0
    digits = ""
    for ch in log[at + len(marker):]:
        if not ch.isdigit():
            break
        digits += ch
    return int(digits) if digits else 0
