"""One ``python -m repro serve`` subprocess, started and stopped safely.

The harness picks a free port, captures the server's stderr/stdout to
the output directory, waits for ``/health`` with a deadline, and on
every exit path terminates the process — escalating to ``kill`` — and
waits until it has ended.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]

#: The ``Dockerfile`` default front-end; ``--workers 2`` matches nproc.
ASYNC_FLAGS = ("--async-io",)
HEALTH_DEADLINE = 30.0
STOP_GRACE = 10.0


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """A running server subprocess; use as a context manager."""

    def __init__(self, out_dir: Path, label: str, async_io: bool = True,
                 data_dir: Optional[str] = None):
        self.out_dir = out_dir
        self.label = label
        self.async_io = async_io
        self.data_dir = data_dir
        self.process: Optional[subprocess.Popen] = None
        self.command: List[str] = []
        self.url = ""
        self.peak_rss_mb = 0.0
        self._log = None

    def _spawn(self, extra: tuple) -> None:
        port = free_port()
        self.url = f"http://127.0.0.1:{port}"
        self.command = [sys.executable, "-m", "repro", "serve",
                        "--port", str(port), "--workers", "2",
                        "--log-level", "warning", *extra]
        if self.data_dir is not None:
            self.command += ["--data-dir", self.data_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self._log = open(self.out_dir / f"server-{self.label}.log", "ab")
        self.process = subprocess.Popen(
            self.command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log)

    def start(self) -> "Server":
        self._spawn(ASYNC_FLAGS if self.async_io else ())
        try:
            if not self._wait_healthy() and self.async_io:
                # argparse rejected --async-io (exit code 2): the
                # front-end is gone, relaunch on the one that is left
                self.stop()
                self._spawn(())
                if not self._wait_healthy():
                    raise RuntimeError("server exited during start-up")
        except BaseException:
            self.stop()
            raise
        return self

    def _wait_healthy(self) -> bool:
        """True once ``/health`` answers; False if the process exited
        with argparse's usage error; raises past the deadline."""
        deadline = time.monotonic() + HEALTH_DEADLINE
        while time.monotonic() < deadline:
            code = self.process.poll()
            if code is not None:
                if code == 2:
                    return False
                raise RuntimeError(
                    f"server exited with code {code} during start-up; "
                    f"see {self._log.name}")
            try:
                with urllib.request.urlopen(f"{self.url}/health",
                                            timeout=1.0) as reply:
                    if json.loads(reply.read()).get("status") == "ok":
                        return True
            except (urllib.error.URLError, OSError, ValueError):
                time.sleep(0.02)
        raise RuntimeError(f"server at {self.url} not healthy after "
                           f"{HEALTH_DEADLINE:.0f}s; see {self._log.name}")

    def _read_peak_rss(self) -> None:
        try:
            with open(f"/proc/{self.process.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = max(
                            self.peak_rss_mb, int(line.split()[1]) / 1024.0)
        except OSError:
            pass  # not Linux, or already gone: keep what we have

    def stop(self) -> None:
        """Graceful SIGTERM (the server checkpoints its store), then
        SIGKILL; always waits for the process to end."""
        process = self.process
        if process is not None:
            if process.poll() is None:
                self._read_peak_rss()
                process.terminate()
                try:
                    process.wait(timeout=STOP_GRACE)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            self.process = None
            if not self.peak_rss_mb:
                # no /proc: the largest waited-for child is the server
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if self._log is not None:
            self._log.close()
            if not os.path.getsize(self._log.name):
                os.unlink(self._log.name)  # it had no complaints
            self._log = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Served:
    """What the served workloads share: one server, one client on it,
    and the server's peak RSS kept across restarts."""

    server: Optional[Server] = None
    client = None
    command: List[str] = []
    rss_mb = 0.0

    def serve(self, server: Server) -> None:
        """Start ``server`` and connect the workload's client to it."""
        from repro import Client

        self.server = server.start()
        self.command = server.command
        self.client = Client.connect(server.url)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.rss_mb = max(self.rss_mb, self.server.peak_rss_mb)
            self.server = None

    def peak_rss_mb(self) -> float:
        return self.rss_mb
