"""One ``repro serve`` process: spawn, readiness, probes, clean stop.

stdout and stderr go straight to files, so no pipe can fill and stall
the server in the middle of a run.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional
from urllib.parse import urlsplit

#: How long a server may take to answer its first /healthz.
READY_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 30.0
_BANNER = re.compile(rb"listening on (http://[0-9.:\[\]]+)")


class ServerError(RuntimeError):
    pass


def program_env(root: str) -> Dict[str, str]:
    """The environment for a child that imports the program from
    ``root/src`` (and nothing else called ``repro``)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PYTHONSTARTUP", None)
    return env


class Server:
    """A served workload's server process.

    ``argv`` is everything after the interpreter: ``-m repro serve ...``
    for a plain run, or the traced launcher script and its arguments.
    """

    def __init__(
        self, root: str, workdir: str, name: str, argv: List[str]
    ) -> None:
        self.stdout_path = os.path.join(workdir, f"{name}.stdout")
        self.stderr_path = os.path.join(workdir, f"{name}.stderr")
        self.url: Optional[str] = None
        self.setup_s: Optional[float] = None
        self._children: List[int] = []
        with open(self.stdout_path, "wb") as out, open(
            self.stderr_path, "wb"
        ) as err:
            self._started = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                env=program_env(root),
                cwd=root,
            )

    # -- readiness ---------------------------------------------------

    def wait_ready(self) -> float:
        """Block until the first 200 from /healthz; returns seconds
        from spawn to that response."""
        deadline = self._started + READY_TIMEOUT_S
        while self.url is None:
            self._check_alive()
            with open(self.stdout_path, "rb") as handle:
                match = _BANNER.search(handle.read())
            if match:
                self.url = match.group(1).decode("ascii")
            elif time.perf_counter() > deadline:
                raise ServerError("server printed no listening banner")
            else:
                time.sleep(0.002)
        while True:
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = None
            if status == 200:
                self.setup_s = time.perf_counter() - self._started
                return self.setup_s
            self._check_alive()
            if time.perf_counter() > deadline:
                raise ServerError("/healthz never answered 200")
            time.sleep(0.002)

    def _check_alive(self) -> None:
        code = self.proc.poll()
        if code is not None:
            raise ServerError(
                f"server exited with {code} before it was ready: "
                f"{self.stderr_tail()}"
            )

    # -- probes --------------------------------------------------------

    def get(self, path: str):
        """One GET on a fresh connection: ``(status, body text)``."""
        parts = urlsplit(self.url)
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=30
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def metrics(self) -> str:
        status, text = self.get("/metrics")
        if status != 200:
            raise ServerError(f"/metrics answered {status}")
        return text

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, in MB (2**20 bytes)."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line for the server process")

    def _child_pids(self) -> List[int]:
        pids: List[int] = []
        task_dir = f"/proc/{self.proc.pid}/task"
        try:
            tids = os.listdir(task_dir)
        except OSError:
            return pids
        for tid in tids:
            try:
                with open(f"{task_dir}/{tid}/children") as handle:
                    pids.extend(int(p) for p in handle.read().split())
            except OSError:
                continue
        return pids

    # -- shutdown ------------------------------------------------------

    def stop(self) -> List[str]:
        """SIGTERM and wait; returns guard failures (empty when the
        exit was clean, stderr holds no traceback and no child of the
        server outlived it)."""
        problems: List[str] = []
        if self.proc.poll() is None:
            self._children = self._child_pids()
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                problems.append("server ignored SIGTERM and was killed")
        if self.proc.returncode != 0 and not problems:
            problems.append(
                f"server exited with code {self.proc.returncode}"
            )
        for pid in self._children:
            if os.path.exists(f"/proc/{pid}"):
                problems.append(f"child process {pid} survived the server")
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if b"Traceback" in self._read(self.stderr_path):
            problems.append(
                f"server stderr holds a traceback: {self.stderr_tail()}"
            )
        return problems

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    @staticmethod
    def _read(path: str) -> bytes:
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError:
            return b""

    def stderr_tail(self) -> str:
        return self._read(self.stderr_path)[-2000:].decode(
            "utf-8", "replace"
        )
