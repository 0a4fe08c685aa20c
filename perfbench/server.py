"""Spawn ``repro serve`` in a subprocess and account for its process tree.

Server CPU and peak RSS are read from ``/proc`` for the server pid and
every descendant (cluster workers are forked children), never from the
load generator's own process.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on (http://\S+)")


def read_stat(pid: int, proc: str = "/proc") -> tuple[int, int, int, int, int] | None:
    """``(ppid, utime, stime, cutime, cstime)`` in clock ticks, or None
    when the process is gone."""
    try:
        with open(f"{proc}/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[1]), int(fields[11]), int(fields[12]),
            int(fields[13]), int(fields[14]))


def descendants(root: int, proc: str = "/proc") -> list[int]:
    """``root`` and every live descendant, found through each process's
    parent pid."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir(proc):
        if not entry.isdigit():
            continue
        stat = read_stat(int(entry), proc)
        if stat is not None:
            children.setdefault(stat[0], []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds(root: int, proc: str = "/proc") -> float:
    """User+system CPU of ``root`` and its live descendants, plus what
    their reaped children already handed up (cutime/cstime)."""
    ticks = 0
    for pid in descendants(root, proc):
        stat = read_stat(pid, proc)
        if stat is not None:
            ticks += sum(stat[1:])
    return ticks / _CLK_TCK


def tree_peak_rss_mb(root: int, proc: str = "/proc") -> float:
    """Sum of ``VmHWM`` (peak resident set) over the process tree."""
    total_kb = 0
    for pid in descendants(root, proc):
        try:
            with open(f"{proc}/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One ``repro serve`` subprocess (optionally under the tracer)."""

    def __init__(self, root: Path, work: Path, databases: dict[str, str],
                 model_dir: Path, extra_args: list[str],
                 trace_dir: Path | None = None, count_tensors: bool = False):
        self.root = root
        self.log_path = work / f"server-{time.monotonic_ns()}.log"
        args = ["serve", "--port", "0", "--model", str(model_dir)]
        for db_id, path in sorted(databases.items()):
            args += ["--database", f"{db_id}={path}"]
        args += extra_args
        if trace_dir is not None:
            prefix = [sys.executable, str(root / "perfbench" / "traced_serve.py"),
                      str(trace_dir)] + (["--count-tensors"] if count_tensors else [])
        else:
            prefix = [sys.executable, "-m", "repro"]
        self.command = prefix + args
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None

    def start(self, timeout_s: float = 120.0) -> float:
        """Spawn and wait until ``/readyz`` answers 200 (every cluster
        worker warm); returns the seconds that took."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONHASHSEED"] = "0"
        log = open(self.log_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command, cwd=self.root, env=env, stdout=log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        log.close()
        deadline = start + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.log_tail()}")
            if self.url is None:
                match = _LISTENING.search(self.log_path.read_text())
                if match:
                    self.url = match.group(1)
            if self.url is not None and self._ready():
                return time.perf_counter() - start
            time.sleep(0.005)
        raise RuntimeError(f"server not ready in {timeout_s}s: {self.log_tail()}")

    def _ready(self) -> bool:
        try:
            with urllib.request.urlopen(self.url + "/readyz", timeout=2.0) as resp:
                return resp.status == 200
        except (urllib.error.URLError, OSError):
            return False

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_seconds(self) -> float:
        return tree_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.pid)

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log_path.read_text().splitlines()[-lines:])
        except OSError:
            return ""

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL the tree if it hangs;
        waits until the server and its workers have exited."""
        if self.proc is None or self.proc.poll() is not None:
            return
        tree = descendants(self.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            for pid in tree:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.wait(timeout=10.0)
        # Forked workers are reaped by the server; wait for any stragglers.
        deadline = time.monotonic() + 10.0
        for pid in tree[1:]:
            while time.monotonic() < deadline and read_stat(pid) is not None:
                time.sleep(0.01)
