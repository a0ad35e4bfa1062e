"""Run one command in a fresh process and measure what its user sees.

``wall_s`` runs from just before the process is spawned to its exit,
``first_output_s`` from the spawn to the first byte on its stdout, and
``peak_rss_mb`` is the rusage high-water mark ``wait4`` reports for the
process, which covers the largest of its waited-for children too.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CommandResult:
    returncode: int
    #: ``time.perf_counter()`` just before the spawn (a system-wide
    #: monotonic clock on Linux, so comparable with the child's).
    started: float
    stdout: bytes
    stderr: str
    wall_s: float
    first_output_s: float | None
    peak_rss_mb: float


def child_env(root: Path, tmp: Path) -> dict:
    """The environment every measured process runs in.

    The program is imported from the checkout's ``src`` only.  Stdout is
    unbuffered so the first table reaches the pipe when it is printed, as
    it reaches a terminal, instead of when an 8 KiB buffer fills.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp)
    return env


def run_command(argv: list[str], cwd: Path, env: dict, timeout: float = 170.0
                ) -> CommandResult:
    """Run ``argv`` to completion, reading its stdout as it arrives."""
    stderr_path = cwd / ".stderr"
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=stderr)
        # A hung command is killed, so the benchmark still ends in time.
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        first = None
        chunks = []
        fd = proc.stdout.fileno()
        try:
            while chunk := os.read(fd, 1 << 16):
                if first is None:
                    first = time.perf_counter() - started
                chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        # wait4 reaped the child; tell Popen so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
    text = stderr_path.read_text(errors="replace")
    stderr_path.unlink()
    return CommandResult(
        returncode=proc.returncode,
        started=started,
        stdout=b"".join(chunks),
        stderr=text,
        wall_s=wall,
        first_output_s=first,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def machine_speed(rounds: int = 3) -> float:
    """Seconds a fixed piece of work takes in this process, the median of
    ``rounds``: a reading of how fast the machine runs at the moment.

    The work is of the kinds the program spends its time on (interpreted
    loops over dicts, JSON encoding, NumPy arithmetic) but runs none of
    the program's code, so no change to the program can move it.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        table: dict[str, int] = {}
        for i in range(40_000):
            key = f"k{i % 997}"
            table[key] = table.get(key, 0) + i
        json.dumps([table] * 10)
        values = np.arange(100_000, dtype=float)
        for _ in range(20):
            values = np.sqrt(values * 1.0001 + 1.0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


#: Fresh-interpreter set-up: everything a command pays before its work.
SETUP_CODE = "import repro.experiments.runner as r; r.build_parser()"


def setup_seconds(python: str, cwd: Path, env: dict, repeats: int) -> list[float]:
    """Wall times of ``repeats`` fresh interpreters doing only set-up."""
    times = []
    for _ in range(repeats):
        result = run_command([python, "-c", SETUP_CODE], cwd, env)
        if result.returncode != 0:
            sys.stderr.write(result.stderr)
            raise RuntimeError("set-up interpreter failed")
        times.append(result.wall_s)
    return times
