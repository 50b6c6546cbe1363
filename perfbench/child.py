"""Run one child process under a time and memory budget, and classify it.

The budget applies to the child only. In the child, before exec,
``RLIMIT_AS`` caps its address space and ``RLIMIT_CPU`` its processor time;
the parent also kills it once a wall-clock timeout passes. Peak RSS and wall
time come from ``os.wait4`` on that one child, so earlier children never
leak into a later one's figures.

Statuses: ``ok``; ``exit`` (nonzero exit for another reason); ``timeout``
(wall clock, or the processor-time limit's signal); ``oom`` (an allocation
failed under the address-space cap, or the kernel killed the child).
A child over budget is recorded with its status, never dropped.
"""

from __future__ import annotations

import os
import re
import resource
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# How an allocation failure under RLIMIT_AS surfaces: Python's MemoryError,
# a failed mmap of a shared object while importing, or OpenBLAS giving up.
_OOM_PATTERN = re.compile(rb"MemoryError|Cannot allocate memory|failed to map segment|Memory allocation")


@dataclass(frozen=True)
class Budget:
    wall_s: float = 120.0
    cpu_s: int = 120
    mem_mb: int = 2048


@dataclass
class ChildResult:
    argv: list
    status: str  # ok | exit | timeout | oom
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def describe(self) -> str:
        tail = self.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return f"{self.status} (rc={self.returncode}) for {' '.join(map(str, self.argv))}: {' | '.join(tail)}"


def _classify(returncode: int, timed_out: bool, stderr: bytes) -> str:
    if returncode == 0:
        return "ok"
    if timed_out or returncode == -signal.SIGXCPU:
        return "timeout"
    if returncode == -signal.SIGKILL or _OOM_PATTERN.search(stderr):
        return "oom"
    return "exit"


def run_child(argv, *, budget: Budget, cwd: Path, env: dict, log_dir: Path) -> ChildResult:
    """Run argv to completion under budget; stdout and stderr go to files in log_dir."""
    mem = budget.mem_mb << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mem, mem))
        resource.setrlimit(resource.RLIMIT_CPU, (budget.cpu_s, budget.cpu_s + 5))

    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "child.stdout", log_dir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err, preexec_fn=limit)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(budget.wall_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    return ChildResult(
        argv=list(argv),
        status=_classify(proc.returncode, timed_out.is_set(), stderr),
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=stderr,
    )
