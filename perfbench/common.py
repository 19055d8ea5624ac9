"""Shared pieces of the benchmark: paths, order statistics, host provenance.

Every timed quantity in this benchmark is a median over many fixed-size
windows taken after a warm-up, never one sample: on a small shared host
the time of a fixed pure-Python loop swings by up to 1.5x from neighbour
load, and medians of windows absorb short swings where single samples
do not.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import platform
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: checkout root (the benchmark runs from it) and the program's sources
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: everything the benchmark writes lands here (git-ignored)
OUT = ROOT / ".perfbench_out"

#: backends get two cores; load comes from one client thread
CORES = 2

PR_SET_CHILD_SUBREAPER = 36  # linux/prctl.h


def require_program() -> None:
    """Exit with code 2 when the checkout has no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; nothing to measure", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def use_checkout_tmp() -> None:
    """Send temporary files of this process and of every process it
    starts into the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def nearest_rank(sorted_xs: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(0, min(len(sorted_xs) - 1, math.ceil(q * len(sorted_xs)) - 1))
    return sorted_xs[rank]


def windowed(sample: Callable[[], float], windows: int, warmup: int = 2) -> float:
    """Median of ``windows`` calls of ``sample()`` after ``warmup`` calls
    whose values are discarded, so lazy set-up never lands in a sample."""
    values = [sample() for _ in range(warmup + windows)]
    return median(values[warmup:])


def per_op(op: Callable[[int], object], n: int) -> float:
    """Wall seconds per operation of ``op(n)``, which performs ``n``."""
    t0 = time.perf_counter()
    op(n)
    return (time.perf_counter() - t0) / n


@dataclass
class Outcome:
    """Operations attempted, failed (any cause) and wrong (failed its output check)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


def _spin(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc + i * i) & 0xFFFFFFFF
    return acc


def spin_ms(reps: int = 7, n: int = 200_000) -> float:
    """Median wall time of a fixed pure-Python loop: a slow or loaded
    host shows here, next to the numbers it slowed down."""
    return windowed(lambda: per_op(_spin, n) * n * 1e3, reps, warmup=1)


def provenance(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set (VmHWM) of one process in kB, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_rss_peak() -> None:
    """Reset this process's VmHWM to its current RSS, so the peak that
    ``rss_peak_mb`` reads starts after the benchmark's own set-up."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def rss_peak_mb(extra_pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus the given (still live) workers, MB."""
    return (_vm_hwm_kb("self") + sum(_vm_hwm_kb(pid) for pid in extra_pids)) / 1024.0


# -- child processes -----------------------------------------------------------


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants, so a
    process that outlives its own parent (the workers of a probe killed by
    its watchdog, say) is re-parented here and waited for by
    ``end_children``."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we looked
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry))
    return kids


def end_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Pools are shut down by their owners before this runs.  What is left
    is multiprocessing's resource tracker, which the spawn start method
    launches and which otherwise ends only after this process has exited,
    with nobody waiting for it; and any adopted orphan.  A child still
    running after ``grace_s`` is killed."""
    from multiprocessing import resource_tracker

    gc.collect()  # finalise dead queues and locks while the tracker still runs
    resource_tracker._resource_tracker._stop()  # closes its pipe, waits for it
    deadline = time.monotonic() + grace_s
    while kids := _children():
        for pid in kids:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0 and time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
            except (ChildProcessError, ProcessLookupError):
                pass  # reaped or gone since it was listed
        time.sleep(0.02)
