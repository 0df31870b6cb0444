"""Process-level helpers: thread pinning, RSS probes, leak checks.

Everything here reads ``/proc`` and ``/dev/shm`` of this Linux host and
touches only the benchmark's own processes.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

#: BLAS/OpenMP thread-count variables pinned to one thread per process.
#: OpenBLAS defaults to one thread per vCPU, which oversubscribes the
#: cores once two shard workers and the coordinator all run GEMMs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SHM_DIR = Path("/dev/shm")


def pin_threads() -> None:
    """Pin BLAS and OpenMP to one thread; must run before numpy is imported.

    The variables are inherited by spawned workers, so every process of
    a run gets the same setting.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"


def n_cpus() -> int:
    """vCPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _status_kib(pid: int | str, field: str) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    kib = _status_kib(pid, "VmHWM")
    if kib is None:
        raise RuntimeError(f"cannot read VmHWM of process {pid}")
    return kib / 1024.0


def child_pids(parent: int | None = None) -> list[int]:
    """Live direct children of ``parent`` (default: this process)."""
    parent = os.getpid() if parent is None else parent
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == parent and fields[0] != "Z":
            children.append(int(entry))
    return sorted(children)


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments visible in ``/dev/shm``."""
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The tracker is started as a side effect of spawning workers and of
    creating shared-memory segments; it would otherwise outlive the run
    by a moment. ``_stop`` is the stdlib's own shutdown hook for it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def reap_children(timeout_s: float = 10.0) -> list[int]:
    """Terminate and wait for any child still alive; return their pids.

    A clean run leaves nothing for this to do: it is the backstop that
    keeps a failed run from leaving processes behind.
    """
    leftover = child_pids()
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    for pid in leftover:
        while time.monotonic() < deadline:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            time.sleep(0.05)
        else:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    return leftover
