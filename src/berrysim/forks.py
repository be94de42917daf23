"""The one owner of forked processes: how many to run, and their lifecycle.

:func:`_worker_count` decides how many processes share a job, and
:func:`run_parts` runs its parts: the caller the lowest, a forked child
each of the others, read back in part order and reaped on every path.
Its two callers are the split ``full_sim`` ensemble
(:func:`berrysim.montecarlo.run_ensemble`) and the token ring
(:mod:`berrysim.ring`) that writes large CSV tables; each keeps its own
break-even and work split.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading


def _worker_count(work: int, per_worker: int, parts: int) -> int:
    """Processes for ``work`` in ``parts`` that can run apart: one per usable
    CPU and per ``per_worker`` of work, at most one per part, at least one.
    One without CPU affinity (not Linux) or with another thread alive, since
    a fork copies one thread."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // per_worker, parts))


def _fork(work) -> tuple:
    """(pid, read end) of a child that pipes back ``work()`` pickled, or the
    exception it raised, and leaves by ``os._exit``, so that it flushes no
    buffer it inherited."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = work()
            except Exception as exc:
                payload = exc
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def run_parts(work, parts: int, name) -> list:
    """The results of ``work(lo, hi)`` over parts [0, parts), one per process, in part order.

    Children run ``work(k, k + 1)``, forked highest part first; where a
    fork fails, the caller keeps that part and all below it, and runs
    ``work(0, first)`` for ``first`` the lowest forked part.  Children
    are read in part order, so the caller's exception comes first, then
    each child's, raised as it is read.  A child that dies is a
    ``ChildProcessError`` that names ``name(k)``; it is raised only once
    the children above it are read and none raised, so an exception
    beats a death.  Every child is killed, where it still runs, and
    reaped on every path.
    """
    children = []  # (part, pid, pipe), lowest part first
    try:
        for k in range(parts - 1, 0, -1):
            try:
                pid, pipe = _fork(functools.partial(work, k, k + 1))
            except OSError:
                break
            children.insert(0, (k, pid, pipe))
        results = [work(0, children[0][0] if children else parts)]
        died = None
        while children:
            k, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0:
                died = died or ChildProcessError(
                    f"the process for {name(k)} exited with status {status}")
                continue
            results.append(pickle.loads(data))
            if isinstance(results[-1], BaseException):
                raise results[-1]
        if died is not None:
            raise died
        return results
    finally:
        if children:
            import signal  # only on a failure path, so not at import

            for _, pid, pipe in children:
                os.kill(pid, signal.SIGKILL)
                pipe.close()
                os.waitpid(pid, 0)
