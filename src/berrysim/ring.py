"""The token ring that :func:`berrysim.cells.write_tables` forks for a large table.

``write_ring(chunk, fds, n_chunks, workers)`` writes chunks 0 to
n_chunks - 1 of one or more files.  ``chunk(i)`` yields chunk i's bytes
for each descriptor in ``fds``, in order.  Process i % workers formats
chunk i and writes it with ``os.write`` once it holds chunk i - 1's
token, one byte on a pipe, then passes the token on: ``_GO`` if the
chunk is written, ``_STOP`` if it or an earlier one failed.  A process
that reads ``_STOP``, or the end of a pipe whose writer has left, stops.
A process fails a chunk only once it holds the token of the chunk
before, so at most one process fails, and its chunk is the earliest
that fails; the caller raises that chunk's exception, from whichever
process, or a ``ChildProcessError`` for a child that died.  So the files
hold the bytes, and an error is the one, that one process writing the
chunks in order gives.  Children leave by ``os._exit``, as
``montecarlo._fork`` makes them.

cells imports this module only to fork: where the host writes no
bytecode, compiling it allocates about 350 KB at its peak, which a
command that writes a small table would pay for nothing.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal

from .montecarlo import _fork

_GO, _STOP = b"+", b"-"  # the token after a chunk: it is written, or it or one before failed


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while len(view):
        view = view[os.write(fd, view):]


def _pass(fd: int, token: bytes) -> None:
    with contextlib.suppress(BrokenPipeError):  # the next process has left
        os.write(fd, token)


def _ring_share(chunk, fds, n_chunks, workers, residues, inbound, outbound):
    """Write each chunk i with i % workers in ``residues`` once chunk i - 1's
    token is here; return the exception of the earliest failing chunk where it
    is one of these, else None."""
    failure = None
    for i in range(n_chunks):
        if i % workers not in residues:
            continue
        try:
            payloads = list(chunk(i))
        except Exception as exc:
            failure = exc
        if i and i % workers == residues.start and os.read(inbound, 1) != _GO:
            failure = None  # an earlier chunk failed, or the process writing it left
            break
        if failure is None:
            try:
                for fd, payload in zip(fds, payloads):
                    _write_all(fd, payload)
            except Exception as exc:
                failure = exc
            payloads = payload = None  # a chunk's bytes are not kept past their write
        if failure is not None:
            break
        if i % workers == residues.stop - 1 and i + 1 < n_chunks:
            _pass(outbound, _GO)
    else:
        return None
    _pass(outbound, _STOP)
    return failure


def _child_share(open_ends: set, inbound: int, outbound: int, *share):
    """A forked child's share: it closes the token pipe ends that are not its own first."""
    for fd in open_ends - {inbound, outbound}:
        os.close(fd)
    return _ring_share(*share, inbound, outbound)


def write_ring(chunk, fds: list, n_chunks: int, workers: int) -> None:
    """Write chunks 0 to n_chunks - 1 on ``fds``, process i % workers writing chunk i.

    Pipe r takes the token into the process of residue r.  Children are
    forked highest residue first; where a fork fails, the caller keeps that
    residue and all below it.  The caller raises the earliest failing
    chunk's exception, or a ``ChildProcessError`` for a child that died,
    and reaps every child on every path.
    """
    open_ends = set()  # the token pipe ends open in this process

    def pipe() -> tuple:
        ends = os.pipe()
        open_ends.update(ends)
        return ends

    def close(*ends) -> None:
        for fd in ends:
            open_ends.discard(fd)
            os.close(fd)

    pipes = {0: pipe()}
    children = []  # (residue, pid, result pipe), lowest residue first
    try:
        for r in range(workers - 1, 0, -1):
            pipes[r] = pipe()
            inbound, outbound = pipes[r][0], pipes[(r + 1) % workers][1]
            share = (chunk, fds, n_chunks, workers, range(r, r + 1))
            try:
                pid, result = _fork(functools.partial(
                    _child_share, open_ends, inbound, outbound, *share))
            except OSError:
                close(*pipes.pop(r))
                break
            children.insert(0, (r, pid, result))
            close(inbound, outbound)
        first = children[0][0] if children else workers
        failure = _ring_share(chunk, fds, n_chunks, workers, range(first),
                              pipes[0][0], pipes[first % workers][1])
        if failure is not None:
            raise failure
        died = None
        while children:
            r, pid, result = children[0]
            with result:
                data = result.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0:
                own = range(r, n_chunks, workers)
                names = ", ".join(map(str, own if len(own) < 4 else (*own[:2], "...", own[-1])))
                died = died or ChildProcessError(
                    f"the process for chunks {names} exited with status {status}")
            elif (payload := pickle.loads(data)) is not None:
                failure = payload
        if failure is not None or died is not None:
            raise failure or died
    finally:
        close(*open_ends)
        for _, pid, result in children:
            os.kill(pid, signal.SIGKILL)
            result.close()
            os.waitpid(pid, 0)
