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
chunks in order gives.  :mod:`berrysim.forks` forks, reads and reaps
the processes.

cells imports this module only to fork: where the host writes no
bytecode, compiling it allocates about 245 KB at its peak (tracemalloc
around the import, after cells), which a command that writes a small
table would pay for nothing.
"""

from __future__ import annotations

import contextlib
import os

from .forks import run_parts

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


def write_ring(chunk, fds: list, n_chunks: int, workers: int) -> None:
    """Write chunks 0 to n_chunks - 1 on ``fds``, process i % workers writing chunk i.

    Pipe r takes the token into the process of residue r; every pipe is
    made before the first fork.  The residues are the parts of
    :func:`berrysim.forks.run_parts`, which forks their processes, keeps
    the residues of a failed fork here, raises the error and reaps every
    child.  A share first closes the token pipe ends that are not its
    own, so that a pipe whose writer has left reads as ended, then raises
    its earliest failing chunk's exception.
    """
    pipes, open_ends = [], set()  # the token pipe ends open in this process

    def share(lo: int, hi: int) -> None:
        ends = pipes[lo][0], pipes[hi % workers][1]  # inbound, outbound
        for fd in open_ends.difference(ends):
            os.close(fd)
        open_ends.intersection_update(ends)
        failure = _ring_share(chunk, fds, n_chunks, workers, range(lo, hi), *ends)
        if failure is not None:
            raise failure

    def name(r: int) -> str:
        own = range(r, n_chunks, workers)
        return "chunks " + ", ".join(map(str, own if len(own) < 4 else (*own[:2], "...", own[-1])))

    try:
        for _ in range(workers):
            pipes.append(os.pipe())
            open_ends.update(pipes[-1])
        run_parts(share, workers, name)
    finally:
        for fd in open_ends:
            os.close(fd)
