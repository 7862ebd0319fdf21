"""One list of jobs searched by forked processes that draw from one queue.

``run`` writes the index of every job to a pipe before it forks, so each
process, the caller's included, draws the next job off the pipe when it
is done with the last: the jobs are spread as they finish, not dealt
out in advance.  Each child sends its result back through a pipe of its
own, with ``marshal``, and always ends in ``os._exit``, so it never runs
the caller's exit handlers or flushes its buffers.

Forking is unsafe in a process that runs threads, so ``run`` is meant
for a single-threaded caller such as the command line.  The module is
imported only when a search asks for more than one process.
"""

from __future__ import annotations

import marshal
import os
from typing import Callable, Iterable

_RECORD = 2  # bytes per job index on the queue
_PIPE_BUF = 512  # POSIX's least PIPE_BUF: a write of at most this is atomic


def _queued(queue: int, jobs: list) -> Iterable:
    """The jobs whose indices this process reads off the pipe ``queue``,
    until it is empty.  Every index was written before the first read and
    a read of one record is atomic, so every job goes to exactly one of
    the processes that read the pipe, in order."""
    while record := os.read(queue, _RECORD):
        yield jobs[int.from_bytes(record, "little")]


def _child(search: Callable[[Iterable], dict], queue: Iterable, out: int):
    """A forked child's whole life: write marshal(search(queue)) to the
    pipe ``out`` and exit 0, or exit 1 with the traceback on stderr.  It
    never returns."""
    status = 1
    try:
        with open(out, "wb", closefd=False) as f:
            f.write(marshal.dumps(search(queue)))
        status = 0
    except BaseException:
        import sys
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def run(search: Callable[[Iterable], dict], jobs: list, workers: int,
        meanwhile: Callable[[], None] | None = None) -> list[dict]:
    """[search(the jobs a process drew), ...] over min(workers, len(jobs))
    processes, this one first, that share ``jobs`` through one queue.

    ``search`` takes an iterable of jobs, met in the order of ``jobs``,
    and returns a dict that ``marshal`` can send.  This process forks the
    children, calls ``meanwhile``, then draws jobs itself, then reads and
    reaps every child.  A child that ends with a nonzero status makes this
    raise ``RuntimeError``; whatever this process raises, it kills and
    reaps every child first, so none outlives the call."""
    payload = b"".join(i.to_bytes(_RECORD, "little") for i in range(len(jobs)))
    if len(payload) > _PIPE_BUF:  # a longer write could block: no reader yet
        raise ValueError(f"{len(jobs)} jobs overflow the job queue")
    queue, feed = os.pipe()
    os.write(feed, payload)
    os.close(feed)
    fds, pids = [queue], []  # pids of the children not yet reaped
    try:
        for _ in range(min(workers, len(jobs)) - 1):
            results, out = os.pipe()
            fds.append(results)
            try:
                if (pid := os.fork()) == 0:
                    _child(search, _queued(queue, jobs), out)
            finally:
                os.close(out)
            pids.append(pid)
        if meanwhile is not None:
            meanwhile()
        parts = [search(_queued(queue, jobs))]
        for pid, results in zip(list(pids), fds[1:]):
            with open(results, "rb", closefd=False) as f:
                data = f.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if status:
                raise RuntimeError(f"a search process ended with status {status}")
            parts.append(marshal.loads(data))
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in fds:
            os.close(fd)
    return parts
