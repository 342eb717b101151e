"""Independent jobs run side by side on the cores this process may use.

`run_jobs(jobs)` yields the results of a list of argument-free callables in
order. The jobs go in rounds of as many as there are cores: the parent runs
the first job of a round itself, and each other job of the round runs in a
child forked for it. A child pickles its result, or the exception it
raised, back through a pipe and ends with os._exit, so it never returns
into the caller's code. A forked child sees the parent's memory
copy-on-write, so a job reads what the parent built without copying it;
only results cross the pipe, one at a time, as the caller takes them.

Every way out of a round kills and reaps its children first, so no child
outlives the call. A child's exception is raised again in the parent with
its type and message; a child that ends without sending its result (killed,
out of memory, a bare os._exit) becomes ChildProcessError, an OSError.

With one core or one job, or without os.fork and os.sched_getaffinity (as
on macOS and Windows), every job runs in the parent through the same loop.
On Python >= 3.12, os.fork in a process that has started threads, as
OpenBLAS does when NumPy loads, emits a DeprecationWarning. It is not
silenced; the jobs walkmf forks call no BLAS.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def available_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork or tell."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def run_jobs(jobs: Sequence[Callable[[], T]]) -> Iterator[T]:
    """Yield job() for every job, in order, running up to available_cores()
    of them at once: the parent's own and at most cores - 1 children."""
    width = available_cores()
    for lo in range(0, len(jobs), width):
        children = []
        try:
            for job in jobs[lo + 1:lo + width]:
                children.append(_Child(job))
            yield jobs[lo]()
            for child in children:
                yield child.result()
        finally:
            for child in children:
                child.stop()


class _Child:
    """One job in a forked process, and the pipe its outcome comes back on."""

    def __init__(self, job: Callable[[], T]):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            _serve(job, write_fd)
        # Closed before the next fork, so only this child holds the write end
        # and the parent reads end-of-file as soon as this child ends.
        os.close(write_fd)
        self.pid = pid
        self.reader = os.fdopen(read_fd, "rb")

    def result(self):
        """The job's result, or its exception raised again; reaps the child."""
        try:
            ok, value = pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError):
            ok = None
        self.reader.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if ok is None:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"a worker process ended without its result ({how})")
        if not ok:
            raise value
        return value

    def stop(self) -> None:
        """Kill and reap the child unless its result was taken."""
        if self.pid is None:
            return
        self.reader.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None


def _serve(job: Callable[[], T], fd: int) -> None:
    """In the child: run the job, send (True, result) or (False, exception)
    down fd, and end the process without returning."""
    code = 1
    try:
        try:
            outcome = (True, job())
        except BaseException as exc:
            outcome = (False, exc)
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(outcome, fh, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
