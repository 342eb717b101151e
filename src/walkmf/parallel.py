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
So does every job of a run_jobs called inside a forked child: a child
counts one core, and never forks children of its own.

`write_rows(path, n_rows, format_rows, ...)` writes one large text output
on all cores: each core formats one contiguous block of rows, the parent's
straight into the output and each child's into an unnamed temporary file in
the output's directory, which the parent then appends in order. The bytes
are those of writing every row in one process.

On Python >= 3.12, os.fork in a process that has started threads, as
OpenBLAS does when NumPy loads, emits a DeprecationWarning. It is not
silenced; the jobs walkmf forks call no BLAS.
"""

from __future__ import annotations

import os
import pickle
import shutil
import signal
import tempfile
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

# Values formatted by one format_rows call, as np.savetxt formats one row at
# a time: a slice's arrays take ~2 MB, never a whole block's. On a 2-core VM,
# slices of 2^14 or 2^15 values wrote an 800 x 800 walk matrix no faster than
# 2^13 (0.13-0.19 s against 0.13 s), and took 1.8x or 3.3x the memory.
_SLICE_VALUES = 1 << 13
# Outputs of fewer values are written in one process. In CLI runs on a 2-core
# VM (15-20 alternating pairs each, split against not), splitting lost or
# tied below 2^18 values: floats at 26k (faster in 2/15), 52k (7/15), 90k
# (3/15) and 160k (8/15), counts at 67k (3/15), 240k (5/15) and 267k
# (11/20). It won above: floats at 302k (11/15) and 640k (12/15, -39 ms),
# counts at 458k (16/20) and 1.24M (13/15, -38 ms).
_SPLIT_VALUES = 1 << 18

# Set in a forked child before its job runs, so a run_jobs inside the job
# runs in-process instead of forking grandchildren onto busy cores.
_in_child = False


def available_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork or tell, and
    in a child that run_jobs forked."""
    if _in_child or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
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


def write_rows(path, n_rows: int, format_rows: Callable[[int, int], bytes],
               row_values: int = 1, head: str = "") -> None:
    """Write `head`, then the text of rows 0..n_rows-1, to `path`.

    format_rows(lo, hi) returns the ASCII text of rows lo..hi-1 as bytes. It
    is called on consecutive slices of about _SLICE_VALUES values
    (row_values per row), so the text in memory at once is one slice's.
    With more than one core and at least _SPLIT_VALUES values, the rows
    are cut into one contiguous block per core and run_jobs formats the
    blocks side by side: this process writes the first block straight into
    `path`, each child writes its block into an unnamed temporary file in
    `path`'s directory, and the temporary files are appended in order once
    every block is done. The bytes are the same on any number of cores. The
    temporary files have no name, so none is left behind, whether a block
    fails or not.
    """
    blocks = min(available_cores(), n_rows)
    step = max(1, _SLICE_VALUES // row_values)
    with open(path, "wb") as out:
        if blocks < 2 or n_rows * row_values < _SPLIT_VALUES:
            _write_slices(out, format_rows, 0, n_rows, step, head)
            return
        bounds = [n_rows * b // blocks for b in range(blocks + 1)]
        with ExitStack() as stack:
            parts = [stack.enter_context(tempfile.TemporaryFile(dir=Path(path).parent))
                     for _ in range(blocks - 1)]
            # Nothing is buffered in `out` or a part when the children fork,
            # so no child holds a copy of bytes that this process writes.
            jobs = [partial(_write_slices, out, format_rows, 0, bounds[1], step, head)]
            jobs += [partial(_write_part, part, format_rows, lo, hi, step)
                     for part, lo, hi in zip(parts, bounds[1:], bounds[2:])]
            for _ in run_jobs(jobs):
                pass
            for part in parts:
                part.seek(0)
                shutil.copyfileobj(part, out)


def _write_slices(fh: BinaryIO, format_rows: Callable[[int, int], bytes], lo: int, hi: int,
                  step: int, head: str = "") -> None:
    fh.write(head.encode())
    for a in range(lo, hi, step):
        fh.write(format_rows(a, min(a + step, hi)))


def _write_part(part: BinaryIO, format_rows: Callable[[int, int], bytes], lo: int, hi: int,
                step: int) -> None:
    """A child's block: written, flushed and closed here, since the child
    ends by os._exit, which flushes nothing."""
    with part:
        _write_slices(part, format_rows, lo, hi, step)


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
    global _in_child
    _in_child = True
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
