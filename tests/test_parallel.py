import io
import json
import os
import signal
import tempfile
import time
from functools import partial

import numpy as np
import pytest

import walkmf.targets
from graphgen import random_connected_graph, random_strongly_connected_digraph
from walkmf import parallel, sampling
from walkmf.cli import main
from walkmf.factorization import read_embedding_matrix, write_embedding_matrix
from walkmf.targets import (
    read_matrix_csv,
    read_vector_csv,
    write_matrix_csv,
    write_vector_csv,
)

CAN_FORK = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")


def _use_cores(monkeypatch, cores):
    """Make run_jobs see `cores` cores: 1 runs every job in this process,
    more forks children whatever the machine has."""
    if cores > 1 and not CAN_FORK:
        pytest.skip("needs os.fork and os.sched_getaffinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


@pytest.fixture(params=[1, 2, 3], ids=["in-process", "forked-2-cores", "forked-3-cores"])
def cores(request, monkeypatch):
    _use_cores(monkeypatch, request.param)
    return request.param


@pytest.fixture(params=[2, 3], ids=["forked-2-cores", "forked-3-cores"])
def forked(request, monkeypatch):
    _use_cores(monkeypatch, request.param)
    return request.param


def _write_graph(path, g):
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
    return path


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


class TestRunJobs:
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_results_come_in_order_from_rounds_of_cores(self, cores, count):
        # Each round is `cores` jobs long and its first job runs here.
        parent = os.getpid()
        results = list(parallel.run_jobs([partial(lambda i: (i, os.getpid()), i)
                                          for i in range(count)]))
        assert [i for i, _ in results] == list(range(count))
        assert [pid == parent for _, pid in results] == [i % cores == 0 for i in range(count)]

    def test_without_fork_every_job_runs_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert parallel.available_cores() == 1
        assert set(parallel.run_jobs([os.getpid] * 3)) == {os.getpid()}

    def test_at_most_cores_minus_one_children_and_none_left(self, monkeypatch):
        # 16 jobs on 3 cores: six rounds, ten children, never more than two
        # alive at once, and every one reaped when run_jobs is done.
        _use_cores(monkeypatch, 3)
        spy = _ForkSpy(monkeypatch)
        assert list(parallel.run_jobs([partial(int, i) for i in range(16)])) == list(range(16))
        assert (len(spy.forks), spy.peak, spy.live) == (10, 2, set())
        _assert_gone(spy.forks)

    def test_children_are_killed_when_the_parent_job_fails(self, monkeypatch, forked):
        # The children would sleep for a minute; they are killed, not awaited.
        spy = _ForkSpy(monkeypatch)

        def failing():
            raise ValueError("parent job failed")

        start = time.monotonic()
        with pytest.raises(ValueError, match="parent job failed"):
            list(parallel.run_jobs([failing] + [partial(time.sleep, 60)] * (forked - 1)))
        assert time.monotonic() - start < 30
        assert (len(spy.forks), spy.live) == (forked - 1, set())
        _assert_gone(spy.forks)

    def test_children_are_killed_when_the_caller_stops(self, monkeypatch, forked):
        spy = _ForkSpy(monkeypatch)
        start = time.monotonic()
        results = parallel.run_jobs([int] + [partial(time.sleep, 60)] * (forked - 1))
        assert next(results) == 0
        results.close()
        assert time.monotonic() - start < 30
        assert (len(spy.forks), spy.live) == (forked - 1, set())
        _assert_gone(spy.forks)


    def test_a_forked_job_counts_one_core_and_forks_nothing(self, monkeypatch, forked):
        # The child's own run_jobs runs its three jobs in the child itself.
        def nested():
            return parallel.available_cores(), os.getpid(), list(parallel.run_jobs([os.getpid] * 3))

        parent = os.getpid()
        results = list(parallel.run_jobs([int] + [nested] * (forked - 1)))
        assert parallel.available_cores() == forked
        for cores, pid, pids in results[1:]:
            assert (cores, pids) == (1, [pid] * 3) and pid != parent


class _ForkSpy:
    """Records the children os.fork makes from now on: every pid, those not
    yet reaped, and the largest number alive at once."""

    def __init__(self, monkeypatch):
        self.forks, self.live, self.peak = [], set(), 0
        fork, waitpid = os.fork, os.waitpid

        def counted_fork():
            pid = fork()
            if pid:
                self.forks.append(pid)
                self.live.add(pid)
                self.peak = max(self.peak, len(self.live))
            return pid

        def counted_waitpid(pid, options):
            result = waitpid(pid, options)
            self.live.discard(pid)
            return result

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "waitpid", counted_waitpid)


def _assert_gone(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestSameBytesOnAnyCores:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_counts(self, tmp_path, monkeypatch, workers):
        graph = _write_graph(tmp_path / "g.edges",
                             random_strongly_connected_digraph(40, seed=3, extra_edges=80))
        outputs = []
        for cores in (1, 2, 3):
            _use_cores(monkeypatch, cores)
            out = tmp_path / f"out{cores}"
            assert main(["sample", "-i", str(graph), "--directed", "-t", "3", "-L", "20011",
                         "--seed", "4", "--workers", str(workers), "-o", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("counts.csv", "counts.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("target, files", [
        (["--target", "sgns", "-k", "2"], 3),
        (["--target", "softmax", "--zero-policy", "mask"], 4),
    ], ids=["sgns-3-files", "masked-4-files"])
    def test_exact_files(self, tmp_path, monkeypatch, target, files):
        graph = _write_graph(tmp_path / "g.edges",
                             random_connected_graph(30, seed=2, extra_edges=10))
        outputs = []
        for cores in (1, 2, 3):
            _use_cores(monkeypatch, cores)
            out = tmp_path / f"out{cores}"
            assert main(["exact", "-i", str(graph), "-t", "2", *target, "-o", str(out)]) == 0
            names = json.loads((out / "manifest.json").read_text())["outputs"]
            outputs.append({name: (out / name).read_bytes() for name in names})
        assert len(outputs[0]) == files
        assert outputs[0] == outputs[1] == outputs[2]


class TestErrorsFromWorkers:
    """A worker's failure gives the exit code and message it gives serially."""

    ERRORS = [ValueError("worker 1 saw bad data"), MemoryError("Unable to allocate 8 EiB")]

    @pytest.fixture
    def sample_argv(self, tmp_path):
        graph = _write_graph(tmp_path / "g.edges", random_connected_graph(20, seed=1))
        return ["sample", "-i", str(graph), "-t", "2", "-L", "3000", "--seed", "6",
                "--workers", "3", "-o", str(tmp_path / "out")]

    @pytest.mark.parametrize("error", ERRORS, ids=["ValueError", "MemoryError"])
    def test_sample_worker_raises(self, monkeypatch, capsys, sample_argv, cores, error):
        second = sampling._worker_seed(6, 1)
        extract = sampling.extract_pairs

        def failing(walk, *args):
            if walk.seed == second:
                raise error
            return extract(walk, *args)

        monkeypatch.setattr(sampling, "extract_pairs", failing)
        code, err = _run(sample_argv, capsys)
        message = str(error) if isinstance(error, ValueError) else f"out of memory: {error}"
        assert (code, err) == (2, f"walkmf: error: {message}\n")

    @pytest.mark.parametrize("error", ERRORS, ids=["ValueError", "MemoryError"])
    def test_exact_writer_raises(self, tmp_path, monkeypatch, capsys, cores, error):
        graph = _write_graph(tmp_path / "g.edges", random_connected_graph(20, seed=1))
        write = walkmf.targets.write_matrix_csv

        def failing(mat, path):
            if path.name == "target.csv":
                raise error
            write(mat, path)

        monkeypatch.setattr(walkmf.targets, "write_matrix_csv", failing)
        code, err = _run(["exact", "-i", str(graph), "-t", "2", "-o", str(tmp_path / "out")],
                         capsys)
        message = str(error) if isinstance(error, ValueError) else f"out of memory: {error}"
        assert (code, err) == (2, f"walkmf: error: {message}\n")

    @pytest.mark.parametrize("end, how", [
        (lambda: os._exit(9), "exit status 9"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["os._exit", "SIGKILL"])
    def test_worker_that_dies_exits_2(self, monkeypatch, capsys, sample_argv, forked, end, how):
        # Only a forked worker can end without ending this process too.
        parent = os.getpid()
        extract = sampling.extract_pairs

        def dying(*args):
            if os.getpid() != parent:
                end()
            return extract(*args)

        monkeypatch.setattr(sampling, "extract_pairs", dying)
        code, err = _run(sample_argv, capsys)
        assert (code, err) == (
            2, f"walkmf: error: a worker process ended without its result ({how})\n")



def _split(monkeypatch):
    """Split every output over three cores, whatever the machine has, and
    format it a few rows at a time; returns the directories of the
    temporary files made from now on."""
    if not CAN_FORK:
        pytest.skip("needs os.fork and os.sched_getaffinity")
    monkeypatch.setattr(parallel, "available_cores", lambda: 3)
    monkeypatch.setattr(parallel, "_SPLIT_VALUES", 1)
    monkeypatch.setattr(parallel, "_SLICE_VALUES", 5)
    made = []
    temporary = tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        made.append(kwargs["dir"])
        return temporary(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return made


@pytest.fixture
def split(monkeypatch):
    return _split(monkeypatch)


def _savetxt(mat, **kwargs):
    buffer = io.BytesIO()
    np.savetxt(buffer, mat, fmt="%.17g", **kwargs)
    return buffer.getvalue()


def _embedding_text(mat):
    # The one-line-at-a-time writer the row blocks replaced.
    line = "%d " + " ".join(["%.17g"] * mat.shape[1]) + "\n"
    text = f"{mat.shape[0]} {mat.shape[1]}\n"
    return (text + "".join(line % (i, *row) for i, row in enumerate(mat.tolist()))).encode()


SHAPES = [(1, 1), (7, 1), (2, 6), (3, 5), (11, 4)]


def _values(shape):
    mat = np.random.default_rng(sum(shape)).standard_normal(shape) * 1e3
    mat.flat[::3] = 0.0
    mat.flat[1::5] = np.nan
    mat.flat[2::7] = -np.inf
    return mat


class TestWriteRows:
    """The row-block writers give np.savetxt's bytes, split or not."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matrix_csv(self, tmp_path, split, shape):
        mat = _values(shape)
        mask = np.isnan(mat).astype(int)
        write_matrix_csv(mat, tmp_path / "m.csv")
        write_matrix_csv(mask, tmp_path / "mask.csv")
        assert (tmp_path / "m.csv").read_bytes() == _savetxt(mat, delimiter=",")
        assert (tmp_path / "mask.csv").read_bytes() == _savetxt(mask, delimiter=",")
        # Fewer rows than cores: one block per row.
        assert split == [tmp_path] * (2 * (min(3, shape[0]) - 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_vector_csv(self, tmp_path, split, n):
        vec = _values((n, 1)).ravel()
        write_vector_csv(vec, tmp_path / "v.csv")
        assert (tmp_path / "v.csv").read_bytes() == _savetxt(vec)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_embedding_matrix(self, tmp_path, split, shape):
        mat = np.nan_to_num(_values(shape), nan=0.5, neginf=-2.0)
        write_embedding_matrix(mat, tmp_path / "e.txt")
        assert (tmp_path / "e.txt").read_bytes() == _embedding_text(mat)

    def test_serial_below_the_threshold(self, tmp_path, split, monkeypatch):
        monkeypatch.setattr(parallel, "_SPLIT_VALUES", 45)
        write_matrix_csv(np.ones((11, 4)), tmp_path / "small.csv")
        assert split == []
        write_matrix_csv(np.ones((9, 5)), tmp_path / "large.csv")
        assert split == [tmp_path] * 2

    def test_serial_on_one_core(self, tmp_path, split, monkeypatch):
        monkeypatch.setattr(parallel, "available_cores", lambda: 1)
        write_matrix_csv(np.ones((11, 4)), tmp_path / "m.csv")
        assert split == []

    def test_a_failing_block_leaves_no_temporary_file(self, tmp_path, split, monkeypatch,
                                                      capsys):
        # Every block but the first is formatted in a child, and fails there.
        graph = _write_graph(tmp_path / "g.edges", random_connected_graph(12, seed=5))
        out = tmp_path / "out"
        write_slices = parallel._write_slices

        def failing(fh, format_rows, lo, *args):
            if lo > 0:
                raise ValueError(f"block from row {lo} failed")
            return write_slices(fh, format_rows, lo, *args)

        monkeypatch.setattr(parallel, "_write_slices", failing)
        code, err = _run(["exact", "-i", str(graph), "-t", "2", "-o", str(out)], capsys)
        assert (code, err) == (2, "walkmf: error: block from row 4 failed\n")
        assert split == [out] * 2
        assert [p.name for p in out.iterdir()] == ["walk_matrix.csv"]


class TestSplitOutputs:
    """exact's and embed's files, split over three cores, are the files one
    core writes, and what np.savetxt writes for the values they hold."""

    @pytest.fixture
    def graph(self, tmp_path):
        return _write_graph(tmp_path / "g.edges", random_connected_graph(13, seed=7))

    @staticmethod
    def _outputs(argv, out):
        assert main([*argv, "-o", str(out)]) == 0
        names = json.loads((out / "manifest.json").read_text())["outputs"]
        # No temporary file is left beside the outputs.
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])
        return {name: (out / name).read_bytes() for name in names}

    def _serial_and_split(self, argv, tmp_path, monkeypatch):
        _use_cores(monkeypatch, 1)
        serial = self._outputs(argv, tmp_path / "serial")
        made = _split(monkeypatch)
        split = self._outputs(argv, tmp_path / "split")
        assert made and set(made) == {tmp_path / "split"}
        assert split == serial
        return tmp_path / "split", split

    @pytest.mark.parametrize("target, files", [
        (["--target", "softmax", "--zero-policy", "floor"], 3),
        (["--target", "sgns", "--zero-policy", "truncate"], 3),
        (["--target", "sgns", "--zero-policy", "mask"], 4),
    ], ids=["floor", "truncate", "mask"])
    def test_exact(self, tmp_path, monkeypatch, graph, target, files):
        out, outputs = self._serial_and_split(["exact", "-i", str(graph), "-t", "2", *target],
                                              tmp_path, monkeypatch)
        assert len(outputs) == files
        for name, data in outputs.items():
            if name == "stationary.csv":
                assert data == _savetxt(read_vector_csv(out / name))
            else:
                assert data == _savetxt(read_matrix_csv(out / name), delimiter=",")
        if files == 4:
            assert b"nan" in outputs["target.csv"]

    def test_embed(self, tmp_path, monkeypatch, graph):
        out, outputs = self._serial_and_split(["embed", "-i", str(graph), "-t", "2", "-d", "5"],
                                              tmp_path, monkeypatch)
        for name in ("embeddings_w.txt", "embeddings_h.txt"):
            assert outputs[name] == _embedding_text(read_embedding_matrix(out / name))
