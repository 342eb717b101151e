import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walkmf.cli
import walkmf.graphs
import walkmf.targets
from walkmf import (
    CooccurrenceCounts,
    TrainConfig,
    train_sgns,
    write_counts_csv,
    write_counts_sidecar,
)
from walkmf.cli import main
from walkmf.factorization import read_embedding_matrix
from walkmf.sgns import STEPS_PER_EPOCH
from walkmf.targets import read_matrix_csv, read_vector_csv


@pytest.fixture
def path_graph_file(tmp_path):
    path = tmp_path / "path.edges"
    path.write_text("0 1\n1 2\n")
    return path


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.edges"
    path.write_text("0 1\n")
    return path


@pytest.fixture
def k3_counts_files(tmp_path):
    mat = np.full((3, 3), 100, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    counts = CooccurrenceCounts.from_matrix(mat)
    csv_path = tmp_path / "k3counts.csv"
    write_counts_csv(counts, csv_path)
    write_counts_sidecar(counts, tmp_path / "k3counts.json")
    return csv_path


def _analytic_path_counts(tmp_path):
    # Counts equal to |D| * pi_i * P_ij for the path graph at window 2, so
    # every empirical statistic reproduces its closed form exactly.
    mat = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.int64)
    counts = CooccurrenceCounts.from_matrix(mat)
    csv_path = tmp_path / "analytic.csv"
    write_counts_csv(counts, csv_path)
    write_counts_sidecar(counts, tmp_path / "analytic.json")
    return csv_path


def _read_manifest(out_dir):
    with open(out_dir / "manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _output_bytes(out_dir):
    manifest = _read_manifest(out_dir)
    return {name: (out_dir / name).read_bytes() for name in manifest["outputs"]}


class TestExact:
    def test_path_target_rows(self, tmp_path, path_graph_file):
        out = tmp_path / "out"
        code = main(["exact", "-i", str(path_graph_file), "-t", "2", "--bias", "zero",
                     "-o", str(out)])
        assert code == 0
        target = read_matrix_csv(out / "target.csv")
        expected = np.log(np.tile([0.25, 0.5, 0.25], (3, 1)))
        assert np.max(np.abs(target - expected)) < 1e-12
        walk = read_matrix_csv(out / "walk_matrix.csv")
        assert np.max(np.abs(walk - np.tile([0.25, 0.5, 0.25], (3, 1)))) < 1e-15

    def test_k2_stationary(self, tmp_path, k2_file):
        out = tmp_path / "out"
        assert main(["exact", "-i", str(k2_file), "-t", "1", "-o", str(out)]) == 0
        assert read_vector_csv(out / "stationary.csv").tolist() == [0.5, 0.5]

    def test_disconnected_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n2 3\n")
        code = main(["exact", "-i", str(bad), "-t", "2", "-o", str(tmp_path / "out")])
        assert code == 2
        assert "connected" in capsys.readouterr().err

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n0 1\n")
        code = main(["exact", "-i", str(bad), "-o", str(tmp_path / "out")])
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    def test_node_id_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # n is 1 + the largest id, so the arrays sized by n cannot be
        # allocated. 10**18 int64s (8 EB) exceed any address space, so the
        # allocation fails on every machine instead of being overcommitted.
        bad = tmp_path / "huge.edges"
        bad.write_text(f"0 {10**18}\n")
        code = main(["exact", "-i", str(bad), "-t", "2", "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("walkmf: error: out of memory:")
        assert "EiB" in err  # names the size that could not be allocated
        assert "Traceback" not in err

    def test_sgns_target_variant(self, tmp_path, path_graph_file):
        out = tmp_path / "out"
        code = main(["exact", "-i", str(path_graph_file), "-t", "2", "--target", "sgns",
                     "-k", "1", "-o", str(out)])
        assert code == 0
        # Path at window 2 has P_ij == pi_j, so the shifted PMI is zero.
        assert np.max(np.abs(read_matrix_csv(out / "target.csv"))) < 1e-12

    def test_json_format(self, tmp_path, path_graph_file):
        out = tmp_path / "out"
        code = main(["exact", "-i", str(path_graph_file), "-t", "2", "--format", "json",
                     "-o", str(out)])
        assert code == 0
        payload = json.loads((out / "target.json").read_text())
        assert payload["metadata"]["window"] == 2
        assert payload["metadata"]["zero_policy"] == "floor"


class TestSample:
    def test_k2_forced_counts(self, tmp_path, k2_file):
        out = tmp_path / "out"
        code = main(["sample", "-i", str(k2_file), "-t", "1", "-L", "1000", "-o", str(out)])
        assert code == 0
        rows = (out / "counts.csv").read_text().splitlines()
        assert rows == ["v,c,count", "0,1,1000", "1,0,1000"]

    def test_same_seed_byte_identical(self, tmp_path, path_graph_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sample", "-i", str(path_graph_file), "-t", "2", "-L", "500",
                         "--seed", "7", "-o", str(out)]) == 0
            outs.append((out / "counts.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_zero_length_is_usage_error(self, tmp_path, k2_file, capsys):
        code = main(["sample", "-i", str(k2_file), "-t", "1", "-L", "0",
                     "-o", str(tmp_path / "out")])
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--start-node", "2"],
        ["--start-node", "2", "--start-mode", "uniform"],
        ["--start-mode", "fixed"],
    ], ids=["node-without-mode", "node-with-uniform", "fixed-without-node"])
    def test_start_node_and_fixed_mode_go_together(self, tmp_path, path_graph_file, capsys,
                                                   flags):
        out = tmp_path / "out"
        code = main(["sample", "-i", str(path_graph_file), "-t", "1", "-L", "5", *flags,
                     "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--start-node" in err and "--start-mode fixed" in err
        assert not out.exists()

    def test_fixed_start_node_is_used(self, tmp_path, path_graph_file):
        # From the end node 2 of 0-1-2, one step can only reach 1.
        out = tmp_path / "out"
        assert main(["sample", "-i", str(path_graph_file), "-t", "1", "-L", "1",
                     "--start-mode", "fixed", "--start-node", "2", "-o", str(out)]) == 0
        assert (out / "counts.csv").read_text().splitlines() == ["v,c,count", "1,2,1", "2,1,1"]

    def test_sidecar_records_config(self, tmp_path, path_graph_file):
        out = tmp_path / "out"
        assert main(["sample", "-i", str(path_graph_file), "-t", "3", "-L", "50",
                     "--seed", "2", "-o", str(out)]) == 0
        sidecar = json.loads((out / "counts.json").read_text())
        assert sidecar["sampler_config"]["window"] == 3
        assert sidecar["sampler_config"]["seed"] == 2
        assert sidecar["total"] == 2 * 3 * 50

    def test_interchange_format_bytes(self, tmp_path):
        # Pins the counts.csv / counts.json layout across versions: header,
        # csv's \r\n terminators, nonzero rows only in (v, c) order (node 3
        # is never visited), and the sorted, indented sidecar.
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 2\n2 0\n2 3\n")
        out = tmp_path / "out"
        assert main(["sample", "-i", str(graph), "-t", "2", "-L", "12", "--seed", "3",
                     "-o", str(out)]) == 0
        assert (out / "counts.csv").read_bytes() == (
            b"v,c,count\r\n0,0,2\r\n0,1,7\r\n0,2,5\r\n1,0,7\r\n1,1,8\r\n1,2,6\r\n"
            b"2,0,5\r\n2,1,6\r\n2,2,2\r\n"
        )
        assert (out / "counts.json").read_bytes() == (
            b'{\n  "context_counts": [\n    14,\n    21,\n    13,\n    0\n  ],\n'
            b'  "n": 4,\n  "node_counts": [\n    14,\n    21,\n    13,\n    0\n  ],\n'
            b'  "sampler_config": {\n    "burn_in": 0,\n    "centers": 12,\n'
            b'    "seed": 3,\n    "start_mode": "stationary",\n    "start_node": null,\n'
            b'    "window": 2,\n    "workers": 1\n  },\n  "total": 48\n}\n'
        )


class TestCompare:
    def test_analytic_counts_match_closed_forms(self, tmp_path, path_graph_file):
        counts_csv = _analytic_path_counts(tmp_path)
        out = tmp_path / "out"
        code = main(["compare", "-i", str(path_graph_file), "--counts", str(counts_csv),
                     "-t", "2", "-k", "1", "-o", str(out)])
        assert code == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["conditional_vs_walk_matrix"]["max_abs"] < 1e-9
        assert report["frequency_vs_stationary"]["max_abs"] < 1e-9
        assert report["sgns_counts_vs_exact"]["max_abs"] < 1e-9

    def test_sampled_counts_are_close(self, tmp_path, path_graph_file):
        sample_out = tmp_path / "sample"
        assert main(["sample", "-i", str(path_graph_file), "-t", "2", "-L", "200000",
                     "--seed", "1", "-o", str(sample_out)]) == 0
        out = tmp_path / "cmp"
        assert main(["compare", "-i", str(path_graph_file),
                     "--counts", str(sample_out / "counts.csv"),
                     "-t", "2", "-k", "1", "-o", str(out)]) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["conditional_vs_walk_matrix"]["max_abs"] < 0.01
        assert report["frequency_vs_stationary"]["max_abs"] < 0.01

    def test_mismatched_graph_exits_2(self, tmp_path, capsys):
        counts_csv = _analytic_path_counts(tmp_path)
        big = tmp_path / "big.edges"
        big.write_text("0 1\n1 2\n2 3\n")
        code = main(["compare", "-i", str(big), "--counts", str(counts_csv),
                     "-t", "2", "-o", str(tmp_path / "out")])
        assert code == 2
        assert "nodes" in capsys.readouterr().err


def _replace_row(old, new):
    return lambda text, meta: (text.replace(f"\r\n{old}\r\n", f"\r\n{new}\r\n"), meta)


def _edit_sidecar(**changes):
    return lambda text, meta: (text, {**meta, **changes})


def _drop_sidecar_key(key):
    return lambda text, meta: (text, {k: v for k, v in meta.items() if k != key})


# Each case edits the analytic path counts (rows and sidecar dict) into one
# malformed input; the value names the file the error must mention.
MALFORMED_COUNTS = {
    "id_out_of_range": ("counts.csv", _replace_row("2,2,1", "3,2,1")),
    "negative_id": ("counts.csv", _replace_row("2,2,1", "-1,2,1")),
    "short_row": ("counts.csv", _replace_row("2,2,1", "2,2")),
    "long_row": ("counts.csv", _replace_row("2,2,1", "2,2,1,0")),
    "non_integer": ("counts.csv", _replace_row("2,2,1", "2,2,1.0")),
    "negative_count": ("counts.csv", _replace_row("2,2,1", "2,2,-1")),
    "duplicate_row": ("counts.csv", _replace_row("2,2,1", "2,2,1\r\n2,2,1")),
    "bad_header": ("counts.csv", lambda text, meta: (text.replace("v,c,count", "v,c,n"), meta)),
    "node_counts_disagree": ("counts.csv", _edit_sidecar(node_counts=[5, 7, 4])),
    "context_counts_disagree": ("counts.csv", _edit_sidecar(context_counts=[4, 9, 3])),
    "missing_n": ("counts.json", _drop_sidecar_key("n")),
    "missing_node_counts": ("counts.json", _drop_sidecar_key("node_counts")),
    "n_not_integer": ("counts.json", _edit_sidecar(n="3")),
    "n_too_large": ("counts.json", _edit_sidecar(n=1_000_000_000)),
    "bad_sampler_config": ("counts.json", _edit_sidecar(sampler_config={"bogus": 1})),
    "sidecar_not_json": ("counts.json", lambda text, meta: (text, "{")),
}


class TestMalformedCounts:
    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_COUNTS))
    def test_exits_2_naming_the_file(self, tmp_path, path_graph_file, capsys, command, case):
        named, edit = MALFORMED_COUNTS[case]
        counts = CooccurrenceCounts.from_matrix(np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]))
        csv_path, sidecar_path = tmp_path / "counts.csv", tmp_path / "counts.json"
        write_counts_csv(counts, csv_path)
        write_counts_sidecar(counts, sidecar_path)
        text, meta = edit(csv_path.read_bytes().decode(),
                          json.loads(sidecar_path.read_text()))
        csv_path.write_text(text, newline="")
        sidecar_path.write_text(meta if isinstance(meta, str) else json.dumps(meta))
        argv = {
            "train": ["train", "--counts", str(csv_path), "-d", "2", "-k", "1",
                      "--epochs", "1", "-o", str(tmp_path / "out")],
            "compare": ["compare", "-i", str(path_graph_file), "--counts", str(csv_path),
                        "-t", "2", "-k", "1", "-o", str(tmp_path / "out")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("walkmf: error:")
        assert named in err
        assert "Traceback" not in err


class TestEmbed:
    def test_full_rank_reconstruction(self, tmp_path, path_graph_file):
        out = tmp_path / "out"
        code = main(["embed", "-i", str(path_graph_file), "-t", "2", "-d", "3",
                     "-o", str(out)])
        assert code == 0
        report = json.loads((out / "reconstruction.json").read_text())
        assert report["frobenius_error"] < 1e-8

    def test_rank_one_error_equals_tail_energy(self, tmp_path, path_graph_file):
        out = tmp_path / "out"
        assert main(["embed", "-i", str(path_graph_file), "-t", "2", "-d", "1",
                     "-o", str(out)]) == 0
        report = json.loads((out / "reconstruction.json").read_text())
        tail = math.sqrt(sum(s * s for s in report["singular_values"][1:]))
        assert abs(report["frobenius_error"] - tail) < 1e-9

    def test_embeddings_round_trip(self, tmp_path, path_graph_file):
        out = tmp_path / "out"
        assert main(["embed", "-i", str(path_graph_file), "-t", "2", "-d", "2",
                     "-o", str(out)]) == 0
        w = read_embedding_matrix(out / "embeddings_w.txt")
        h = read_embedding_matrix(out / "embeddings_h.txt")
        assert w.shape == (3, 2) and h.shape == (3, 2)

    def test_directed_softmax_needs_no_strong_connectivity(self, tmp_path):
        # No dead ends, so P exists; node 2 is unreachable, so pi does not.
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 0\n2 0\n2 1\n")
        code = main(["embed", "-i", str(graph), "--directed", "-t", "2", "-d", "2",
                     "--target", "softmax", "-o", str(tmp_path / "out")])
        assert code == 0

    def test_dim_above_node_count_is_usage_error(self, tmp_path, path_graph_file, capsys):
        code = main(["embed", "-i", str(path_graph_file), "-t", "2", "-d", "10",
                     "-o", str(tmp_path / "out")])
        assert code == 1
        assert "dimension" in capsys.readouterr().err


class TestTrain:
    def test_k3_counts_converge(self, tmp_path, k3_counts_files):
        out = tmp_path / "out"
        code = main(["train", "--counts", str(k3_counts_files), "-d", "3", "-k", "1",
                     "--epochs", "200", "--lr", "0.05", "--seed", "1", "-o", str(out)])
        assert code == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["dot_vs_shifted_pmi"]["mean_abs"] <= 0.1
        log_lines = (out / "training_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,objective"
        assert len(log_lines) == 202  # header + epochs 0..200

    def test_zero_epochs_writes_seeded_initialization(self, tmp_path, k3_counts_files):
        out = tmp_path / "out"
        code = main(["train", "--counts", str(k3_counts_files), "-d", "2", "-k", "1",
                     "--epochs", "0", "--seed", "42", "-o", str(out)])
        assert code == 0
        mat = np.full((3, 3), 100, dtype=np.int64)
        np.fill_diagonal(mat, 0)
        expected = train_sgns(CooccurrenceCounts.from_matrix(mat),
                              TrainConfig(dim=2, negatives=1, epochs=0, seed=42))
        written = read_embedding_matrix(out / "embeddings_w.txt")
        assert np.array_equal(written, expected.embeddings.w)

    def test_identical_invocations_identical_outputs(self, tmp_path, k3_counts_files):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--counts", str(k3_counts_files), "-d", "2", "-k", "2",
                         "--epochs", "3", "--seed", "5", "-o", str(out)]) == 0
            blobs.append(_output_bytes(out))
        assert blobs[0] == blobs[1]

    def test_report_carries_the_upper_bound_and_the_gap_to_it(self, tmp_path, k3_counts_files):
        out = tmp_path / "out"
        assert main(["train", "--counts", str(k3_counts_files), "-d", "2", "-k", "1",
                     "--epochs", "3", "--seed", "5", "-o", str(out)]) == 0
        report = json.loads((out / "comparison.json").read_text())
        # k3 counts: every pair has #(v,c) = 100, #(v) = #(c) = 200, |D| = 600,
        # so x* = log 1.5 and each of the 6 pairs peaks at
        # 100 log s(x*) + (200/3) log s(-x*).
        x_star = math.log(1.5)
        expected = 6 * (-100 * math.log1p(math.exp(-x_star))
                        - 200 / 3 * math.log1p(math.exp(x_star)))
        assert report["upper_bound"] == pytest.approx(expected, rel=1e-12)
        gap = (report["upper_bound"] - report["final_objective"]) / abs(report["upper_bound"])
        assert report["objective_gap"] == gap
        assert report["objective_gap"] >= 0
        assert report["steps"] == 3 * STEPS_PER_EPOCH


class TestManifests:
    def _run_each_command(self, tmp_path, graph_file):
        counts_csv = _analytic_path_counts(tmp_path)
        runs = {
            "exact": ["exact", "-i", str(graph_file), "-t", "2",
                      "-o", str(tmp_path / "m_exact")],
            "sample": ["sample", "-i", str(graph_file), "-t", "2", "-L", "300",
                       "--seed", "3", "--workers", "2", "-o", str(tmp_path / "m_sample")],
            "compare": ["compare", "-i", str(graph_file), "--counts", str(counts_csv),
                        "-t", "2", "-k", "1", "-o", str(tmp_path / "m_compare")],
            "embed": ["embed", "-i", str(graph_file), "-t", "2", "-d", "2",
                      "-o", str(tmp_path / "m_embed")],
            "train": ["train", "--counts", str(counts_csv), "-d", "2", "-k", "1",
                      "--epochs", "2", "--seed", "1", "-o", str(tmp_path / "m_train")],
        }
        for name, argv in runs.items():
            assert main(argv) == 0, name
        return {name: tmp_path / f"m_{name}" for name in runs}

    def test_every_command_writes_manifest_listing_outputs(self, tmp_path, path_graph_file):
        for name, out_dir in self._run_each_command(tmp_path, path_graph_file).items():
            manifest = _read_manifest(out_dir)
            assert manifest["command"] == name
            written = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
            assert set(manifest["outputs"]) == written
            assert manifest["inputs"]

    def test_rerun_from_manifest_reproduces_outputs_byte_for_byte(self, tmp_path, path_graph_file):
        for name, out_dir in self._run_each_command(tmp_path, path_graph_file).items():
            redo = tmp_path / f"redo_{name}"
            assert main(["rerun", "--manifest", str(out_dir / "manifest.json"),
                         "-o", str(redo)]) == 0, name
            assert _output_bytes(redo) == _output_bytes(out_dir), name

    def test_rerun_detects_changed_input(self, tmp_path, path_graph_file, capsys):
        out = tmp_path / "out"
        assert main(["exact", "-i", str(path_graph_file), "-t", "2", "-o", str(out)]) == 0
        path_graph_file.write_text("0 1\n1 2\n0 2\n")
        code = main(["rerun", "--manifest", str(out / "manifest.json"),
                     "-o", str(tmp_path / "redo")])
        assert code == 2
        assert "changed" in capsys.readouterr().err

    def test_commands_do_not_mutate_inputs(self, tmp_path, path_graph_file):
        before = path_graph_file.read_bytes()
        self._run_each_command(tmp_path, path_graph_file)
        assert path_graph_file.read_bytes() == before


class TestClosedFormsBuiltOnce:
    @pytest.mark.parametrize("argv, pi_calls", [
        (["exact", "--target", "softmax"], 1),
        (["exact", "--target", "sgns"], 1),
        (["compare", "-k", "1"], 1),
        (["embed", "--target", "sgns", "-d", "2"], 1),
        (["embed", "--target", "softmax", "-d", "2"], 0),
    ], ids=["exact-softmax", "exact-sgns", "compare", "embed-sgns", "embed-softmax"])
    def test_walk_matrix_and_stationary_call_counts(self, tmp_path, path_graph_file,
                                                    monkeypatch, argv, pi_calls):
        calls = {"walk_probability_matrix": 0, "stationary_distribution": 0}
        for name in calls:
            original = getattr(walkmf.cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (walkmf.cli, walkmf.targets):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        if argv[0] == "compare":
            argv = argv + ["--counts", str(_analytic_path_counts(tmp_path))]
        assert main(argv + ["-i", str(path_graph_file), "-t", "2",
                            "-o", str(tmp_path / "out")]) == 0
        assert calls == {"walk_probability_matrix": 1, "stationary_distribution": pi_calls}


class TestTransitionMatrixBuiltOnce:
    @pytest.mark.parametrize("argv", [
        ["exact", "--target", "sgns"],
        ["compare", "-k", "1"],
        ["embed", "--target", "sgns", "-d", "2"],
    ], ids=["exact", "compare", "embed"])
    def test_directed_commands_build_one_transition_matrix(self, tmp_path, monkeypatch, argv):
        # Directed pi runs on the transition matrix the walk matrix is built from.
        graph = tmp_path / "cycle.edges"
        graph.write_text("0 1\n1 2\n2 0\n2 1\n")
        calls = []
        original = walkmf.graphs.transition_matrix

        def counted(g):
            calls.append(g.n)
            return original(g)

        for module in (walkmf.cli, walkmf.graphs, walkmf.targets):
            monkeypatch.setattr(module, "transition_matrix", counted)
        if argv[0] == "compare":
            counts = CooccurrenceCounts.from_matrix(np.array([[0, 2, 1], [2, 0, 3], [1, 3, 0]]))
            write_counts_csv(counts, tmp_path / "c.csv")
            write_counts_sidecar(counts, tmp_path / "c.json")
            argv = argv + ["--counts", str(tmp_path / "c.csv")]
        assert main(argv + ["-i", str(graph), "--directed", "-t", "2",
                            "-o", str(tmp_path / "out")]) == 0
        assert calls == [3]


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["exact"]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["exact", "-i", str(tmp_path / "nope.edges"), "-o", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestModuleEntryPoint:
    def _run_python(self, *args):
        src = Path(walkmf.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=60)

    def test_importing_main_module_runs_nothing(self):
        proc = self._run_python("-c", "import walkmf.__main__")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == ""

    def test_python_m_walkmf_still_runs_the_cli(self):
        proc = self._run_python("-m", "walkmf", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"walkmf {walkmf.__version__}"
