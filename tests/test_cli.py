import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import walkmf.cli
import walkmf.parallel
from graphgen import geometric_chain, random_connected_graph
from walkmf import (
    CooccurrenceCounts,
    TrainConfig,
    serialize_edge_list,
    train_sgns,
    write_counts_csv,
    write_counts_sidecar,
)
from walkmf.cli import main
from walkmf.factorization import (
    factorize,
    read_embedding_matrix,
    reconstruction_error,
    singular_values,
    write_embedding_matrix,
)
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
    counts = CooccurrenceCounts(mat)
    csv_path = tmp_path / "k3counts.csv"
    write_counts_csv(counts, csv_path)
    write_counts_sidecar(counts, tmp_path / "k3counts.json")
    return csv_path


def _analytic_path_counts(tmp_path):
    # Counts equal to |D| * pi_i * P_ij for the path graph at window 2, so
    # every empirical statistic reproduces its closed form exactly.
    mat = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.int64)
    counts = CooccurrenceCounts(mat)
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

    def test_unresolved_stationary_probability_exits_2(self, tmp_path, capsys):
        # pi_79 ~ 1e-24 is below what the directed solve resolves on 80 nodes.
        graph = tmp_path / "chain.edges"
        graph.write_text(serialize_edge_list(geometric_chain(80)))
        code = main(["exact", "-i", str(graph), "--directed", "-t", "2",
                     "-o", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("walkmf: error: stationary probability of node")
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

    def test_json_format_bytes(self, tmp_path, path_graph_file):
        # Pins every file `exact --format json` writes: sorted, indented
        # JSON with NaN for the entries the mask policy leaves undefined.
        out = tmp_path / "out"
        assert main(["exact", "-i", str(path_graph_file), "-t", "1", "--zero-policy", "mask",
                     "--format", "json", "-o", str(out)]) == 0
        nan, log_half = math.nan, math.log(0.5)
        expected = {
            "walk_matrix.json": ({"window": 1}, "matrix",
                                 [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]),
            "target.json": ({"kind": "softmax", "zero_policy": "mask", "epsilon": 1e-12,
                             "bias_mode": "zero", "shift_k": None, "window": 1}, "matrix",
                            [[nan, 0.0, nan], [log_half, nan, log_half], [nan, 0.0, nan]]),
            "stationary.json": ({}, "vector", [0.25, 0.5, 0.25]),
            "target_mask.json": ({}, "matrix", [[1, 0, 1], [0, 1, 0], [1, 0, 1]]),
        }
        assert _read_manifest(out)["outputs"] == list(expected)
        for name, (metadata, key, values) in expected.items():
            text = json.dumps({"metadata": metadata, key: values}, indent=2, sort_keys=True)
            assert (out / name).read_text() == text + "\n"


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

    def test_counts_sampled_at_another_window_exit_2(self, tmp_path, path_graph_file, capsys):
        sample_out = tmp_path / "sample"
        assert main(["sample", "-i", str(path_graph_file), "-t", "2", "-L", "300",
                     "-o", str(sample_out)]) == 0
        out = tmp_path / "cmp"
        code = main(["compare", "-i", str(path_graph_file),
                     "--counts", str(sample_out / "counts.csv"), "-o", str(out)])
        assert (code, capsys.readouterr().err) == (
            2, "walkmf: error: counts were sampled at window 2 but the comparison is at "
               "window 5\n")
        assert not out.exists()

    def test_counts_sampled_at_the_same_window_compare(self, tmp_path, path_graph_file):
        sample_out = tmp_path / "sample"
        assert main(["sample", "-i", str(path_graph_file), "-t", "3", "-L", "300",
                     "-o", str(sample_out)]) == 0
        out = tmp_path / "cmp"
        assert main(["compare", "-i", str(path_graph_file), "-t", "3",
                     "--counts", str(sample_out / "counts.csv"), "-o", str(out)]) == 0
        assert json.loads((out / "comparison.json").read_text())["window"] == 3

    def test_holds_six_matrices_at_most(self, tmp_path):
        # At n = 600 one n x n float array is 8n^2 = 2.7 MiB. Counts, P, the
        # conditional and both PMI targets, each kept until the end with
        # fresh temporaries around every step, peaked at ~8.4 of them.
        n = 600
        graph_path = tmp_path / "g.edges"
        graph_path.write_text("".join(f"{u} {v}\n" for u, v in random_connected_graph(n, 3).edges))
        rng = np.random.default_rng(4)
        # Symmetric, as an undirected walk's counts are.
        upper = np.triu(rng.integers(1, 20, (n, n)) * (rng.random((n, n)) < 0.3))
        counts = CooccurrenceCounts(upper + np.triu(upper, 1).T)
        write_counts_csv(counts, tmp_path / "counts.csv")
        write_counts_sidecar(counts, tmp_path / "counts.json")
        del counts
        tracemalloc.start()
        try:
            code = main(["compare", "-i", str(graph_path), "--counts", str(tmp_path / "counts.csv"),
                         "-o", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 6 * 8 * n ** 2

    def test_empty_counts_exit_2(self, tmp_path, path_graph_file, capsys):
        counts = CooccurrenceCounts(np.zeros((3, 3), dtype=np.int64))
        write_counts_csv(counts, tmp_path / "empty.csv")
        write_counts_sidecar(counts, tmp_path / "empty.json")
        code = main(["compare", "-i", str(path_graph_file), "--counts", str(tmp_path / "empty.csv"),
                     "-t", "2", "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "walkmf: error: counts are empty\n"

    def test_directed_counts_on_an_undirected_graph_exit_2(self, tmp_path, capsys):
        # A 6-cycle with one chord is strongly connected and has no two
        # opposite arcs, so it reads as an undirected graph too.
        graph = tmp_path / "g.edges"
        graph.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n")
        assert main(["sample", "-i", str(graph), "--directed", "-t", "2", "-L", "2000",
                     "-o", str(tmp_path / "sample")]) == 0
        compare = ["compare", "-i", str(graph), "--counts", str(tmp_path / "sample" / "counts.csv"),
                   "-t", "2"]
        out = tmp_path / "cmp"
        assert main([*compare, "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "walkmf: error: counts are not symmetric, as an undirected graph's are; "
            "were they sampled with --directed?\n")
        assert not out.exists()
        assert main([*compare, "--directed", "-o", str(out)]) == 0

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
    "unsorted_duplicate_row": ("counts.csv", _replace_row("2,2,1", "0,0,1")),
    "bad_header": ("counts.csv", lambda text, meta: (text.replace("v,c,count", "v,c,n"), meta)),
    "node_counts_disagree": ("counts.csv", _edit_sidecar(node_counts=[5, 7, 4])),
    "context_counts_disagree": ("counts.csv", _edit_sidecar(context_counts=[4, 9, 3])),
    "missing_n": ("counts.json", _drop_sidecar_key("n")),
    "missing_node_counts": ("counts.json", _drop_sidecar_key("node_counts")),
    "n_not_integer": ("counts.json", _edit_sidecar(n="3")),
    "n_too_large": ("counts.json", _edit_sidecar(n=1_000_000_000)),
    "bad_sampler_config": ("counts.json", _edit_sidecar(sampler_config={"bogus": 1})),
    "start_node_without_fixed_mode": ("counts.json", _edit_sidecar(sampler_config={
        "window": 2, "centers": 4, "seed": 0, "start_mode": "uniform", "start_node": 1,
        "burn_in": 0, "workers": 1})),
    "sidecar_not_json": ("counts.json", lambda text, meta: (text, "{")),
}


class TestMalformedCounts:
    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_COUNTS))
    def test_exits_2_naming_the_file(self, tmp_path, path_graph_file, capsys, command, case):
        named, edit = MALFORMED_COUNTS[case]
        counts = CooccurrenceCounts(np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]))
        csv_path, sidecar_path = tmp_path / "counts.csv", tmp_path / "counts.json"
        write_counts_csv(counts, csv_path)
        write_counts_sidecar(counts, sidecar_path)
        text, meta = edit(csv_path.read_bytes().decode(),
                          json.loads(sidecar_path.read_text()))
        csv_path.write_text(text, newline="")
        sidecar_path.write_text(meta if isinstance(meta, str) else json.dumps(meta))
        self._assert_exits_2(tmp_path, path_graph_file, capsys, command, csv_path, named)

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_marginals_past_int64_exit_2(self, tmp_path, path_graph_file, capsys, command):
        # Row 0 and the total pass 2^63 - 1. The sidecar holds the sums as
        # int64 wraps them, so they agree with the rows.
        big = 2**62
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text(f"v,c,count\r\n0,1,{big}\r\n0,2,{big}\r\n1,0,1\r\n2,0,1\r\n",
                            newline="")
        (tmp_path / "counts.json").write_text(json.dumps({
            "n": 3, "total": -2**63 + 2, "node_counts": [-2**63, 1, 1],
            "context_counts": [2, big, big]}))
        self._assert_exits_2(tmp_path, path_graph_file, capsys, command, csv_path, "2**62")

    @staticmethod
    def _assert_exits_2(tmp_path, graph, capsys, command, csv_path, named):
        argv = {
            "train": ["train", "--counts", str(csv_path), "-d", "2", "-k", "1",
                      "--epochs", "1", "-o", str(tmp_path / "out")],
            "compare": ["compare", "-i", str(graph), "--counts", str(csv_path),
                        "-t", "2", "-k", "1", "-o", str(tmp_path / "out")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("walkmf: error:")
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


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

    def test_undirected_softmax_rejects_disconnected_graph(self, tmp_path, capsys):
        # Softmax builds no pi, but the graph is checked as `exact` checks it.
        graph = tmp_path / "two.edges"
        graph.write_text("0 1\n2 3\n")
        code = main(["embed", "-i", str(graph), "-t", "2", "-d", "2",
                     "--target", "softmax", "-o", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("walkmf: error:")
        assert "not connected" in err

    def test_dim_above_node_count_is_usage_error(self, tmp_path, path_graph_file, capsys):
        code = main(["embed", "-i", str(path_graph_file), "-t", "2", "-d", "10",
                     "-o", str(tmp_path / "out")])
        assert code == 1
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["symmetric", "left"])
    def test_undirected_target_is_factored_as_its_symmetric_part(self, tmp_path, split):
        # An undirected graph's SGNS target is symmetric to rounding only.
        # embed factors (M + M^T)/2 of the target `exact` writes, and its
        # report describes that matrix.
        graph = tmp_path / "g.edges"
        graph.write_text(serialize_edge_list(random_connected_graph(60, 4, extra_edges=90)))
        args = ["-i", str(graph), "--target", "sgns", "-t", "3"]
        assert main(["exact", *args, "-o", str(tmp_path / "exact")]) == 0
        assert main(["embed", *args, "-d", "8", "--split", split,
                     "-o", str(tmp_path / "embed")]) == 0
        target = read_matrix_csv(tmp_path / "exact" / "target.csv")
        assert not np.array_equal(target, target.T)
        sym = target + target.T
        sym *= 0.5
        pair = factorize(sym, 8, split=split)
        for name, factor in (("w", pair.w), ("h", pair.h)):
            write_embedding_matrix(factor, tmp_path / f"{name}.txt")
            assert ((tmp_path / f"{name}.txt").read_bytes()
                    == (tmp_path / "embed" / f"embeddings_{name}.txt").read_bytes())
        report = json.loads((tmp_path / "embed" / "reconstruction.json").read_text())
        assert report["frobenius_error"] == reconstruction_error(sym, pair)
        assert report["singular_values"] == singular_values(sym).tolist()


class TestTrain:
    def test_upper_bound_where_k_times_the_marginals_pass_int64(self, tmp_path):
        # k #(0) #(1) = 5 * 2e9 * 2e9 = 2e19 > 2^63 - 1; every count fits.
        counts = CooccurrenceCounts(np.array([[0, 2 * 10**9], [2 * 10**9, 0]]))
        write_counts_csv(counts, tmp_path / "k2.csv")
        write_counts_sidecar(counts, tmp_path / "k2.json")
        out = tmp_path / "out"
        assert main(["train", "--counts", str(tmp_path / "k2.csv"), "-d", "2", "-k", "5",
                     "--epochs", "1", "-o", str(out)]) == 0
        pos, neg = 2e9, 5 * 2e9 * 2e9 / 4e9
        x_star = math.log(pos / neg)
        expected = 2 * (pos * -math.log1p(math.exp(-x_star)) + neg * -math.log1p(math.exp(x_star)))
        report = json.loads((out / "comparison.json").read_text())
        assert report["upper_bound"] == pytest.approx(expected, rel=1e-12)

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
        expected = train_sgns(CooccurrenceCounts(mat),
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


    @pytest.mark.parametrize("flags", [
        ["--lr", "nan"], ["--lr", "inf"], ["--init-scale", "inf"], ["--init-scale", "nan"],
    ], ids=["lr-nan", "lr-inf", "init-scale-inf", "init-scale-nan"])
    def test_non_finite_float_is_usage_error(self, tmp_path, k3_counts_files, capsys, flags):
        out = tmp_path / "out"
        code = main(["train", "--counts", str(k3_counts_files), "-d", "2", *flags,
                     "-o", str(out)])
        assert code == 1
        assert f"argument {flags[0]}: must be finite, got {flags[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--init-scale", "1e308"], "init_scale must be > 0 and at most"),
        (["--lr", "1e300"], "the SGNS objective is nan at epoch 1;"),
        (["--init-scale", "1e154"], "the SGNS objective is nan at epoch 0;"),
    ], ids=["init-scale-overflows-uniform", "lr-diverges", "init-scale-overflows-objective"])
    def test_diverging_training_exits_2_writing_nothing(self, tmp_path, k3_counts_files, capsys,
                                                        flags, message):
        out = tmp_path / "out"
        code = main(["train", "--counts", str(k3_counts_files), "-d", "2", "--epochs", "2",
                     *flags, "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("walkmf: error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_failure_removes_the_parents_it_created(self, tmp_path, k3_counts_files):
        out = tmp_path / "new" / "nested" / "out"
        assert main(["train", "--counts", str(k3_counts_files), "-d", "2", "--lr", "1e300",
                     "-o", str(out)]) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("before", [[], ["notes.txt"]], ids=["empty", "holding-a-file"])
    def test_failure_keeps_an_out_dir_that_existed(self, tmp_path, k3_counts_files, before):
        out = tmp_path / "out"
        out.mkdir()
        for name in before:
            (out / name).write_text("kept\n")
        assert main(["train", "--counts", str(k3_counts_files), "-d", "2", "--lr", "1e300",
                     "-o", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == before

    def test_failure_keeps_a_new_out_dir_holding_files(self, tmp_path, path_graph_file,
                                                       monkeypatch):
        def fails_after_a_write(config, out_dir):
            (out_dir / "partial.csv").write_text("0\n")
            raise ValueError("failed after a write")

        monkeypatch.setitem(walkmf.cli._RUNNERS, "exact", fails_after_a_write)
        out = tmp_path / "out"
        assert main(["exact", "-i", str(path_graph_file), "-o", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["partial.csv"]


def _refused_words(argv, capsys):
    """The words the command line refuses argv with: its last stderr line
    after `error: `."""
    capsys.readouterr()
    assert main(argv) == 1
    return capsys.readouterr().err.splitlines()[-1].split("error: ", 1)[1]


def _with_flags(*flags):
    """An edit that appends flags to a command line; argparse reads the last
    of a repeated flag."""
    return lambda argv: [*argv, *flags]


class TestManifests:
    def _argvs(self, tmp_path, graph_file):
        counts_csv = _analytic_path_counts(tmp_path)
        return {
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

    def _run_each_command(self, tmp_path, graph_file):
        runs = self._argvs(tmp_path, graph_file)
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

    @pytest.mark.parametrize("manifest, part", [
        ("{}", "'command'"),
        ("[1, 2]", "JSON object"),
        ('{"command": "exact", "config": {}, "inputs": {}}', "'input'"),
        ('{"command": "exact", "config": {"input": "x"}}', "'inputs'"),
    ], ids=["empty", "list", "no-input", "no-inputs"])
    def test_rerun_malformed_manifest_exits_2(self, tmp_path, capsys, manifest, part):
        path = tmp_path / "manifest.json"
        path.write_text(manifest)
        code = main(["rerun", "--manifest", str(path), "-o", str(tmp_path / "redo")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("walkmf: error:")
        assert str(path) in err and part in err
        assert "Traceback" not in err

    def test_rerun_incomplete_config_exits_2(self, tmp_path, capsys, path_graph_file):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "exact", "config": {"input": str(path_graph_file)},
                                    "inputs": {}}))
        code = main(["rerun", "--manifest", str(path), "-o", str(tmp_path / "redo")])
        assert (code, capsys.readouterr().err) == (
            2, f"walkmf: error: manifest {path}: config 'directed' is missing\n")

    @pytest.mark.parametrize("command, key, value, refusal", [
        ("exact", "window", "x", _with_flags("-t", "x")),
        ("exact", "window", True, _with_flags("-t", "True")),
        ("exact", "directed", 0, "config 'directed' is 0, but its flag reads it as False"),
        ("exact", "target", "sgsn", _with_flags("--target", "sgsn")),
        ("exact", "input", None, lambda argv: [argv[0], *argv[3:]]),
        ("exact", "windows", 2, "config has unknown key 'windows'"),
        ("sample", "start_node", 1.5, _with_flags("--start-node", "1.5")),
        ("train", "learning_rate", "0.1",
         "config 'learning_rate' is '0.1', but its flag reads it as 0.1"),
        ("exact", "window", 0, _with_flags("-t", "0")),
        ("exact", "window", 10**20 - 1, _with_flags("-t", "99999999999999999999")),
        ("sample", "length", 0, _with_flags("-L", "0")),
        ("sample", "workers", 0, _with_flags("--workers", "0")),
        ("sample", "workers", 1025, _with_flags("--workers", "1025")),
        ("sample", "burn_in", -1, _with_flags("--burn-in", "-1")),
        ("train", "epochs", -1, _with_flags("--epochs", "-1")),
        # Floats the option's own flag refuses.
        ("exact", "epsilon", 5, _with_flags("--epsilon", "5")),
        ("embed", "epsilon", 1.0, _with_flags("--epsilon", "1.0")),
        ("train", "learning_rate", 0, _with_flags("--lr", "0")),
        ("train", "init_scale", -0.5, _with_flags("--init-scale", "-0.5")),
        ("train", "init_scale", math.inf, _with_flags("--init-scale", "inf")),
        # A value that reads as a flag on its own is a value here.
        ("exact", "target", "--help", _with_flags("--target=--help")),
    ], ids=["str-window", "bool-window", "int-directed", "unknown-target", "null-input",
            "unknown-key", "float-start-node", "str-learning-rate", "zero-window",
            "huge-window", "zero-length", "zero-workers", "huge-workers", "negative-burn-in",
            "negative-epochs", "epsilon-above-one", "epsilon-one", "zero-learning-rate",
            "negative-init-scale", "infinite-init-scale", "help-as-target"])
    def test_rerun_ill_typed_config_exits_2(self, tmp_path, capsys, path_graph_file,
                                            command, key, value, refusal):
        # A refused value reads as the command line refuses it, in its words.
        out_dir = self._run_each_command(tmp_path, path_graph_file)[command]
        manifest = _read_manifest(out_dir)
        manifest["config"][key] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        code = main(["rerun", "--manifest", str(path), "-o", str(tmp_path / "redo")])
        err = capsys.readouterr().err
        if callable(refusal):
            argv = refusal(self._argvs(tmp_path, path_graph_file)[command])
            refusal = f"config: {_refused_words(argv, capsys)}"
        assert (code, err) == (2, f"walkmf: error: manifest {path}: {refusal}\n")
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("key", ["input", "window", "target"])
    def test_rerun_refuses_a_double_dash_value(self, tmp_path, capsys, path_graph_file, key):
        # Before Python 3.12 argparse reads --flag=-- as a flag without a value.
        out_dir = self._run_each_command(tmp_path, path_graph_file)["exact"]
        manifest = _read_manifest(out_dir)
        manifest["config"][key] = "--"
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        code = main(["rerun", "--manifest", str(path), "-o", str(tmp_path / "redo")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"walkmf: error: manifest {path}: config")
        assert not (tmp_path / "redo").exists()

    def test_rerun_refuses_an_unresolved_input_path(self, tmp_path, capsys, path_graph_file,
                                                    monkeypatch):
        out_dir = self._run_each_command(tmp_path, path_graph_file)["exact"]
        manifest = _read_manifest(out_dir)
        (digest,) = manifest["inputs"].values()
        manifest["config"]["input"] = "path.edges"
        manifest["inputs"] = {"path.edges": digest}
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        code = main(["rerun", "--manifest", str(path), "-o", str(tmp_path / "redo")])
        assert (code, capsys.readouterr().err) == (
            2, f"walkmf: error: manifest {path}: config 'input' is 'path.edges', but its "
               f"flag reads it as {str(path_graph_file.resolve())!r}\n")
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("start_mode, start_node", [
        ("uniform", 2), (None, 2), ("fixed", None),
    ], ids=["node-with-uniform", "node-with-default-mode", "fixed-without-node"])
    def test_rerun_start_node_without_fixed_mode_exits_2(self, tmp_path, capsys,
                                                         path_graph_file, start_mode,
                                                         start_node):
        # Configs the CLI refuses as usage errors must not rerun from a manifest.
        out_dir = self._run_each_command(tmp_path, path_graph_file)["sample"]
        manifest = _read_manifest(out_dir)
        manifest["config"].update(start_mode=start_mode, start_node=start_node)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        redo = tmp_path / "redo"
        code = main(["rerun", "--manifest", str(path), "-o", str(redo)])
        err = capsys.readouterr().err
        flags = [f"--{flag}={value}" for flag, value in
                 (("start-mode", start_mode), ("start-node", start_node)) if value is not None]
        words = _refused_words(self._argvs(tmp_path, path_graph_file)["sample"] + flags, capsys)
        assert (code, err) == (2, f"walkmf: error: manifest {path}: config: {words}\n")
        assert not redo.exists()

    @pytest.mark.parametrize("command, edit, message", [
        ("exact", lambda inputs, files: {},
         lambda path, files: f"'inputs' records no digest for input file {files[0]}"),
        ("compare", lambda inputs, files: {files[0]: inputs[files[0]]},
         lambda path, files: f"'inputs' records no digest for input file {files[1]}"),
        ("exact", lambda inputs, files: {**inputs, str(files[1]): "0" * 64},
         lambda path, files: f"'inputs' names {files[1]}, which is not an input file "
                             "of its config"),
    ], ids=["exact-no-inputs", "compare-no-counts", "exact-extra-input"])
    def test_rerun_requires_digests_of_exactly_the_input_files(
            self, tmp_path, capsys, path_graph_file, command, edit, message):
        out_dir = self._run_each_command(tmp_path, path_graph_file)[command]
        manifest = _read_manifest(out_dir)
        files = [str(path_graph_file.resolve()), str(tmp_path.resolve() / "analytic.csv")]
        manifest["inputs"] = edit(manifest["inputs"], files)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        path_graph_file.write_text("0 1\n1 2\n0 2\n")  # a changed input must not rerun
        code = main(["rerun", "--manifest", str(path), "-o", str(tmp_path / "redo")])
        assert (code, capsys.readouterr().err) == (
            2, f"walkmf: error: manifest {path}: {message(path, files)}\n")
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("learning_rate", math.nan, "config: argument --lr: must be finite, got nan"),
        ("learning_rate", math.inf, "config: argument --lr: must be finite, got inf"),
        ("init_scale", 1e308, "init_scale must be > 0 and at most"),
    ], ids=["lr-nan", "lr-inf", "init-scale-too-large"])
    def test_rerun_rejects_train_floats_that_corrupt_training(self, tmp_path, capsys,
                                                              path_graph_file, key, value,
                                                              message):
        out_dir = self._run_each_command(tmp_path, path_graph_file)["train"]
        manifest = _read_manifest(out_dir)
        manifest["config"][key] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))  # nan and inf as JSON's NaN and Infinity
        redo = tmp_path / "redo"
        code = main(["rerun", "--manifest", str(path), "-o", str(redo)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("walkmf: error: ") and message in err
        assert not redo.exists()

    def test_rerun_hashes_each_input_once(self, tmp_path, path_graph_file, monkeypatch):
        out_dirs = self._run_each_command(tmp_path, path_graph_file)
        sha256, hashed = walkmf.cli._sha256, []

        def spy(path):
            hashed.append(str(path))
            return sha256(path)

        monkeypatch.setattr(walkmf.cli, "_sha256", spy)
        for command in ("exact", "compare"):
            hashed.clear()
            manifest = out_dirs[command] / "manifest.json"
            assert main(["rerun", "--manifest", str(manifest),
                         "-o", str(tmp_path / f"redo_{command}")]) == 0
            assert sorted(hashed) == sorted(_read_manifest(out_dirs[command])["inputs"])

    def test_rerun_missing_input_exits_2_without_out_dir(self, tmp_path, capsys,
                                                         path_graph_file):
        out = tmp_path / "out"
        assert main(["exact", "-i", str(path_graph_file), "-t", "2", "-o", str(out)]) == 0
        path_graph_file.unlink()
        redo = tmp_path / "redo"
        code = main(["rerun", "--manifest", str(out / "manifest.json"), "-o", str(redo)])
        assert (code, capsys.readouterr().err) == (
            2, f"walkmf: error: input file not found: {path_graph_file.resolve()}\n")
        assert not redo.exists()

    def test_commands_do_not_mutate_inputs(self, tmp_path, path_graph_file):
        before = path_graph_file.read_bytes()
        self._run_each_command(tmp_path, path_graph_file)
        assert path_graph_file.read_bytes() == before


class TestRecordedConfig:
    """The config each command records, from a minimal argv and from one that
    sets every flag to a value other than its default."""

    @pytest.fixture
    def files(self, tmp_path):
        graph = tmp_path / "triangle.edges"
        graph.write_text("0 1\n1 2\n2 0\n")  # strongly connected as a directed graph too
        counts_csv = _analytic_path_counts(tmp_path)
        sidecar = tmp_path / "side.json"
        sidecar.write_bytes((tmp_path / "analytic.json").read_bytes())
        return {"graph": graph, "counts": counts_csv, "sidecar": sidecar,
                "graph_path": str(graph.resolve()), "counts_path": str(counts_csv.resolve()),
                "default_sidecar": str((tmp_path / "analytic.json").resolve()),
                "sidecar_path": str(sidecar.resolve())}

    def _config(self, out, argv):
        assert main([*map(str, argv), "-o", str(out)]) == 0
        return _read_manifest(out)["config"]

    def test_exact(self, tmp_path, files):
        assert self._config(tmp_path / "min", ["exact", "-i", files["graph"]]) == {
            "input": files["graph_path"], "directed": False, "window": 5, "target": "softmax",
            "bias": "zero", "negatives": 5, "zero_policy": "floor", "epsilon": 1e-12,
            "format": "csv"}
        assert self._config(tmp_path / "full", [
            "exact", "--input", files["graph"], "--directed", "--window", "3",
            "--target", "sgns", "--bias", "log2t", "--negative", "2", "--zero-policy", "mask",
            "--epsilon", "1e-9", "--format", "json"]) == {
            "input": files["graph_path"], "directed": True, "window": 3, "target": "sgns",
            "bias": "log2t", "negatives": 2, "zero_policy": "mask", "epsilon": 1e-9,
            "format": "json"}

    def test_sample(self, tmp_path, files):
        assert self._config(tmp_path / "min", ["sample", "-i", files["graph"], "-L", "20"]) == {
            "input": files["graph_path"], "directed": False, "window": 5, "length": 20,
            "seed": 0, "workers": 1, "start_mode": None, "start_node": None, "burn_in": None}
        assert self._config(tmp_path / "full", [
            "sample", "--input", files["graph"], "--directed", "--window", "2",
            "--length", "30", "--seed", "4", "--workers", "2", "--start-mode", "fixed",
            "--start-node", "1", "--burn-in", "3"]) == {
            "input": files["graph_path"], "directed": True, "window": 2, "length": 30,
            "seed": 4, "workers": 2, "start_mode": "fixed", "start_node": 1, "burn_in": 3}

    def test_compare(self, tmp_path, files):
        assert self._config(tmp_path / "min", ["compare", "-i", files["graph"],
                                                "--counts", files["counts"]]) == {
            "input": files["graph_path"], "directed": False, "counts": files["counts_path"],
            "counts_sidecar": files["default_sidecar"], "window": 5, "negatives": 5}
        assert self._config(tmp_path / "full", [
            "compare", "--input", files["graph"], "--directed", "--counts", files["counts"],
            "--counts-sidecar", files["sidecar"], "--window", "2", "--negative", "2"]) == {
            "input": files["graph_path"], "directed": True, "counts": files["counts_path"],
            "counts_sidecar": files["sidecar_path"], "window": 2, "negatives": 2}

    def test_embed(self, tmp_path, files):
        assert self._config(tmp_path / "min", ["embed", "-i", files["graph"], "-d", "2"]) == {
            "input": files["graph_path"], "directed": False, "window": 5, "dim": 2,
            "target": "softmax", "bias": "zero", "negatives": 5, "zero_policy": "floor",
            "epsilon": 1e-12, "split": "symmetric"}
        assert self._config(tmp_path / "full", [
            "embed", "--input", files["graph"], "--directed", "--window", "2", "--dim", "3",
            "--target", "sgns", "--bias", "log2t", "--negative", "2", "--zero-policy", "floor",
            "--epsilon", "1e-6", "--split", "left"]) == {
            "input": files["graph_path"], "directed": True, "window": 2, "dim": 3,
            "target": "sgns", "bias": "log2t", "negatives": 2, "zero_policy": "floor",
            "epsilon": 1e-6, "split": "left"}

    def test_train(self, tmp_path, files):
        assert self._config(tmp_path / "min", ["train", "--counts", files["counts"]]) == {
            "counts": files["counts_path"], "counts_sidecar": files["default_sidecar"],
            "dim": 64, "negatives": 5, "epochs": 5, "learning_rate": 0.1, "init_scale": None,
            "seed": 0}
        assert self._config(tmp_path / "full", [
            "train", "--counts", files["counts"], "--counts-sidecar", files["sidecar"],
            "--dim", "3", "--negative", "2", "--epochs", "2", "--lr", "0.05",
            "--init-scale", "0.2", "--seed", "7"]) == {
            "counts": files["counts_path"], "counts_sidecar": files["sidecar_path"],
            "dim": 3, "negatives": 2, "epochs": 2, "learning_rate": 0.05, "init_scale": 0.2,
            "seed": 7}

    # Text each option type parses; a drawn None leaves an optional flag out.
    _FLAG_TEXT = {
        walkmf.cli._positive_int: st.integers(1, 10**9).map(str),
        walkmf.cli._window: st.integers(1, walkmf.cli.MAX_WINDOW).map(str),
        walkmf.cli._workers: st.integers(1, walkmf.cli.MAX_WORKERS).map(str),
        walkmf.cli._nonnegative_int: st.integers(0, 10**9).map(str),
        walkmf.cli._positive_float: st.one_of(
            st.floats(0, exclude_min=True, allow_infinity=False).map(repr),
            st.integers(1, 10**6).map(str)),
        walkmf.cli._fraction: st.floats(0, 1, exclude_min=True, exclude_max=True).map(repr),
        Path: st.text("ab._-=/ ", min_size=1, max_size=8),
    }

    @pytest.mark.parametrize("command", sorted(walkmf.cli._COMMANDS))
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_every_config_the_flags_make_passes_the_config_check(self, command, data):
        _, options = walkmf.cli._COMMANDS[command]
        argv = [command, "--out-dir", "out"]
        for flags, key, kwargs in options:
            if kwargs.get("action") == "store_true":
                argv += [flags[0]] if data.draw(st.booleans(), label=key) else []
                continue
            text = (st.sampled_from(kwargs["choices"]) if "choices" in kwargs
                    else self._FLAG_TEXT[kwargs["type"]])
            if not kwargs.get("required"):
                text = st.none() | text
            value = data.draw(text, label=key)
            if value is not None:
                argv.append(f"{flags[0]}={value}")
        try:
            config = walkmf.cli._config_from_args(walkmf.cli.build_parser().parse_args(argv))
        except (walkmf.cli.UsageError, ValueError):  # a start node without mode fixed, or
            reject()                                # a counts path with no name to suffix
        assert walkmf.cli._config_problem(command, config) is None

    def test_short_flags_record_what_long_ones_do(self, tmp_path, files):
        short = ["embed", "-i", files["graph"], "-t", "2", "-k", "3", "-d", "2"]
        long = ["embed", "--input", files["graph"], "--window", "2", "--negative", "3",
                "--dim", "2"]
        assert self._config(tmp_path / "short", short) == self._config(tmp_path / "long", long)


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["exact"]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["exact", "-i", str(tmp_path / "nope.edges"), "-o", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--window=--", "-t=--", "--target=--"])
    def test_double_dash_value_is_usage_error(self, tmp_path, path_graph_file, flag):
        out = tmp_path / "out"
        assert main(["exact", "-i", str(path_graph_file), flag, "-o", str(out)]) == 1
        assert not out.exists()

    def test_symlink_loop_input_exits_2(self, tmp_path, capsys):
        loop = tmp_path / "loop.edges"
        loop.symlink_to(loop)
        code = main(["exact", "-i", str(loop), "-o", str(tmp_path / "o")])
        assert (code, capsys.readouterr().err) == (
            2, f"walkmf: error: input file not found: {os.path.realpath(loop)}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["exact", "embed"])
    @pytest.mark.parametrize("epsilon", ["5", "1"])
    def test_epsilon_outside_unit_interval_is_usage_error(self, tmp_path, path_graph_file,
                                                          capsys, command, epsilon):
        out = tmp_path / "out"
        code = main([command, "-i", str(path_graph_file), "-t", "2", "--epsilon", epsilon,
                     "-o", str(out)])
        assert code == 1
        assert f"argument --epsilon: must be in (0, 1), got {epsilon}" in capsys.readouterr().err
        assert not out.exists()

    def test_window_past_its_maximum_is_usage_error(self, tmp_path, path_graph_file, capsys):
        # Unbounded, this window would have exact make 10^20 walk-matrix products.
        out = tmp_path / "out"
        started = time.perf_counter()
        code = main(["exact", "-i", str(path_graph_file), "-t", "99999999999999999999",
                     "-o", str(out)])
        assert time.perf_counter() - started < 1
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "walkmf exact: error: argument --window/-t: must be at most 1000, "
            "got 99999999999999999999\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [("exact", []), ("sample", ["-L", "300"])])
    def test_the_largest_window_runs(self, tmp_path, path_graph_file, command, flags):
        assert main([command, "-i", str(path_graph_file), "-t", str(walkmf.cli.MAX_WINDOW),
                     *flags, "-o", str(tmp_path / "out")]) == 0

    def test_workers_past_their_maximum_is_usage_error(self, tmp_path, path_graph_file, capsys):
        # Unbounded, -L 10^9 --workers 10^9 would build ~400 GB of jobs before one walk.
        out = tmp_path / "out"
        code = main(["sample", "-i", str(path_graph_file), "-L", "1000000000",
                     "--workers", "1000000000", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "walkmf sample: error: argument --workers: must be at most 1024, got 1000000000\n")
        assert not out.exists()

    def test_the_most_workers_run(self, tmp_path, path_graph_file, monkeypatch):
        # On one core every worker's walk runs in this process: nothing is forked.
        monkeypatch.setattr(walkmf.parallel, "available_cores", lambda: 1)
        workers = str(walkmf.cli.MAX_WORKERS)
        assert main(["sample", "-i", str(path_graph_file), "-L", workers, "--workers", workers,
                     "-o", str(tmp_path / "out")]) == 0
        assert _read_manifest(tmp_path / "out")["config"]["workers"] == walkmf.cli.MAX_WORKERS


    @pytest.mark.parametrize("argv, stderr", [
        (["exact", "-i", "g.edges", "-t", "0"],
         "usage: walkmf exact [-h] --input INPUT [--directed] [--window WINDOW]\n"
         "                    [--target {softmax,sgns}] [--bias {zero,log2t}]\n"
         "                    [--negative NEGATIVE]\n"
         "                    [--zero-policy {floor,truncate,mask}] [--epsilon EPSILON]\n"
         "                    [--format {csv,json}] --out-dir OUT_DIR\n"
         "walkmf exact: error: argument --window/-t: must be a positive integer, got 0\n"),
        (["sample", "-i", "g.edges", "-L", "0"],
         "usage: walkmf sample [-h] --input INPUT [--directed] [--window WINDOW]\n"
         "                     --length LENGTH [--seed SEED] [--workers WORKERS]\n"
         "                     [--start-mode {stationary,uniform,fixed}]\n"
         "                     [--start-node START_NODE] [--burn-in BURN_IN] --out-dir\n"
         "                     OUT_DIR\n"
         "walkmf sample: error: argument --length/-L: must be a positive integer, got 0\n"),
        (["compare", "-i", "g.edges", "--counts", "c.csv", "-k", "0"],
         "usage: walkmf compare [-h] --input INPUT [--directed] --counts COUNTS\n"
         "                      [--counts-sidecar COUNTS_SIDECAR] [--window WINDOW]\n"
         "                      [--negative NEGATIVE] --out-dir OUT_DIR\n"
         "walkmf compare: error: argument --negative/-k: must be a positive integer, got 0\n"),
        (["embed", "-i", "g.edges", "-d", "0"],
         "usage: walkmf embed [-h] --input INPUT [--directed] [--window WINDOW]\n"
         "                    [--dim DIM] [--target {softmax,sgns}]\n"
         "                    [--bias {zero,log2t}] [--negative NEGATIVE]\n"
         "                    [--zero-policy {floor,truncate,mask}] [--epsilon EPSILON]\n"
         "                    [--split {symmetric,left}] --out-dir OUT_DIR\n"
         "walkmf embed: error: argument --dim/-d: must be a positive integer, got 0\n"),
        (["train", "--counts", "c.csv", "--lr", "nan"],
         "usage: walkmf train [-h] --counts COUNTS [--counts-sidecar COUNTS_SIDECAR]\n"
         "                    [--dim DIM] [--negative NEGATIVE] [--epochs EPOCHS]\n"
         "                    [--lr LR] [--init-scale INIT_SCALE] [--seed SEED]\n"
         "                    --out-dir OUT_DIR\n"
         "walkmf train: error: argument --lr: must be finite, got nan\n"),
    ], ids=["exact", "sample", "compare", "embed", "train"])
    def test_bad_flag_prints_usage_and_error(self, tmp_path, capsys, monkeypatch, argv,
                                             stderr):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        out = tmp_path / "out"
        assert main([*argv, "-o", str(out)]) == 1
        assert capsys.readouterr() == ("", stderr)
        assert not out.exists()


def _run_python(*args):
    """A fresh interpreter that imports walkmf from this checkout."""
    src = Path(walkmf.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


class TestModuleEntryPoint:
    def test_importing_main_module_runs_nothing(self):
        proc = _run_python("-c", "import walkmf.__main__")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == ""

    def test_python_m_walkmf_still_runs_the_cli(self):
        proc = _run_python("-m", "walkmf", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"walkmf {walkmf.__version__}"


# The walkmf modules a fresh interpreter holds after the statements before it.
_LOADED = "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'walkmf'))"
# `python -m walkmf ARGS...`, then its exit code and _LOADED on the last line.
_RUN_AS_MAIN = f"""
import runpy, sys
sys.argv = ["walkmf", *sys.argv[1:]]
try:
    runpy.run_module("walkmf", run_name="__main__")
except SystemExit as exc:
    print(exc.code, end=" ")
{_LOADED}
"""
_CLI_MODULES = {"walkmf", "walkmf.cli", "walkmf.choices"}

# The public names `import walkmf` has always offered.
_API = """
    ConnectivityReport EdgeListError Graph GraphStructureError check_connectivity
    load_edge_list parse_edge_list serialize_edge_list stationary_distribution
    transition_matrix
    CooccurrenceCounts SamplerConfig Walk default_sampler_config empirical_conditional
    empirical_frequency extract_pairs generate_walk merge_counts read_counts_csv
    sample_counts write_counts_csv write_counts_sidecar
    ComparisonReport TargetMatrix WalkMatrix compare_matrices expected_neighbor_counts
    read_matrix_csv sgns_target_exact sgns_target_from_counts softmax_target
    walk_probability_matrix write_matrix_csv
    EmbeddingPair FactorizationError factorize read_embedding_matrix
    reconstruction_error singular_values truncated_svd write_embedding_matrix
    TrainConfig TrainResult dot_matrix dot_vs_shifted_pmi sgns_objective
    sgns_objective_gradient sgns_objective_upper_bound train_sgns
""".split()


class TestImportBudget:
    """Each entry point loads only the layer modules it runs."""

    @pytest.mark.parametrize("statement", [
        "import walkmf.graphs",
        "from walkmf import parse_edge_list",
    ], ids=["import-layer", "from-package"])
    def test_one_layer_loads_alone(self, statement):
        proc = _run_python("-c", f"import sys; {statement}; {_LOADED}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["walkmf", "walkmf.graphs"]

    @pytest.mark.parametrize("argv, code", [
        (["--help"], "0"), (["--version"], "0"), (["exact", "-t", "2"], "1"),
    ], ids=["help", "version", "usage-error"])
    def test_parser_loads_no_layer_and_no_numpy(self, argv, code):
        proc = _run_python("-c", f"{_RUN_AS_MAIN}print('numpy' in sys.modules)", *argv)
        assert proc.returncode == 0, proc.stderr
        *_, modules, numpy_loaded = proc.stdout.splitlines()
        assert modules.split() == [code, *sorted(_CLI_MODULES)]
        assert numpy_loaded == "False"

    @pytest.mark.parametrize("argv, layers", [
        (["exact", "--target", "sgns"], {"graphs", "targets", "parallel"}),
        (["sample", "-L", "100"], {"graphs", "sampling", "parallel"}),
        (["compare", "--counts", "COUNTS"], {"graphs", "sampling", "targets", "parallel"}),
        (["embed", "-d", "2"], {"graphs", "targets", "factorization", "parallel"}),
        (["train", "-d", "2", "--epochs", "1"],
         {"graphs", "sampling", "targets", "factorization", "sgns", "parallel"}),
    ], ids=["exact", "sample", "compare", "embed", "train"])
    def test_command_loads_its_own_layers(self, tmp_path, path_graph_file, argv, layers):
        counts = str(_analytic_path_counts(tmp_path))
        argv = [counts if arg == "COUNTS" else arg for arg in argv]
        if argv[0] == "train":
            argv += ["--counts", counts]
        else:
            argv += ["-i", str(path_graph_file), "-t", "2"]
        proc = _run_python("-c", _RUN_AS_MAIN, *argv, "-o", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.splitlines()[-1].split()
        assert code == "0"
        assert set(loaded) == _CLI_MODULES | {f"walkmf.{layer}" for layer in layers}

    def test_dir_and_star_import_list_the_whole_api(self):
        assert sorted(walkmf.__all__) == sorted(_API)
        assert set(_API) <= set(dir(walkmf))
        namespace = {}
        exec("from walkmf import *", namespace)
        assert namespace.keys() - {"__builtins__"} == set(_API)
        for name in _API:  # each name is the object its layer defines
            value = namespace[name]
            assert value is getattr(walkmf, name) is getattr(sys.modules[value.__module__], name)
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            walkmf.nonexistent
