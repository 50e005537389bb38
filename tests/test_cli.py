"""Unit/integration tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def graph_file(tmp_path):
    """Generate a small planted graph on disk, plus its truth file."""
    graph_path = tmp_path / "g.txt"
    truth_path = tmp_path / "truth.txt"
    code = main([
        "generate", "--custom",
        "--vertices", "90", "--communities", "3", "--ratio", "9.0",
        "--mean-degree", "8.0", "--seed", "4",
        "--output", str(graph_path),
        "--truth-output", str(truth_path),
    ])
    assert code == 0
    return graph_path, truth_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect", "g.txt"])
        assert args.variant == "h-sbp"
        assert args.runs == 1

    def test_generate_sources_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--corpus", "S1", "--custom", "--output", "x.txt"]
            )

    def test_detect_accepts_registered_variants(self):
        from repro.mcmc.engine import available_variants

        for name in available_variants():
            args = build_parser().parse_args(["detect", "g.txt", "--variant", name])
            assert args.variant == name

    def test_unregistered_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "g.txt", "--variant", "nope"])

    def test_detect_accepts_registered_merge_backend(self):
        from repro.parallel.backend import available_merge_backends, register_merge_backend
        from repro.parallel.merge import VectorizedMergeBackend

        if "plugin-merge" not in available_merge_backends():
            register_merge_backend("plugin-merge", VectorizedMergeBackend)
        args = build_parser().parse_args(
            ["detect", "g.txt", "--merge-backend", "plugin-merge"]
        )
        assert args.merge_backend == "plugin-merge"


class TestVariantsCommand:
    def test_lists_every_registered_spec(self, capsys):
        from repro.mcmc.engine import available_variants

        assert main(["variants", "--list"]) == 0
        out = capsys.readouterr().out
        for name in available_variants():
            assert name in out
        # plan segments are printed, not just names
        assert "serial[" in out and "frozen[" in out
        assert "barriers/sweep" in out


class TestGenerate:
    def test_corpus_graph(self, tmp_path, capsys):
        out = tmp_path / "s2.txt"
        assert main(["generate", "--corpus", "S2", "--output", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()

    def test_standin_graph_mtx(self, tmp_path):
        out = tmp_path / "wiki.mtx"
        assert main(["generate", "--standin", "wiki-Vote", "--output", str(out)]) == 0
        assert out.read_text().startswith("%%MatrixMarket")

    def test_standin_truth_unavailable(self, tmp_path):
        out = tmp_path / "wiki.txt"
        code = main([
            "generate", "--standin", "wiki-Vote", "--output", str(out),
            "--truth-output", str(tmp_path / "t.txt"),
        ])
        assert code == 2

    def test_custom_truth_file(self, graph_file):
        graph_path, truth_path = graph_file
        pairs = np.loadtxt(truth_path, dtype=np.int64, comments="#")
        assert pairs.shape == (90, 2)
        assert set(pairs[:, 1]) == {0, 1, 2}


class TestInfo:
    def test_prints_stats(self, graph_file, capsys):
        graph_path, _ = graph_file
        assert main(["info", str(graph_path)]) == 0
        out = capsys.readouterr().out
        assert "V" in out and "90" in out

    def test_prints_content_digest(self, graph_file, capsys):
        from repro.graph.io import read_edge_list

        graph_path, _ = graph_file
        assert main(["info", str(graph_path)]) == 0
        out = capsys.readouterr().out
        digest_lines = [l for l in out.splitlines() if l.startswith("digest")]
        assert len(digest_lines) == 1
        # The printed address is the graph's actual content digest.
        assert read_edge_list(graph_path).digest() in digest_lines[0]


@pytest.mark.slow
class TestDetectAndCompare:
    def test_detect_json_and_output(self, graph_file, tmp_path, capsys):
        graph_path, _ = graph_file
        communities = tmp_path / "communities.txt"
        code = main([
            "detect", str(graph_path), "--variant", "h-sbp", "--seed", "3",
            "--json", "--output", str(communities),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["V"] == 90
        assert summary["communities"] >= 1
        assert 0.0 < summary["normalized_mdl"] <= 1.05
        pairs = np.loadtxt(communities, dtype=np.int64, comments="#")
        assert pairs.shape[0] == 90

    def test_detect_text_output(self, graph_file, capsys):
        graph_path, _ = graph_file
        assert main(["detect", str(graph_path), "--variant", "a-sbp",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "normalized_mdl" in out

    def test_compare_with_truth(self, graph_file, capsys):
        graph_path, truth_path = graph_file
        code = main([
            "compare", str(graph_path), "--variants", "a-sbp,h-sbp",
            "--seed", "2", "--truth", str(truth_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "NMI" in out
        assert "a-sbp" in out and "h-sbp" in out


class TestCLIErrorHandling:
    def test_missing_file_clean_error(self, capsys):
        code = main(["info", "/nonexistent/graph.txt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        code = main(["info", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
