"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.seed == 2014
        assert args.days == 4

    def test_scale_flags(self):
        args = build_parser().parse_args(
            ["figures", "--seed", "7", "--days", "2", "--sites", "10"])
        assert (args.seed, args.days, args.sites) == (7, 2, 10)

    def test_clickfraud_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["clickfraud", "--mode", "bogus"])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 2
        assert args.queue_policy == "block"
        assert args.replays == 2


class TestExecution:
    def test_scarecrow_command(self, capsys):
        assert main(["scarecrow"]) == 0
        assert "SCARECROW" in capsys.readouterr().out

    def test_clickfraud_command(self, capsys):
        assert main(["clickfraud", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "sliding-window dedup" in out
        assert "CTR anomaly" in out

    def test_disasm_command(self, capsys, tmp_path):
        script = tmp_path / "creative.js"
        script.write_text(
            "var n = 1 + 2;\nfunction f(a){ return a * n; }\nf(3);\n",
            encoding="utf-8")
        assert main(["disasm", str(script)]) == 0
        out = capsys.readouterr().out
        assert "== program <program>" in out
        assert "== function f" in out
        assert "CALL_FUNCTION" in out
        assert "line=2" in out

    def test_disasm_missing_file(self, capsys):
        assert main(["disasm", "/nonexistent/creative.js"]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_disasm_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.js"
        bad.write_text("var = ;", encoding="utf-8")
        assert main(["disasm", str(bad)]) == 1
        assert "ParseError" in capsys.readouterr().out

    def test_study_command_small(self, capsys, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        code = main(["study", "--seed", "5", "--days", "1", "--refreshes", "1",
                     "--sites", "6", "--feed-sites", "2",
                     "--save-corpus", str(corpus_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Type of maliciousness" in out
        assert corpus_path.exists()

    def test_study_markdown_flag(self, capsys):
        code = main(["study", "--seed", "5", "--days", "1", "--refreshes", "1",
                     "--sites", "5", "--feed-sites", "1", "--markdown"])
        assert code == 0
        assert capsys.readouterr().out.startswith("# Malvertising study report")

    def test_figures_command(self, capsys):
        code = main(["figures", "--seed", "5", "--days", "1", "--refreshes", "1",
                     "--sites", "5", "--feed-sites", "2"])
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_serve_command_small(self, capsys):
        code = main(["serve", "--seed", "5", "--days", "1", "--refreshes", "1",
                     "--sites", "5", "--feed-sites", "1", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "service report" in out
        assert "oracle scans" in out
        assert "replay 2" in out

    def test_serve_streaming_with_warm_cache(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        base = ["--seed", "5", "--days", "1", "--refreshes", "1",
                "--sites", "5", "--feed-sites", "1", "--store", str(store_dir)]
        assert main(["serve", *base, "--replays", "1"]) == 0
        capsys.readouterr()
        assert main(["serve", *base, "--stream", "--replays", "1"]) == 0
        out = capsys.readouterr().out
        assert "streamed crawl" in out
        # Warm restart from the store: the streaming run re-scans nothing.
        assert "oracle scans:   0" in out

    def test_countermeasures_command_small(self, capsys):
        code = main(["countermeasures", "--seed", "5", "--days", "1",
                     "--refreshes", "1", "--sites", "6", "--feed-sites", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shared blacklist" in out
        assert "penalties" in out
        assert "Ad-path defense" in out
