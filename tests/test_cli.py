"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestTables:
    def test_table_1(self, capsys):
        assert main(["table", "1", "--job-count", "300", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "NASA" in out and "SDSC" in out

    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "N (nodes)" in out
        assert "720" in out

    def test_unknown_table(self, capsys):
        assert main(["table", "3"]) == 2


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "nasa",
                "--job-count",
                "60",
                "--seed",
                "5",
                "-a",
                "0.5",
                "-U",
                "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "QoS" in out
        assert "Avg utilization" in out

    def test_run_with_policy_override(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "nasa",
                "--job-count",
                "40",
                "--seed",
                "5",
                "--policy",
                "periodic",
            ]
        )
        assert code == 0
        assert "periodic" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--job-count", "0"], "job_count must be > 0"),
            (["-a", "1.5"], "accuracy must be in [0,1]"),
            (["-U", "-0.5"], "user_threshold must be in [0,1]"),
        ],
    )
    def test_bad_parameters_are_one_line_usage_errors(self, capsys, argv, message):
        code = main(["run", "--workload", "nasa", "--seed", "5", *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("probqos run: error: ")
        assert message in captured.err


class TestFigureAndHeadline:
    def test_figure_7_small(self, capsys):
        assert main(["figure", "7", "--job-count", "40", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "User Parameter (U)" in out

    def test_headline_small(self, capsys):
        assert (
            main(["headline", "--workload", "nasa", "--job-count", "40", "--seed", "5"])
            == 0
        )
        assert "Headline comparison" in capsys.readouterr().out


class TestSuggest:
    def test_suggest_prints_offer(self, capsys):
        code = main(
            [
                "suggest",
                "--workload",
                "nasa",
                "--job-count",
                "10",
                "--seed",
                "5",
                "--size",
                "8",
                "--runtime",
                "7200",
                "--target",
                "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Suggested deadline" in out
        assert "promised p" in out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "1", "--workload", "cray"])


class TestExportAndGantt:
    def test_export_writes_bundle(self, tmp_path, capsys):
        code = main(
            [
                "export",
                str(tmp_path / "bundle"),
                "--workload",
                "nasa",
                "--job-count",
                "25",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        assert (tmp_path / "bundle" / "workload.swf").exists()
        assert (tmp_path / "bundle" / "failures.csv").exists()
        assert (tmp_path / "bundle" / "manifest.json").exists()
        assert "bundle written" in capsys.readouterr().out

    def test_gantt_renders_chart(self, capsys):
        code = main(
            [
                "gantt",
                "--workload",
                "nasa",
                "--job-count",
                "10",
                "--nodes",
                "8",
                "--seed",
                "5",
                "--width",
                "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "node   0" in out
        assert "QoS=" in out


class TestUsageErrors:
    """Bad parameters on every subcommand: one stderr line, exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["figure", "99"], "the paper has figures 1-12; got 99"),
            (["figure", "3", "--job-count", "0"], "--job-count must be >= 1"),
            (["headline", "--job-count", "0"], "--job-count must be >= 1"),
            (["report", "--job-count", "-1"], "--job-count must be >= 1"),
            (["report", "--figures", "13"], "the paper has figures 1-12; got 13"),
            (["gantt", "--nodes", "0"], "--nodes must be >= 1, got 0"),
            (["gantt", "--width", "0"], "--width must be >= 1, got 0"),
            (["suggest", "--size", "0", "--runtime", "100"], "--size must be >= 1"),
            (["suggest", "--size", "4", "--runtime", "-5"], "--runtime must be > 0"),
            (
                ["suggest", "--size", "4", "--runtime", "100", "-a", "1.5"],
                "accuracy must be in [0,1]",
            ),
            (
                ["suggest", "--size", "4", "--runtime", "100", "--job-count", "0"],
                "--job-count must be >= 1",
            ),
            (["export", "bundle", "--job-count", "0"], "--job-count must be >= 1"),
            (["table", "9"], "the paper has tables 1 and 2; got 9"),
        ],
    )
    def test_bad_parameters_are_one_line_usage_errors(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"probqos {argv[0]}: error: ")
        assert message in captured.err

    @pytest.mark.parametrize("target", ["1.5", "0", "-0.2"])
    def test_suggest_rejects_a_target_outside_the_unit_interval(self, capsys, target):
        # Once reported as "infeasible: no partition ... can be placed"
        # with exit 1: a false verdict, since placement was never the issue.
        argv = ["suggest", "--size", "4", "--runtime", "100", "--target", target]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "infeasible" not in captured.out
        assert captured.err.count("\n") == 1
        assert "--target must be in (0, 1]" in captured.err

    def test_export_into_an_unwritable_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        argv = ["export", str(blocker / "bundle"), "--job-count", "25", "--seed", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("probqos export: error: cannot write bundle: ")
