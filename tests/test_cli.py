"""Tests for the mcss command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.serving import ServingMetrics

# A Spotify draw small enough that one serve/churn run takes milliseconds.
SERVE = ["serve", "--users", "800", "--seed", "1"]
CHURN = ["churn", "--users", "800", "--seed", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.trace == "spotify"
        assert args.tau == 100.0
        assert args.selector == "gsp"
        assert args.packer == "cbp"

    def test_unknown_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--trace", "myspace"])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "fig2a", "--users", "500"])
        assert args.figure_id == "fig2a"
        assert args.users == 500


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "summary" in out

    def test_solve_small(self, capsys):
        code = main(
            ["solve", "--trace", "spotify", "--tau", "10", "--users", "800",
             "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saving vs naive" in out
        assert "lower bound" in out

    def test_solve_with_explicit_algorithms(self, capsys):
        code = main(
            ["solve", "--trace", "twitter", "--tau", "10", "--users", "600",
             "--selector", "rsp", "--packer", "ffbp"]
        )
        assert code == 0
        assert "rsp+ffbp" in capsys.readouterr().out

    def test_figure_trace_analysis(self, capsys):
        code = main(["figure", "fig9", "--users", "800", "--seed", "2"])
        assert code == 0
        assert "fig9" in capsys.readouterr().out

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            main(["figure", "fig99"])

    def test_analyze_tables(self, capsys):
        code = main(["analyze", "--trace", "twitter", "--users", "700", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "fig12" in out

    def test_analyze_plot_mode(self, capsys):
        code = main(
            ["analyze", "--trace", "twitter", "--users", "700", "--seed", "1",
             "--plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Plot mode renders axes rather than tables.
        assert "+---" in out or "+" in out
        assert "#followers" in out


class TestServeAndChurn:
    @pytest.mark.parametrize(
        "bound, code, verdict",
        [("5", 0, "SLO: met"), ("1e-9", 1, "SLO: MISSED")],
        ids=["met", "missed"],
    )
    def test_slo_verdict_sets_exit_code(self, capsys, bound, code, verdict):
        assert main(SERVE + ["--epochs", "2", "--slo-p99", bound]) == code
        assert verdict in capsys.readouterr().out

    def test_metrics_out_writes_the_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(SERVE + ["--epochs", "2", "--metrics-out", str(path)]) == 0
        metrics = json.loads(path.read_text())
        assert set(metrics) == set(ServingMetrics().snapshot())
        assert metrics["serve.micro_epochs"] == 2

    def test_serve_kill_and_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "serve.npz")
        ref_path = tmp_path / "ref.json"
        got_path = tmp_path / "got.json"
        assert main(SERVE + ["--epochs", "6", "--metrics-out", str(ref_path)]) == 0
        assert main(
            SERVE + ["--epochs", "4", "--checkpoint", ckpt,
                     "--checkpoint-every", "2"]
        ) == 0
        capsys.readouterr()
        assert main(
            SERVE + ["--epochs", "6", "--checkpoint", ckpt, "--resume",
                     "--metrics-out", str(got_path)]
        ) == 0
        assert "resumed from micro-epoch 4" in capsys.readouterr().out
        ref = json.loads(ref_path.read_text())
        got = json.loads(got_path.read_text())
        for name in (
            "serve.micro_epochs",
            "serve.ops",
            "serve.moves",
            "serve.pairs_added",
            "serve.pairs_removed",
            "serve.rebuilds",
            "serve.cost_usd",
            "serve.drift",
            "serve.num_vms",
        ):
            assert got[name] == ref[name], name

    def test_churn_kill_and_resume(self, tmp_path, capsys):
        def epoch_lines(out):
            return [line for line in out.splitlines() if line.startswith("epoch ")]

        ckpt = str(tmp_path / "churn.npz")
        assert main(CHURN + ["--epochs", "6"]) == 0
        ref = epoch_lines(capsys.readouterr().out)
        assert main(
            CHURN + ["--epochs", "4", "--checkpoint", ckpt,
                     "--checkpoint-every", "2"]
        ) == 0
        capsys.readouterr()
        assert main(CHURN + ["--epochs", "6", "--checkpoint", ckpt, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from epoch 4" in out
        assert epoch_lines(out) == ref[4:]
