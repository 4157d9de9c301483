"""Tests for the mcss command-line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.core import MCSSProblem
from repro.dynamic import ChurnConfig, ChurnModel, IncrementalReprovisioner
from repro.experiments import ExperimentScale, make_plan, make_trace
from repro.serving.checkpoint import save_checkpoint
from repro.serving import ServingMetrics

# A Spotify draw small enough that one serve run takes milliseconds.
SERVE = ["serve", "--users", "800", "--seed", "1"]


def epoch_lines(out):
    """The per-micro-epoch lines of a serve run, latency column dropped."""
    return [
        re.sub(r" +\d+\.\d+ ms +", "  ", line)
        for line in out.splitlines()
        if line.startswith("micro-epoch ")
    ]


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

    def test_churn_subcommand_is_gone(self, capsys):
        # `mcss serve` is the one churn -> reprovision driver.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--epochs", "4"])
        assert "invalid choice: 'churn'" in capsys.readouterr().err


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

    def test_solve_rejects_nan_tau(self):
        with pytest.raises(ValueError, match="tau"):
            main(["solve", "--tau", "nan", "--users", "400"])

    def test_solve_tau_zero_prints_no_ratios(self, capsys):
        # At tau 0 nothing need be delivered: every cost is $0, so
        # neither the saving nor the gap has a denominator.
        assert main(["solve", "--tau", "0", "--users", "400"]) == 0
        out = capsys.readouterr().out
        assert "saving vs naive: n/a   gap to bound: n/a" in out

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

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        listed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert listed.returncode == 0, listed.stderr
        assert "fig2a" in listed.stdout

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


class TestServe:
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

    @pytest.mark.parametrize(
        "flags, match",
        [
            (["--fresh-solve-every", "0"], "fresh_solve_every must be"),
            (["--checkpoint-every", "2"], "needs a checkpoint_path"),
            (["--resume"], "resume requires"),
            (["--epochs", "-1"], "micro_epochs must be"),
            (["--tau", "nan"], "tau must be"),
        ],
        ids=["zero-cadence", "cadence-without-path", "resume-without-path",
             "negative-epochs", "nan-tau"],
    )
    def test_serve_rejects_bad_flags(self, flags, match):
        with pytest.raises(ValueError, match=match):
            main(SERVE + flags)

    def test_serve_prints_pair_counts(self, capsys):
        assert main(SERVE + ["--epochs", "2"]) == 0
        lines = epoch_lines(capsys.readouterr().out)
        assert len(lines) == 2
        for line in lines:
            assert re.search(r"ops +\d+  \+\d+ -\d+ ~\d+ pairs$", line), line

    def test_serve_tags_fresh_solve_epochs(self, capsys):
        # The epochs that re-pack the live selection say so, as the
        # p99 of a serve run is usually one of them.
        assert main(SERVE + ["--epochs", "4", "--fresh-solve-every", "2"]) == 0
        lines = epoch_lines(capsys.readouterr().out)
        assert [line.endswith("pairs  [fresh]") for line in lines] == [
            False, True, False, True,
        ]
        assert main(SERVE + ["--epochs", "2", "--fresh-solve-every", "1"]) == 0
        lines = epoch_lines(capsys.readouterr().out)
        assert len(lines) == 2
        assert all("pairs  [fresh]" in line for line in lines)

    def test_serve_resume_prints_the_uninterrupted_lines(self, tmp_path, capsys):
        ckpt = str(tmp_path / "serve.npz")
        assert main(SERVE + ["--epochs", "6"]) == 0
        ref = epoch_lines(capsys.readouterr().out)
        assert len(ref) == 6
        assert main(
            SERVE + ["--epochs", "4", "--checkpoint", ckpt,
                     "--checkpoint-every", "2"]
        ) == 0
        first = epoch_lines(capsys.readouterr().out)
        assert main(SERVE + ["--epochs", "6", "--checkpoint", ckpt, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from micro-epoch 4" in out
        assert first + epoch_lines(out) == ref

    def test_serve_resume_keeps_the_checkpoint_cadence(self, tmp_path):
        # The resumed run keeps the checkpoint's cadence, so a different
        # --fresh-solve-every is an error, not a setting silently ignored.
        ckpt = str(tmp_path / "serve.npz")
        assert main(
            SERVE + ["--epochs", "2", "--checkpoint", ckpt,
                     "--checkpoint-every", "2"]
        ) == 0
        with pytest.raises(
            ValueError, match="fresh_solve_every is 2 in the config but 8 "
        ):
            main(
                SERVE + ["--epochs", "4", "--checkpoint", ckpt, "--resume",
                         "--fresh-solve-every", "2"]
            )

    def test_serve_resumes_a_checkpoint_without_serving_counters(
        self, tmp_path, capsys
    ):
        # A checkpoint of the bare reprovisioner and churn stream (no
        # serving counters) resumes at its epoch, not at micro-epoch 0.
        scale = ExperimentScale(num_users=800, seed=1)
        trace = make_trace("spotify", scale)
        plan = make_plan("c3.large", trace.workload, scale)
        reprov = IncrementalReprovisioner(MCSSProblem(trace.workload, 100.0, plan))
        model = ChurnModel(trace.workload, ChurnConfig(), seed=0)
        for _ in range(4):
            reprov.step(model.step())
        ckpt = str(tmp_path / "bare.npz")
        save_checkpoint(ckpt, reprov, model)

        ref_path = tmp_path / "ref.json"
        got_path = tmp_path / "got.json"
        assert main(SERVE + ["--epochs", "6", "--metrics-out", str(ref_path)]) == 0
        ref_lines = epoch_lines(capsys.readouterr().out)
        assert main(
            SERVE + ["--epochs", "6", "--checkpoint", ckpt, "--resume",
                     "--metrics-out", str(got_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed from micro-epoch 4" in out
        assert epoch_lines(out) == ref_lines[4:]
        ref = json.loads(ref_path.read_text())
        got = json.loads(got_path.read_text())
        for name in ("serve.micro_epochs", "serve.cost_usd", "serve.num_vms"):
            assert got[name] == ref[name], name
