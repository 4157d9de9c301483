"""Command-line interface (``mcss`` / ``python -m repro``).

Subcommands:

* ``mcss list`` -- list the reproducible figures;
* ``mcss figure fig3a`` -- run one figure's experiment and print the
  plain-text table;
* ``mcss solve --trace twitter --tau 100`` -- generate a trace, run a
  chosen (selector, packer) pipeline, print cost vs baseline and bound;
* ``mcss analyze --trace twitter`` -- print trace statistics;
* ``mcss serve --epochs 64 --slo-p99 0.5 --metrics-out m.json`` -- run
  the churn -> reprovision loop as micro-epochs with SLO metrics (exit
  1 on an SLO miss); ``--checkpoint run.npz --checkpoint-every 10``
  persists the run atomically and ``--resume`` continues a killed run
  bit-exactly, from any checkpoint that carries the churn stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bounds import lower_bound
from .core import MCSSProblem
from .experiments import (
    ExperimentScale,
    describe_figures,
    make_plan,
    make_trace,
    run_figure,
)
from .packing import available_packers
from .selection import available_selectors
from .solver import MCSSSolver

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="mcss",
        description=(
            "Reproduction of 'Cost-Effective Resource Allocation for "
            "Deploying Pub/Sub on Cloud' (ICDCS 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures")

    fig = sub.add_parser("figure", help="run one figure's experiment")
    fig.add_argument("figure_id", help="e.g. fig2a, fig7, summary")
    fig.add_argument("--users", type=int, default=None, help="trace size")
    fig.add_argument("--seed", type=int, default=None, help="trace seed")

    solve = sub.add_parser("solve", help="solve one MCSS instance")
    solve.add_argument("--trace", default="spotify", choices=("spotify", "twitter"))
    solve.add_argument("--tau", type=float, default=100.0)
    solve.add_argument("--instance", default="c3.large")
    solve.add_argument("--selector", default="gsp", choices=available_selectors())
    solve.add_argument("--packer", default="cbp", choices=available_packers())
    solve.add_argument("--users", type=int, default=None)
    solve.add_argument("--seed", type=int, default=None)

    serve = sub.add_parser(
        "serve", help="run the micro-epoch serving loop (SLO metrics)"
    )
    serve.add_argument("--trace", default="spotify", choices=("spotify", "twitter"))
    serve.add_argument("--tau", type=float, default=100.0)
    serve.add_argument("--instance", default="c3.large")
    serve.add_argument("--users", type=int, default=None)
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument("--epochs", type=int, default=16, help="micro-epochs")
    serve.add_argument(
        "--churn-seed", type=int, default=0, help="churn stream seed"
    )
    serve.add_argument(
        "--fresh-solve-every", type=int, default=8, metavar="K",
        help="re-pack the live selection every K micro-epochs "
        "(1 = referee behavior)",
    )
    serve.add_argument(
        "--slo-p99", type=float, default=0.0, metavar="SECONDS",
        help="p99 micro-epoch latency bound; exit 1 when missed (0 = off)",
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics snapshot as JSON",
    )
    serve.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file (.npz), written atomically",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="K",
        help="persist run state every K micro-epochs (0 = never)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="resume bit-exactly from --checkpoint if it exists",
    )

    analyze = sub.add_parser("analyze", help="print trace statistics")
    analyze.add_argument("--trace", default="twitter", choices=("spotify", "twitter"))
    analyze.add_argument("--users", type=int, default=None)
    analyze.add_argument("--seed", type=int, default=None)
    analyze.add_argument(
        "--plot", action="store_true",
        help="render figures as log-log scatter plots instead of tables",
    )

    return parser


def _scale(args: argparse.Namespace) -> ExperimentScale:
    base = ExperimentScale()
    return ExperimentScale(
        num_users=args.users if args.users is not None else base.num_users,
        seed=args.seed if args.seed is not None else base.seed,
        target_vms=base.target_vms,
    )


def _cmd_list() -> int:
    print(describe_figures())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    result = run_figure(args.figure_id, _scale(args))
    print(result.render())
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    scale = _scale(args)
    trace = make_trace(args.trace, scale)
    plan = make_plan(args.instance, trace.workload, scale)
    problem = MCSSProblem(trace.workload, args.tau, plan)

    print(trace.describe())
    print(f"plan: {plan.describe()} (capacity scaled to trace)")

    solver = MCSSSolver.from_names(args.selector, args.packer)
    solution = solver.solve(problem)
    print(solution.summary())

    baseline = MCSSSolver.naive().solve(problem)
    print(f"naive baseline: {baseline.cost}")
    bound = lower_bound(problem)
    print(f"lower bound:    {bound}")
    ours, naive = solution.cost.total_usd, baseline.cost.total_usd
    # At tau 0 nothing need be delivered: every cost, and so each
    # ratio's denominator, is $0.
    saving = f"{(1.0 - ours / naive) * 100:.1f}%" if naive else "n/a"
    gap = f"{(ours / bound.total_usd - 1.0) * 100:.1f}%" if bound.total_usd else "n/a"
    print(f"saving vs naive: {saving}   gap to bound: {gap}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .experiments import run_serving_experiment
    from .serving import ServingConfig

    scale = _scale(args)
    trace = make_trace(args.trace, scale)
    plan = make_plan(args.instance, trace.workload, scale)
    print(trace.describe())
    config = ServingConfig(
        fresh_solve_every=args.fresh_solve_every,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        slo_p99_seconds=args.slo_p99,
    )
    result = run_serving_experiment(
        trace.workload,
        plan,
        args.tau,
        args.epochs,
        seed=args.churn_seed,
        serving_config=config,
        resume=args.resume,
    )
    print(result.render())
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(result.metrics, fh, indent=2, sort_keys=True)
        print(f"metrics written to {args.metrics_out}")
    return 1 if result.slo_met is False else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = make_trace(args.trace, _scale(args))
    print(trace.describe())
    print(trace.workload.stats())
    for figure_id in ("fig8", "fig9", "fig10", "fig11", "fig12"):
        from .experiments import run_trace_figure

        figure = run_trace_figure(figure_id, trace)
        print()
        print(figure.plot() if args.plot else figure.render(points=8))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
