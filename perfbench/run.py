"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {plan,serve-steady,serve-drift}
        --seed N --seconds S --trace {0,1}

The workload runs in this single process, serially, with every
``MCSS_*`` knob at its default.  ``--trace 0`` sets up several times
(``setup_s`` is their median) and then runs whole cycles of passes
until ``--seconds`` have gone by and at least the workload's
``min_cycles`` have run; it reports the end-to-end metrics.  Their
timings are scaled to a nominal host speed by a reference kernel timed
among them (:mod:`perfbench.hostspeed`); the raw figures are printed
too.  On ``plan``, whose passes are a fixed mix of twelve unlike solves,
``op_s.p50`` is the median over passes of the pass's mean solve time;
elsewhere it is the median of all operation timings.
``--trace 1`` sets up once and runs the first pass untraced, then the
same again with the layer entry points wrapped, and reports the per-layer
metrics plus ``trace.overhead`` (traced wall / untraced wall).  Spans
are written to ``.perfbench/spans/``.  Each line before the last names
a metric with its unit; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
E2E_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "cost_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _import_program():
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}")
    for name in [k for k in os.environ if k.startswith("MCSS_")]:
        del os.environ[name]  # knobs at their defaults: serial, no forked workers
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _measure(workload, seconds: float):
    from perfbench import hostspeed, stats

    setups = []
    setup_kernel_s = []

    def set_up():
        setup_kernel_s.append(workload.kernel())
        took, state = workload.setup()
        setups.append(took)
        return state

    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous state before building the next
        state = set_up()
    passes = []
    start = time.perf_counter()
    while (
        len(passes) < workload.min_cycles * workload.passes
        or time.perf_counter() - start < seconds
    ):
        first_cycle = not passes
        for index in range(workload.passes):
            if passes and not workload.reuses_state:
                state = None
                state = set_up()
            passes.append(workload.run_pass(state, index, audit=first_cycle))
    adjusted = [hostspeed.adjust(p.seconds, p.kernel_s) for p in passes]
    samples = [s for a in adjusted for s in a]
    summary = stats.summarize(samples)
    pass_mean = stats.pass_mean_median(adjusted)
    raw = stats.summarize([s for p in passes for s in p.seconds])
    raw_pass_mean = stats.pass_mean_median([p.seconds for p in passes])
    run_kernel_s = setup_kernel_s + [k for p in passes for k in p.kernel_s]
    kernel = statistics.median(run_kernel_s)
    busy = sum(s for s in samples if s != stats.FAILED)
    cycle = passes[: workload.passes]  # the reference; later cycles repeat it
    ratios = [r for p in cycle for r in p.ratios]
    metrics = {
        "setup_s": hostspeed.adjust([statistics.median(setups)], run_kernel_s)[0],
        "op_s.p50": summary.p50 if workload.pooled_p50 else pass_mean,
        "op_s.tail": summary.tail,
        "ops_per_s": sum(p.ops for p in passes) / busy if busy else 0.0,
        "cost_ratio": statistics.median(ratios) if ratios else math.inf,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    label = workload.op_label
    p50_rule = "op_s.p50" if workload.pooled_p50 else "pooled; op_s.p50 is the pass mean"
    lines = [
        f"{label}.p50 = {summary.p50:.6f} s  ({p50_rule})",
        f"{label}.pass_mean.p50 = {pass_mean:.6f} s  (median over {len(passes)} passes)",
        f"host kernel = {kernel:.6f} s  (nominal {hostspeed.NOMINAL_S} s; timings above"
        " are scaled to it pass by pass)",
        f"raw {label}.p50 = {raw.p50:.6f} s, pass_mean.p50 = {raw_pass_mean:.6f} s,"
        f" tail = {raw.tail:.6f} s, setup = {statistics.median(setups):.6f} s",
        f"{label}.tail = {summary.tail:.6f} s  (op_s.tail: p{summary.tail_pct:.2f} "
        f"of {summary.n} samples, {len(passes)} passes)",
        f"failed_frac = {summary.failed / summary.n:.6f} ({summary.failed} of {summary.n})",
        f"cost_usd = {workload.cost_usd([c for p in cycle for c in p.costs]):.6f} USD",
        f"moves = {sum(p.counts.get('pairs_moved', 0) for p in cycle)} pairs migrated per cycle",
        f"setup samples = {len(setups)}",
        "digest = " + _digest(p.digest for p in cycle),
    ]
    for name in cycle[0].counts:
        lines.append(f"{name} = {sum(p.counts[name] for p in cycle)} per cycle")
    correct = all(p.ok for p in passes) and summary.failed == 0
    return correct, summary.n, summary.failed, metrics, E2E_UNITS, lines


def _digest(parts) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def _trace(workload, out_path: str):
    from perfbench import spans

    walls = []
    results = []
    tracer = spans.Tracer()
    for traced in (False, True):
        t0 = time.perf_counter()
        with spans.instrument(tracer) if traced else contextlib.nullcontext():
            _took, state = workload.setup()
            results.append(workload.run_pass(state, 0, audit=True))
        walls.append(time.perf_counter() - t0)
        state = None
    spans.write_spans(tracer, out_path)
    layer = spans.layer_metrics(tracer)
    layer["trace.overhead"] = (walls[1] / walls[0], "ratio")
    metrics = {k: v for k, (v, _u) in layer.items()}
    units = {k: u for k, (_v, u) in layer.items()}
    n = sum(len(r.seconds) for r in results)
    failed = sum(1 for r in results for s in r.seconds if math.isinf(s))
    same = (results[0].digest, results[0].costs) == (results[1].digest, results[1].costs)
    correct = (
        all(r.ok for r in results)
        and failed == 0
        and same  # tracing must not change what the program does
        and spans.epoch_self_times_add_up(tracer)
    )
    lines = [f"spans written to {os.path.relpath(out_path, ROOT)}"]
    return correct, n, failed, metrics, units, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench import scenarios

    if args.workload not in scenarios.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(scenarios.WORKLOADS)}")
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        workload = scenarios.make_workload(args.workload, args.seed, work_dir)
        if args.trace:
            spans_path = os.path.join(out_dir, "spans", f"{args.workload}-seed{args.seed}.jsonl")
            result = _trace(workload, spans_path)
        else:
            result = _measure(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct, attempted, failed, metrics, units, lines = result
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": _finite(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def _finite(value: float) -> float:
    """JSON has no infinity: a failed tail reads as the largest float."""
    return sys.float_info.max if math.isinf(value) else float(value)


if __name__ == "__main__":
    sys.exit(main())
