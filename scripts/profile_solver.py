#!/usr/bin/env python
"""Profile the MCSS solver's hot paths: construction, stage1/2, validate.

Times the vectorized implementations against the retained loop
referees and prints the timing table used to verify the acceptance
criteria:

* vectorized ``select`` + ``validate_placement`` must be >= 10x faster
  than the loop implementations at 100k subscribers
  (``MCSS_PROFILE_TARGET``),
* vectorized stage-2 ``pack`` (CBP rung e) must be >= 18x faster than
  the retained ``cbp-loop`` referee (``MCSS_PACK_TARGET``), with both
  packers producing identical placements, and
* vectorized social-graph *workload construction* (CSR
  ``build_social_graph`` + ``generate_social_workload`` on a
  Twitter-shaped draw) must be >= 10x faster than the retained
  ``build_social_graph_loop`` + ``generate_social_workload_loop``
  referees (``MCSS_GEN_TARGET``), and
* the vectorized *dynamic epoch step* (churn -> incremental
  reprovision, run with ``fresh_solve_every=1`` so the work and the
  placements match the referee epoch for epoch) must be >= 10x faster
  than the retained ``reprovision-loop`` + ``churn-loop`` referees
  (``MCSS_EPOCH_TARGET``), with identical per-epoch placements.

Each run also appends one trajectory entry to ``BENCH_stage2.json`` at
the repo root (a JSON list, one dict per run) so successive PRs can
track the construction and packing times at a glance; the CI
bench-smoke job uploads that file as a workflow artifact.

The out-of-core path's Stage 1 (``MCSSSolver.solve`` on a workload
wider than one ``MCSS_SHARD_SIZE`` selects shard by shard) is asserted
bit-identical to the in-RAM selection under a forced multi-shard
configuration, two shard threads, and an mmap-backed reload of the
same workload.

Usage::

    PYTHONPATH=src python scripts/profile_solver.py [num_users] [tau]
    PYTHONPATH=src python scripts/profile_solver.py --out-of-core [num_users]
    PYTHONPATH=src python scripts/profile_solver.py --serve [num_users]

    num_users  defaults to 100000
    tau        defaults to 100

``--out-of-core`` (default 10M users) is the weekly slow rung: chunked
generation straight to a versioned ``.npz``, mmap-backed reload, and a
solve that shards by size -- no loop referees, see docs/BENCHMARKS.md.
Like ``--serve`` it runs twice: an untraced pass records the times, a
second pass of the same rung under ``tracemalloc`` records the peak.

``--serve`` (default 1M users) is the serving rung: the micro-epoch
serving layer under ``MCSS_SERVE_EPOCHS`` epochs of steady churn, with
exact p50/p95/p99 micro-epoch latency (timed with ``tracemalloc`` off)
and throughput recorded as a ``"mode": "serving"`` trajectory entry
plus ``serve_metrics.json``, gated by ``MCSS_SERVE_TARGET`` (p99
seconds; 0 disables); a second, traced pass of the same run checks the
3 GB memory bound.

Pass a smaller ``num_users`` (e.g. 2000, as the CI smoke job does) for
a quick run; the speedup factors are printed either way.  Set
``MCSS_PROFILE_TARGET=0`` / ``MCSS_PACK_TARGET=1`` /
``MCSS_GEN_TARGET=1`` / ``MCSS_EPOCH_TARGET=1`` to relax the speedup
bars at tiny scales
(equivalence and validity are always enforced).  Every recorded
``BENCH_stage2.json`` field and each environment knob is documented in
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

from repro.core import MCSSProblem, validate_placement, validate_placement_loop
from repro.packing import (
    CBPOptions,
    CustomBinPacking,
    LoopCustomBinPacking,
    diff_placements,
)
from repro.pricing import (
    LinearBandwidthCost,
    LinearVMCost,
    PricingPlan,
    get_instance,
)
from repro.selection import GreedySelectPairs, LoopGreedySelectPairs
from repro.selection.sharded import (
    default_shard_size,
    default_workers,
    subscriber_shards,
)
from repro.solver import MCSSSolver
from repro.workloads import (
    build_social_graph,
    build_social_graph_loop,
    generate_social_workload,
    generate_social_workload_loop,
    glitched_following_counts,
    load_workload,
    save_workload,
    save_zipf_workload_chunked,
    truncated_power_law,
    zipf_workload,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_stage2.json"
SERVE_METRICS_PATH = BENCH_PATH.parent / "serve_metrics.json"


def _timed(fn, repeats: int = 3):
    """Run ``fn`` once for the result, then time ``repeats`` runs (best-of).

    The first (untimed) call doubles as a warm-up so both the
    vectorized and the loop implementations measure steady state --
    lazily cached workload views (interest materialization, sorted
    orders, rate sums) are shared and warm for both sides, which is
    the regime the experiment ladder runs in (one workload, many
    select/validate calls across taus and rungs).
    """
    out = fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _forced_shards(shard_size: int):
    """Solve out of core on two threads inside the block; knobs restored after."""
    return mock.patch.dict(
        os.environ, {"MCSS_SHARD_SIZE": str(shard_size), "MCSS_SHARD_WORKERS": "2"}
    )


def _time_construction(num_users: int):
    """Time Twitter-shaped social workload construction vs the referee.

    Pre-draws the per-user inputs (declared followings, popularity
    weights) once, then times graph build + compaction end to end on
    both paths with fresh same-seeded generators per call.  The two
    paths use distribution-identical but stream-different draws, so
    only the trace *scale* is asserted here; the distributions are
    pinned by the randomized equivalence suite.
    """
    import numpy as np

    rng = np.random.default_rng(11)
    following = glitched_following_counts(
        rng, num_users, alpha=1.7, max_following=max(100, min(10_000, num_users // 2))
    )
    weights = truncated_power_law(rng, num_users, 1.9, 1.0, 1e6).astype(np.float64)

    def rate_model(followers, r):
        mu = (
            np.log(np.maximum(1.5 * np.power(1.0 + followers, 0.6), 1e-9))
            - 1.5**2 / 2.0
        )
        return np.floor(np.exp(mu + 1.5 * r.standard_normal(followers.size))).astype(
            np.int64
        )

    def fast():
        graph = build_social_graph(
            num_users, np.random.default_rng(23), following, weights, rate_model
        )
        return generate_social_workload(graph)

    def loop():
        graph = build_social_graph_loop(
            num_users, np.random.default_rng(23), following, weights, rate_model
        )
        return generate_social_workload_loop(graph)

    workload, fast_s = _timed(fast)
    # The loop referee costs seconds per call at 100k users: one timed
    # run after the warm-up keeps the profile tolerable.
    loop_workload, loop_s = _timed(loop, repeats=1)
    # Streams differ between the paths, so the populations match only
    # statistically -- but any construction bug that drops or inflates
    # whole user classes shows up as a scale mismatch here.
    subs_gap = abs(workload.num_subscribers - loop_workload.num_subscribers)
    assert subs_gap < 0.05 * max(loop_workload.num_subscribers, 1), (
        "construction paths disagree on the subscriber population: "
        f"{workload.num_subscribers} vs {loop_workload.num_subscribers}"
    )
    pairs_gap = abs(workload.num_pairs - loop_workload.num_pairs)
    assert pairs_gap < 0.1 * max(loop_workload.num_pairs, 1), (
        "construction paths disagree on the trace scale: "
        f"{workload.num_pairs} vs {loop_workload.num_pairs} pairs"
    )
    return workload, fast_s, loop_s


def _time_epochs(problem, epochs: int = 2):
    """Time the dynamic epoch step: vectorized vs the loop referees.

    Both reprovisioners consume the same pre-drawn churn deltas (the
    vectorized ``ChurnModel``; its streams are bit-identical to
    ``churn-loop`` on shared seeds, which the equivalence suite pins).
    The vectorized reprovisioner runs with ``fresh_solve_every=1`` so
    its per-epoch work -- and, asserted here, its placements -- match
    the referee exactly; a second gated pass with the default cadence
    reports the steady-state epoch time users actually see.  Epochs
    are not repeatable (state advances), so each side is timed once
    per epoch and averaged.
    """
    from repro.dynamic import (
        ChurnConfig,
        ChurnModel,
        IncrementalReprovisioner,
        LoopIncrementalReprovisioner,
    )

    config = ChurnConfig(
        unsubscribe_fraction=0.02, subscribe_fraction=0.02, rate_drift_sigma=0.05
    )
    model = ChurnModel(problem.workload, config, seed=17)
    deltas = [model.step() for _ in range(epochs)]

    vec = IncrementalReprovisioner(problem, fresh_solve_every=1)
    loop = LoopIncrementalReprovisioner(problem)
    vec_s = loop_s = 0.0
    for delta in deltas:
        t0 = time.perf_counter()
        vec.step(delta)
        vec_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        loop.step(delta)
        loop_s += time.perf_counter() - t0
        mismatch = diff_placements(vec.placement(), loop.placement())
        assert mismatch is None, f"epoch placements diverged: {mismatch}"

    gated = IncrementalReprovisioner(problem)  # default gated cadence
    t0 = time.perf_counter()
    for delta in deltas:
        gated.step(delta)
    gated_s = (time.perf_counter() - t0) / epochs
    return vec_s / epochs, loop_s / epochs, gated_s


def _sharded_equivalence(problem, selection) -> None:
    """Assert the sharded Stage 1 reproduces the in-RAM selection bit-exactly.

    Untimed by design: the default shard configuration runs one shard
    at profiling scale, so the interesting machinery (multi-shard
    merge, shard threads, mmap-backed reload) is exercised here under
    a forced four-shard, two-thread configuration.
    """
    workload = problem.workload
    forced = max(1, -(-workload.num_subscribers // 4))
    with _forced_shards(forced):
        sharded_sel = GreedySelectPairs().select(problem)
    assert sharded_sel == selection, "forced multi-shard GSP diverged from whole-array GSP"

    scratch = tempfile.mkdtemp(prefix="mcss-profile-mmap-")
    try:
        path = save_workload(workload, os.path.join(scratch, "profile"))
        mapped = load_workload(path, mmap=True)
        mmap_problem = MCSSProblem(mapped, problem.tau, problem.plan)
        with _forced_shards(forced):
            mmap_sel = GreedySelectPairs().select(mmap_problem)
        assert mmap_sel == selection, (
            "mmap-backed sharded GSP diverged from the in-RAM solve"
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _profile_plan(workload) -> PricingPlan:
    """The profiling rungs' plan: one c3.large at $10/h, $0.12/GB.

    Its capacity is ``max(2.5 x the hottest rate, total rate / 8)`` x
    the message size: generous, so Stage 2 stays out of the way of the
    Stage-1 and audit timings, yet the fleet still spans several VMs.
    """
    rates = workload.event_rates
    capacity = (
        max(2.5 * float(rates.max()), float(rates.sum()) / 8.0)
        * workload.message_size_bytes
    )
    return PricingPlan(
        instance=get_instance("c3.large"),
        period_hours=1.0,
        bandwidth_cost=LinearBandwidthCost(0.12),
        vm_cost=LinearVMCost(10.0),
        capacity_bytes_override=float(capacity),
    )


def _out_of_core_pass(num_users: int, num_topics: int, tau: float) -> dict:
    """Generate, mmap-load and solve the rung once, in a fresh temporary directory."""
    scratch = tempfile.mkdtemp(prefix="mcss-ooc-")
    try:
        print(
            f"  generating {num_users}-subscriber zipf workload chunk-by-chunk "
            f"({num_topics} topics) ..."
        )
        t0 = time.perf_counter()
        path = save_zipf_workload_chunked(
            os.path.join(scratch, "trace"),
            num_topics,
            num_users,
            mean_interest=12.0,
            seed=7,
        )
        gen_s = time.perf_counter() - t0
        size_mb = os.path.getsize(path) / 1e6
        print(f"  wrote {path} ({size_mb:.0f} MB) in {gen_s:.1f}s")

        t0 = time.perf_counter()
        workload = load_workload(path, mmap=True)
        load_s = time.perf_counter() - t0
        print(f"  mmap-opened in {load_s:.3f}s: {workload!r}")
        problem = MCSSProblem(workload, tau, _profile_plan(workload))

        print(
            f"  solving ({len(subscriber_shards(num_users))} shards of "
            f"{default_shard_size()}, workers={default_workers()}) ..."
        )
        t0 = time.perf_counter()
        solution = MCSSSolver.paper().solve(problem)
        solve_s = time.perf_counter() - t0
        print(
            f"  solved in {solve_s:.1f}s (select {solution.selection_seconds:.1f}s, "
            f"pack {solution.packing_seconds:.1f}s, "
            f"validate {solution.validation_seconds:.1f}s): {solution.cost}"
        )
        return {
            "num_pairs": int(workload.num_pairs),
            "gen_s": gen_s,
            "load_s": load_s,
            "select_s": solution.selection_seconds,
            "pack_s": solution.packing_seconds,
            "validate_s": solution.validation_seconds,
            "solve_s": solve_s,
            "num_vms": solution.placement.num_vms,
            "total_cost_usd": solution.cost.total_usd,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _out_of_core(num_users: int) -> int:
    """The weekly 10M-user rung: chunked generation -> mmap -> out-of-core solve.

    No loop referees at this scale (they are Python-loop-bounded); the
    acceptance claim is the *memory envelope*: ``tracemalloc`` peak --
    Python-heap allocations only, mmap pages are the kernel's -- stays
    under the 3 GB bound while a >= 100M-pair instance is generated to
    a versioned ``.npz``, re-opened mmap-backed, and solved end to end.
    The rung runs twice, as ``--serve`` does: the times come from an
    untraced pass, the peak from a second pass under ``tracemalloc``
    (tracing inflates NumPy-heavy Python 2-3x), and both passes must
    reach the same cost on the same fleet.  Appends a
    ``"mode": "out-of-core"`` entry to ``BENCH_stage2.json``.
    """
    num_topics = max(100, num_users // 50)
    tau = 100.0
    print("timing pass (untraced):")
    timed = _out_of_core_pass(num_users, num_topics, tau)
    print("memory pass (tracemalloc): the same rung again ...")
    tracemalloc.start()
    try:
        traced = _out_of_core_pass(num_users, num_topics, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outcome = ("num_pairs", "num_vms", "total_cost_usd")
    assert [traced[k] for k in outcome] == [timed[k] for k in outcome], (
        "memory pass diverged from the timing pass"
    )
    print(f"  peak traced memory: {peak / 1e9:.2f} GB ({timed['num_pairs']} pairs)")

    _append_bench_entry(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "mode": "out-of-core",
            "latency_traced": False,
            "num_users": num_users,
            "num_topics": num_topics,
            "tau": tau,
            "num_pairs": timed["num_pairs"],
            "gen_s": round(timed["gen_s"], 3),
            "load_s": round(timed["load_s"], 6),
            "select_s": round(timed["select_s"], 3),
            "pack_s": round(timed["pack_s"], 3),
            "validate_s": round(timed["validate_s"], 3),
            "solve_s": round(timed["solve_s"], 3),
            "peak_traced_bytes": int(peak),
            "shard_size": default_shard_size(),
            "workers": default_workers(),
            "num_vms": timed["num_vms"],
            "total_cost_usd": round(timed["total_cost_usd"], 4),
        }
    )
    print(f"appended out-of-core trajectory entry to {BENCH_PATH.name}")
    return 0


def _serve(num_users: int) -> int:
    """The serving rung: micro-epoch churn under SLO metering.

    Builds a zipf workload, stands up a
    :class:`~repro.serving.MicroEpochService` around it, and serves
    ``MCSS_SERVE_EPOCHS`` micro-epochs of subscribe/unsubscribe churn
    (no rate drift: the steady-churn regime where an epoch's cost
    follows its churn, not the fleet's size).  The run happens
    twice: a timing pass with ``tracemalloc`` off, whose exact
    p50/p95/p99 micro-epoch latency and throughput are recorded as a
    ``"mode": "serving"`` entry in ``BENCH_stage2.json`` and written to
    ``serve_metrics.json`` (the CI artifact), then an identical memory
    pass under ``tracemalloc`` that asserts the 3 GB traced-memory
    bound (tracing inflates NumPy-heavy Python 2-3x, so it must not
    touch the latencies).  ``MCSS_SERVE_TARGET`` gates the exit code on
    the p99 bound (seconds; 0 disables).
    """
    from repro.dynamic import ChurnConfig
    from repro.experiments.serve import run_serving_experiment
    from repro.resilience.knobs import env_float, env_int

    num_topics = max(100, num_users // 50)
    tau = 100.0
    micro_epochs = env_int("MCSS_SERVE_EPOCHS", 8, minimum=1)
    p99_target = env_float("MCSS_SERVE_TARGET", 0.0, minimum=0.0)

    def serve_once():
        workload = zipf_workload(num_topics, num_users, mean_interest=8.0, seed=7)
        result = run_serving_experiment(
            workload,
            _profile_plan(workload),
            tau,
            micro_epochs,
            churn_config=ChurnConfig(
                unsubscribe_fraction=0.01,
                subscribe_fraction=0.01,
                rate_drift_sigma=0.0,
            ),
            seed=11,
        )
        result.service = None  # free this pass's fleet before the next one
        return result

    print(
        f"timing pass (untraced): zipf workload, {num_users} subscribers, "
        f"{num_topics} topics, {micro_epochs} micro-epochs of steady churn ..."
    )
    t0 = time.perf_counter()
    result = serve_once()
    serve_s = time.perf_counter() - t0
    print(result.render())
    print(f"  served in {serve_s:.1f}s wall (includes build + epoch-0 solve)")

    print("memory pass (tracemalloc): the same run again ...")
    tracemalloc.start()
    try:
        traced = serve_once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    costs = [r.report.cost.total_usd for r in result.reports]
    assert [r.report.cost.total_usd for r in traced.reports] == costs, (
        "memory pass diverged from the timing pass"
    )
    print(f"  peak traced memory: {peak / 1e9:.2f} GB")
    assert peak < 3e9, (
        f"serving rung exceeded the 3 GB traced-memory bound: {peak} B"
    )

    metrics = dict(result.metrics)
    metrics["peak_traced_bytes"] = float(peak)
    SERVE_METRICS_PATH.write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    )
    print(f"metrics snapshot written to {SERVE_METRICS_PATH.name}")

    last = result.reports[-1].report if result.reports else None
    _append_bench_entry(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "mode": "serving",
            "latency_traced": False,
            "num_users": num_users,
            "num_topics": num_topics,
            "tau": tau,
            "micro_epochs": int(metrics["serve.micro_epochs"]),
            "ops_total": int(metrics["serve.ops"]),
            "moves_total": int(metrics["serve.moves"]),
            "epoch_p50_s": round(metrics["serve.epoch_latency.p50_s"], 6),
            "epoch_p95_s": round(metrics["serve.epoch_latency.p95_s"], 6),
            "epoch_p99_s": round(metrics["serve.epoch_latency.p99_s"], 6),
            "epoch_mean_s": round(metrics["serve.epoch_latency.mean_s"], 6),
            "ops_per_s": round(metrics["serve.ops_per_s"], 1),
            "moves_per_s": round(metrics["serve.moves_per_s"], 1),
            "batch_ops": int(metrics["serve.batch_ops"]),
            "cost_drift": round(metrics["serve.drift"], 6),
            "num_vms": int(metrics["serve.num_vms"]),
            "total_cost_usd": round(metrics["serve.cost_usd"], 4),
            "serve_wall_s": round(serve_s, 3),
            "peak_traced_bytes": int(peak),
            "rebuilds": int(metrics["serve.rebuilds"]),
            "final_epoch_rebuilt": bool(last.rebuilt) if last else False,
        }
    )
    print(f"appended serving trajectory entry to {BENCH_PATH.name}")

    if p99_target > 0:
        p99 = metrics["serve.epoch_latency.p99_s"]
        ok = p99 <= p99_target
        verdict = "PASS" if ok else "BELOW TARGET"
        print(
            f"acceptance (micro-epoch p99 <= {p99_target:.3f}s: "
            f"{p99:.3f}s): {verdict}"
        )
        return 0 if ok else 1
    print("acceptance: MCSS_SERVE_TARGET unset or 0 -- p99 gate disabled")
    return 0


def _append_bench_entry(entry: dict) -> None:
    history = []
    if BENCH_PATH.exists():
        try:
            history = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(entry)
    BENCH_PATH.write_text(json.dumps(history, indent=2) + "\n")


def main(argv) -> int:
    if len(argv) > 1 and argv[1] == "--out-of-core":
        return _out_of_core(int(argv[2]) if len(argv) > 2 else 10_000_000)
    if len(argv) > 1 and argv[1] == "--serve":
        return _serve(int(argv[2]) if len(argv) > 2 else 1_000_000)
    num_users = int(argv[1]) if len(argv) > 1 else 100_000
    tau = float(argv[2]) if len(argv) > 2 else 100.0
    num_topics = max(100, num_users // 50)

    print(f"timing social workload construction at {num_users} users ...")
    gen_workload, gen_fast_s, gen_loop_s = _time_construction(num_users)
    gen_speedup = gen_loop_s / gen_fast_s if gen_fast_s else float("inf")
    print(
        f"  vectorized {gen_fast_s:.3f}s vs loop referee {gen_loop_s:.3f}s "
        f"({gen_speedup:.1f}x): {gen_workload!r}"
    )

    print(f"building zipf workload: {num_users} subscribers, {num_topics} topics ...")
    t0 = time.perf_counter()
    workload = zipf_workload(num_topics, num_users, mean_interest=8.0, seed=7)
    print(f"  built in {time.perf_counter() - t0:.2f}s: {workload!r}")

    problem = MCSSProblem(workload, tau, _profile_plan(workload))

    rows = [("workload construction", gen_fast_s, gen_loop_s)]

    selection, fast_sel_s = _timed(lambda: GreedySelectPairs().select(problem))
    loop_selection, loop_sel_s = _timed(lambda: LoopGreedySelectPairs().select(problem))
    assert selection == loop_selection, "vectorized GSP diverged from loop GSP"
    rows.append(("stage1 select (GSP)", fast_sel_s, loop_sel_s))

    # Same protocol (warm-up + best-of-3) on both sides so the gated
    # speedup compares like for like.
    packer = CustomBinPacking(CBPOptions.ladder("e"))
    placement, pack_s = _timed(lambda: packer.pack(problem, selection))
    loop_packer = LoopCustomBinPacking(CBPOptions.ladder("e"))
    loop_placement, loop_pack_s = _timed(lambda: loop_packer.pack(problem, selection))
    mismatch = diff_placements(placement, loop_placement)
    assert mismatch is None, f"vectorized CBP diverged from cbp-loop: {mismatch}"
    rows.append(("stage2 pack (CBP e)", pack_s, loop_pack_s))

    report, fast_val_s = _timed(lambda: validate_placement(problem, placement))
    loop_report, loop_val_s = _timed(lambda: validate_placement_loop(problem, placement))
    assert report.ok == loop_report.ok, "validator verdicts diverged"
    assert report.ok, f"solver produced an invalid placement: {report}"
    rows.append(("validate_placement", fast_val_s, loop_val_s))

    print("checking sharded/mmap equivalence (forced shards, shard threads) ...")
    _sharded_equivalence(problem, selection)

    print("timing dynamic epoch step (churn -> incremental reprovision) ...")
    epoch_s, epoch_loop_s, epoch_gated_s = _time_epochs(problem)
    epoch_speedup = epoch_loop_s / epoch_s if epoch_s else float("inf")
    print(
        f"  vectorized {epoch_s:.3f}s vs loop referee {epoch_loop_s:.3f}s "
        f"per epoch ({epoch_speedup:.1f}x); gated default {epoch_gated_s:.3f}s"
    )
    rows.append(("dynamic epoch step", epoch_s, epoch_loop_s))

    print()
    print(f"{'phase':<22} {'vectorized':>12} {'loop':>12} {'speedup':>9}")
    print("-" * 58)
    total_fast = total_loop = 0.0
    for name, fast_s, loop_s in rows:
        print(f"{name:<22} {fast_s:>11.3f}s {loop_s:>11.3f}s {loop_s / fast_s:>8.1f}x")
        if name.startswith(("stage2", "workload", "dynamic")):
            continue  # pack/construction/epoch have their own acceptance bars
        total_fast += fast_s
        total_loop += loop_s
    print("-" * 58)
    combined = total_loop / total_fast if total_fast else float("inf")
    pack_speedup = loop_pack_s / pack_s if pack_s else float("inf")
    print(
        f"{'select + validate':<22} {total_fast:>11.3f}s {total_loop:>11.3f}s "
        f"{combined:>8.1f}x"
    )
    solve_fast = total_fast + pack_s
    print(f"{'full solve (vec)':<22} {solve_fast:>11.3f}s")
    print()
    cost = problem.cost_of(placement)
    print(f"placement: {placement!r}, cost {cost}")

    _append_bench_entry(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "num_users": num_users,
            "num_topics": num_topics,
            "tau": tau,
            "pack_vectorized_s": round(pack_s, 6),
            "pack_loop_s": round(loop_pack_s, 6),
            "pack_speedup": round(pack_speedup, 2),
            "gen_vectorized_s": round(gen_fast_s, 6),
            "gen_loop_s": round(gen_loop_s, 6),
            "gen_speedup": round(gen_speedup, 2),
            "select_vectorized_s": round(fast_sel_s, 6),
            "validate_vectorized_s": round(fast_val_s, 6),
            "full_solve_vectorized_s": round(solve_fast, 6),
            "epoch_vectorized_s": round(epoch_s, 6),
            "epoch_loop_s": round(epoch_loop_s, 6),
            "epoch_speedup": round(epoch_speedup, 2),
            "epoch_gated_s": round(epoch_gated_s, 6),
            "num_vms": placement.num_vms,
            "total_cost_usd": round(cost.total_usd, 4),
        }
    )
    print(f"appended trajectory entry to {BENCH_PATH.name}")

    # MCSS_PROFILE_TARGET=0 / MCSS_PACK_TARGET=1 / MCSS_GEN_TARGET=1 /
    # MCSS_EPOCH_TARGET=1 relax only the speedup bars (CI smoke at tiny
    # scales); the equivalence/validity assertions above always hold
    # the exit code hostage.
    target = float(os.environ.get("MCSS_PROFILE_TARGET", "10"))
    pack_target = float(os.environ.get("MCSS_PACK_TARGET", "18"))
    gen_target = float(os.environ.get("MCSS_GEN_TARGET", "10"))
    epoch_target = float(os.environ.get("MCSS_EPOCH_TARGET", "10"))
    ok = (
        combined >= target
        and pack_speedup >= pack_target
        and gen_speedup >= gen_target
        and epoch_speedup >= epoch_target
    )
    verdict = "PASS" if ok else "BELOW TARGET"
    print(
        f"acceptance (select+validate >= {target:.0f}x: {combined:.1f}x, "
        f"pack >= {pack_target:.1f}x: {pack_speedup:.1f}x, "
        f"construction >= {gen_target:.1f}x: {gen_speedup:.1f}x, "
        f"epoch >= {epoch_target:.1f}x: {epoch_speedup:.1f}x): {verdict}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
