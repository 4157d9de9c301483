"""Randomized equivalence: vectorized hot paths vs their loop referees.

The PR that vectorized Stage-1 GSP, the satisfaction reductions, and
``validate_placement`` is gated on *exact* equivalence with the
original per-subscriber loop implementations, which remain in the tree
as executable specifications:

* ``GreedySelectPairs`` (vectorized)  ==  ``ReferenceGreedySelectPairs``
  (literal Algorithm 2)  ==  ``LoopGreedySelectPairs`` -- pair for
  pair, including the grouped-by-topic insertion order that downstream
  packers iterate;
* ``satisfied_mask`` / ``delivered_rates``
  (np.bincount reductions)  ==  the scalar ``delivered_rate`` referee,
  and at any rates the sort-merge's per-subscriber sums  ==  a
  left-to-right sum over the ascending delivered interest topics;
* ``validate_placement`` (vectorized)  ==  ``validate_placement_loop``
  -- identical verdict fields on feasible *and* broken placements;
* ``CustomBinPacking`` (CSR/whole-array Stage 2)  ==
  ``LoopCustomBinPacking`` (the retained ``cbp-loop`` referee) --
  *identical placements* (per-VM topic->subscriber assignment lists,
  assignment-group order, VM count, bytes and cost) on every ladder
  rung b/c/d/e, across randomized pricing plans so the cost-based
  decision (Algorithm 7) exercises both verdicts, and on workloads
  and hand-built cases whose runs of whole topics cross the run
  search's window edges;
* ``FFBinPacking`` (CSR pair enumeration + batch assigns)  ==
  ``LoopFFBinPacking`` (the ``ffbp-loop`` referee);
* one shared GSP selection packed cold on every ladder rung (a)-(e),
  in either rung order  ==  each rung's own pack  ==  its loop referee,
  with the selection left unchanged; on rungs c-e, any order of its
  topic groups packs the same placement;
* ``build_social_graph`` (whole-array CSR construction,
  multinomial-and-shuffle draws)  ~=  ``build_social_graph_loop`` (the
  retained per-user referee) -- *distributional* equivalence (KS-style
  checks on followings/followers/rates; the draw methods are
  distribution-identical by exchangeability but their per-seed streams
  differ) plus shared structural invariants, and
  ``generate_social_workload`` == ``generate_social_workload_loop``
  *bit-exactly* on any shared graph (the compaction is deterministic);
* ``ChurnModel`` (CSR epoch surgery)  ==  ``LoopChurnModel`` (the
  retained ``churn-loop`` referee) -- bit-identical deltas and next
  workloads on shared seeds, epoch after epoch (both resolve the same
  rng draws against the same canonical pair enumeration);
* ``IncrementalReprovisioner`` (array state, batched GSP reselect,
  heap-driven placement; run with ``fresh_solve_every=1`` to match the
  referee's every-epoch fresh solve)  ==
  ``LoopIncrementalReprovisioner`` (the retained ``reprovision-loop``
  referee) -- *identical epoch placements*, costs, EpochReport move
  counts and rebuild decisions on shared-seed churn streams; at the
  default cadence, its fresh solve (a re-pack of the held selection)
  costs what ``MCSSSolver.paper().solve`` does and a rebuild adopts
  that solve's placement;
* ``MicroEpochService`` (the serving layer: churn fragments queued,
  sealed per micro-epoch, stepped through the merge-maintained group
  index; run with ``fresh_solve_every=1``)  ==
  ``LoopIncrementalReprovisioner`` stepping the same churn whole --
  identical placements and costs across *randomized* fragment splits
  of every epoch's operation stream.

All generated rates are integer-valued, so every partial sum is
exactly representable and the equivalence is bit-exact (the documented
contract; see the module docstrings).  Edge cases covered: empty
interests, tau = 0, single-topic subscribers, equal-rate ties,
tau above every interest sum, and all-rates-exceed-tau overshoot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MCSSProblem,
    PairSelection,
    Placement,
    Workload,
    delivered_rate,
    delivered_rates,
    delivered_rates_from_arrays,
    satisfied_mask,
    subscriber_thresholds,
    validate_placement,
    validate_placement_loop,
)
from repro.packing import (
    CBPOptions,
    CustomBinPacking,
    FFBinPacking,
    LoopCustomBinPacking,
    LoopFFBinPacking,
    cheaper_to_distribute,
    cheaper_to_distribute_loop,
    diff_placements,
)
from repro.dynamic import (
    ChurnConfig,
    ChurnModel,
    IncrementalReprovisioner,
    LoopChurnModel,
    LoopIncrementalReprovisioner,
    WorkloadDelta,
)
from repro.core.segsearch import segmented_left_search
from repro.selection import (
    GreedySelectPairs,
    LoopGreedySelectPairs,
    ReferenceGreedySelectPairs,
)
from repro.selection.greedy import _run_ends
from repro.solver import MCSSSolver
from repro.workloads import (
    build_social_graph,
    build_social_graph_loop,
    generate_social_workload,
    generate_social_workload_loop,
    uniform_workload,
    zipf_workload,
)
from tests.conftest import make_unit_plan

NUM_RANDOM_WORKLOADS = 24


def edgy_workload(rng: np.random.Generator) -> Workload:
    """A small random workload deliberately rich in edge cases.

    Mixes empty interests, single-topic subscribers, equal-rate runs
    (small integer rates collide often), and the full interest range.
    """
    num_topics = int(rng.integers(1, 12))
    num_subscribers = int(rng.integers(1, 14))
    # Small integer rates make equal-rate ties common.
    rates = rng.integers(1, 8, size=num_topics).astype(float)
    interests = []
    for _ in range(num_subscribers):
        style = rng.random()
        if style < 0.15:
            interests.append([])  # empty: tau_v == 0
        elif style < 0.35:
            interests.append([int(rng.integers(num_topics))])  # single topic
        else:
            k = int(rng.integers(1, num_topics + 1))
            interests.append(
                sorted(rng.choice(num_topics, size=k, replace=False).tolist())
            )
    return Workload(rates, interests, message_size_bytes=1.0)


def taus_for(workload: Workload, rng: np.random.Generator):
    """Edge-case taus: zero, tiny, typical, just-below-max, above-max."""
    total = float(workload.event_rates.sum())
    return [0.0, 1.0, float(rng.integers(1, 10)), max(total - 1.0, 1.0), total + 10.0]


def assert_same_gsp(workload: Workload, tau: float) -> PairSelection:
    """Vectorized GSP == loop GSP == Algorithm 2, group order included."""
    capacity = max(1e12, 4.0 * float(workload.event_rates.max(initial=0.0)))
    problem = MCSSProblem(workload, tau, make_unit_plan(capacity))
    fast = GreedySelectPairs().select(problem)
    loop = LoopGreedySelectPairs().select(problem)
    assert fast == loop, f"tau={tau}"
    assert fast == ReferenceGreedySelectPairs().select(problem), f"tau={tau}"
    # Stronger than set equality: the by-topic insertion order and
    # per-topic subscriber order drive downstream packers, so they
    # must match the loop exactly too.
    assert list(fast.topics) == list(loop.topics), f"tau={tau}"
    for t in fast.topics:
        assert (
            fast.subscribers_of(t).tolist() == loop.subscribers_of(t).tolist()
        ), f"tau={tau} topic={t}"
    return fast


class TestGSPEquivalence:
    """Vectorized GSP == loop GSP == literal Algorithm 2."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_workloads(self, seed):
        rng = np.random.default_rng(1000 + seed)
        workload = edgy_workload(rng)
        for tau in taus_for(workload, rng):
            assert_same_gsp(workload, tau)

    @pytest.mark.parametrize("seed", range(8))
    def test_dyadic_rates(self, seed):
        # Rates k/4: not integers, yet every partial sum is exact, so
        # the run-end search and the loop's running need still agree
        # bit for bit.
        rng = np.random.default_rng(5000 + seed)
        num_topics = 30
        rates = rng.integers(1, 40, size=num_topics) / 4.0
        interests = [
            sorted(rng.choice(num_topics, size=int(k), replace=False).tolist())
            for k in rng.integers(0, num_topics + 1, size=40)
        ]
        workload = Workload(rates, interests, message_size_bytes=1.0)
        total = float(rates.sum())
        for tau in (0.25, 1.75, float(rng.integers(1, 160)) / 4.0, 20.5, total - 0.25):
            assert_same_gsp(workload, tau)

    def test_equal_rate_range_split_between_chosen_and_skipped(self):
        # tau = 10.  Inside an equal-rate range the sweep takes items
        # until the need shrinks below the rate, then skips the rest;
        # the overshoot pick is the range's first skipped item.
        rates = [4.0, 4.0, 4.0, 6.0, 3.0, 3.0, 3.0, 5.0, 5.0]
        interests = [
            [0, 1, 2],  # 4+4, skip 4: the pick follows two chosen 4s
            [3, 4, 5, 6],  # 6+3, skip 3, 3: the first skipped 3
            [7, 8, 0],  # 5+5: satisfied, no overshoot
            [3, 7, 8],  # 6, skip 5, 5: the range's first item
            [3, 7],  # 6, skip 5: alone in its equal-rate range
        ]
        workload = Workload(rates, interests, message_size_bytes=1.0)
        picks = assert_same_gsp(workload, 10.0).topics_by_subscriber()
        assert [sorted(picks[v]) for v in range(5)] == [
            [0, 1, 2],
            [3, 4, 5],
            [7, 8],
            [3, 7],
            [3, 7],
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_every_subscriber_overshoots(self, seed):
        # Every rate exceeds tau: each subscriber skips its whole scan
        # and takes its smallest rate (smallest id on ties) -- with few
        # distinct rates, usually from a long equal-rate range.
        rng = np.random.default_rng(6000 + seed)
        num_topics = 25
        rates = rng.choice([5.0, 7.0, 7.0, 9.0], size=num_topics)
        interests = [
            sorted(rng.choice(num_topics, size=int(k), replace=False).tolist())
            for k in rng.integers(1, num_topics + 1, size=30)
        ]
        workload = Workload(rates, interests, message_size_bytes=1.0)
        picks = assert_same_gsp(workload, 4.0).topics_by_subscriber()
        for v, interest in enumerate(interests):
            smallest = min(interest, key=lambda t: (rates[t], t))
            assert sorted(picks[v]) == [smallest]

    def test_absorbed_running_sum_adds_no_overshoot(self):
        # After a 2**60 rate the scan order's running sum absorbs every
        # later rate, so subscribers 1 and 2 take their whole scans in
        # one run yet stay nominally unsatisfied.  They skipped nothing,
        # so they get no overshoot pick -- in particular none resolved
        # in a neighbour's segment -- and the selection, group order
        # included, is still the loop's.
        rates = [2.0**60, 3.0, 3.0, 1.0, 0.5]
        workload = Workload(rates, [[0], [1, 2], [3, 4]], message_size_bytes=1.0)
        fast = assert_same_gsp(workload, 10.0)
        assert list(fast.topics) == [0, 1, 2, 3, 4]

    def test_run_ends_with_equal_cumsum_neighbours(self):
        # A tiny rate absorbed by a huge running sum leaves equal
        # neighbours in the scan order's cumsum; the clamped global
        # searchsorted must still equal the segmented bisection over
        # the same windows, for every window start and target.
        rates = [2.0**60, 1.0, 0.5, 3.0, 1.0, 2.0]
        interests = [[0, 1, 2], [1, 3, 4, 5], [0, 3, 5], [2, 4]]
        workload = Workload(rates, interests, message_size_bytes=1.0)
        cums = workload.rate_descending_pairs()[3]
        assert (np.diff(cums) == 0).any()
        indptr = workload.interest_indptr
        lo, hi, target = [], [], []
        probes = np.concatenate(
            (cums, np.nextafter(cums, -np.inf), np.nextafter(cums, np.inf), [0.0, -1.0])
        )
        for v in range(workload.num_subscribers):
            for start in range(int(indptr[v]), int(indptr[v + 1]) + 1):
                lo += [start] * probes.size
                hi += [int(indptr[v + 1])] * probes.size
                target += probes.tolist()
        lo, hi, target = np.array(lo), np.array(hi), np.array(target)
        assert np.array_equal(
            _run_ends(cums, lo, hi, target),
            segmented_left_search(cums, lo, hi, target, np.greater),
        )

    def test_all_rates_exceed_tau_overshoot(self):
        # Every topic overshoots: each subscriber must get exactly its
        # smallest-rate topic (smallest id on ties).
        w = Workload([20.0, 7.0, 7.0, 12.0], [[0, 1, 2, 3], [0, 3], [1, 2]])
        problem = MCSSProblem(w, 5.0, make_unit_plan(1e9))
        fast = GreedySelectPairs().select(problem)
        loop = LoopGreedySelectPairs().select(problem)
        assert fast == loop
        assert sorted(fast) == [(1, 0), (1, 2), (3, 1)]

    def test_equal_rate_tie_chain(self):
        # All equal rates: descending prefix is id-ascending.
        w = Workload([4.0] * 5, [[0, 1, 2, 3, 4]])
        problem = MCSSProblem(w, 10.0, make_unit_plan(1e9))
        fast = GreedySelectPairs().select(problem)
        assert fast == ReferenceGreedySelectPairs().select(problem)
        # 4+4 = 8 < 10, next 4 overshoots but nothing fits: smallest
        # skipped is topic 2.
        assert sorted(t for t, _ in fast) == [0, 1, 2]

    def test_empty_and_tau_zero(self):
        w = Workload([5.0, 3.0], [[], [0, 1], []])
        assert GreedySelectPairs().select(
            MCSSProblem(w, 0.0, make_unit_plan(1e9))
        ).num_pairs == 0
        sel = GreedySelectPairs().select(MCSSProblem(w, 100.0, make_unit_plan(1e9)))
        assert sel == LoopGreedySelectPairs().select(
            MCSSProblem(w, 100.0, make_unit_plan(1e9))
        )
        assert sel.num_pairs == 2  # only subscriber 1, both topics


def ascending_rate_sums(workload, topics, subs):
    """Referee for the sort-merge reduction's summation order.

    Per subscriber, a left-to-right Python sum over the distinct
    delivered topics of its interest, in ascending topic order.
    """
    n = workload.num_subscribers
    delivered = {}
    for t, v in zip(topics.tolist(), subs.tolist()):
        if 0 <= v < n and t in workload.interest(v).tolist():
            delivered.setdefault(v, set()).add(t)
    sums = np.zeros(n)
    for v, got in delivered.items():
        total = 0.0
        for t in sorted(got):
            total += float(workload.event_rates[t])
        sums[v] = total
    return sums


class TestSatisfactionEquivalence:
    """np.bincount reductions == the scalar delivered_rate referee."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_deliveries(self, seed):
        rng = np.random.default_rng(2000 + seed)
        workload = edgy_workload(rng)
        num_topics = workload.num_topics
        # Random delivery mapping: some subscribers missing, some
        # receiving out-of-interest topics, some duplicates.
        mapping = {}
        for v in range(workload.num_subscribers):
            if rng.random() < 0.2:
                continue
            k = int(rng.integers(0, num_topics + 2))
            topics = rng.integers(0, num_topics, size=k).tolist()
            mapping[v] = topics + topics[: int(rng.integers(0, 2))]  # dup tail

        got = delivered_rates(workload, mapping)
        expected = np.zeros(workload.num_subscribers)
        for v, topics in mapping.items():
            expected[v] = delivered_rate(workload, v, topics)
        np.testing.assert_array_equal(got, expected)

        for tau in taus_for(workload, rng):
            mask = satisfied_mask(workload, mapping, tau)
            thresholds = subscriber_thresholds(workload, tau)
            loop_mask = expected >= thresholds * (1.0 - 1e-9)
            np.testing.assert_array_equal(mask, loop_mask)

    @pytest.mark.parametrize("seed", range(12))
    def test_sort_merge_sums_ascending_topics_bit_exact(self, seed):
        # Non-integer rates and interests unsorted within a subscriber;
        # every chosen pair delivered twice (a cross-VM replica), plus
        # non-interest pairs and unknown ids, all shuffled.
        rng = np.random.default_rng(6000 + seed)
        num_topics = int(rng.integers(1, 16))
        num_subscribers = int(rng.integers(1, 20))
        rates = rng.uniform(0.1, 10.0, size=num_topics)
        interests = [
            rng.permutation(num_topics)[: int(rng.integers(0, num_topics + 1))]
            for _ in range(num_subscribers)
        ]
        workload = Workload(rates, interests)
        pick = rng.random(workload.num_pairs) < 0.7
        pair_t = workload.interest_topics[pick]
        pair_v = workload.pair_subscribers()[pick]
        topics = np.concatenate(
            [pair_t, pair_t, rng.integers(-1, num_topics + 1, size=10)]
        )
        subs = np.concatenate(
            [pair_v, pair_v, rng.integers(-1, num_subscribers + 1, size=10)]
        )
        order = rng.permutation(topics.size)
        got = delivered_rates_from_arrays(workload, topics[order], subs[order])
        assert got.tobytes() == ascending_rate_sums(workload, topics, subs).tobytes()

    @pytest.mark.parametrize(
        "workload",
        [Workload.from_csr([], [0, 0, 0], []), Workload([1.5, 2.5], [[], []])],
        ids=["topicless", "pairless"],
    )
    def test_sort_merge_without_pairs_delivers_nothing(self, workload):
        got = delivered_rates_from_arrays(
            workload, np.array([0, 1, 1]), np.array([0, 1, 1])
        )
        assert got.tobytes() == np.zeros(workload.num_subscribers).tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_selection_mask_matches_mapping_mask(self, seed):
        rng = np.random.default_rng(3000 + seed)
        workload = edgy_workload(rng)
        problem = MCSSProblem(workload, 6.0, make_unit_plan(1e12))
        selection = GreedySelectPairs().select(problem)
        topics, subs = selection.pair_arrays()
        got = delivered_rates_from_arrays(workload, topics, subs)
        fast = got >= subscriber_thresholds(workload, 6.0) * (1.0 - 1e-9)
        slow = satisfied_mask(workload, selection.topics_by_subscriber(), 6.0)
        np.testing.assert_array_equal(fast, slow)
        assert fast.all()  # GSP selections are sufficient by construction

    def test_pair_arrays_roundtrip(self):
        sel = PairSelection({3: [1, 2], 0: [2]})
        topics, subs = sel.pair_arrays()
        assert sorted(zip(topics.tolist(), subs.tolist())) == [(0, 2), (3, 1), (3, 2)]


def assert_identical_placements(fast, loop, problem):
    """Placement identity: the pinning contract of the packing referees.

    Stronger than equal cost: the per-(vm, topic) subscriber lists, the
    assignment-group insertion order, the VM count and the byte/cost
    totals must all match exactly.  The structural half is the shared
    :func:`repro.packing.diff_placements` (also enforced by
    ``scripts/profile_solver.py``).
    """
    assert diff_placements(fast, loop) is None, diff_placements(fast, loop)
    fast_cost = problem.cost_of(fast)
    loop_cost = problem.cost_of(loop)
    assert fast_cost.num_vms == loop_cost.num_vms
    assert fast_cost.total_usd == pytest.approx(loop_cost.total_usd, rel=1e-12)


def packing_problem(workload, rng):
    """A problem whose capacity forces spilling and whose randomized
    pricing makes Algorithm 7 rule both ways across seeds."""
    max_pair = 2.0 * float(workload.event_rates.max())
    capacity = max(max_pair, float(rng.integers(2, 40)))
    vm_price = float(rng.choice([0.0, 0.5, 10.0, 200.0]))
    usd_per_gb = float(rng.choice([0.0, 0.12, 1e3, 1e9]))
    tau = float(rng.integers(1, 14))
    return MCSSProblem(
        workload, tau, make_unit_plan(capacity, vm_price=vm_price, usd_per_gb=usd_per_gb)
    )


@pytest.fixture(params=["window-1", "window-default"])
def run_window(request, monkeypatch):
    """Run the packing equivalence with two initial run windows.

    The vectorized CBP finds runs of whole topics onto the current VM
    with a fit test over a window of upcoming topics that doubles while
    it fits whole.  A first window of one topic makes the small
    instances here cross several window edges; the default window
    covers most of their runs in one test.
    """
    from repro.packing import custom

    if request.param == "window-1":
        monkeypatch.setattr(custom, "_RUN_WINDOW", 1)
    return request.param


class TestCBPEquivalence:
    """Vectorized CBP == the retained cbp-loop referee, placement for
    placement, on every rung of the optimization ladder."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_workloads_all_rungs(self, seed, run_window):
        rng = np.random.default_rng(6000 + seed)
        workload = edgy_workload(rng)
        problem = packing_problem(workload, rng)
        selection = GreedySelectPairs().select(problem)
        for rung in ("b", "c", "d", "e"):
            opts = CBPOptions.ladder(rung)
            fast = CustomBinPacking(opts).pack(problem, selection)
            loop = LoopCustomBinPacking(opts).pack(problem, selection)
            assert_identical_placements(fast, loop, problem)
            assert validate_placement(problem, fast).ok, f"rung {rung}"

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_cheaper_to_distribute_same_verdict(self, seed, run_window):
        # Algorithm 7 head-to-head on partially packed fleets, across
        # counts around and beyond what the fleet can absorb.
        rng = np.random.default_rng(7000 + seed)
        workload = edgy_workload(rng)
        problem = packing_problem(workload, rng)
        selection = GreedySelectPairs().select(problem)
        placement = CustomBinPacking(CBPOptions.ladder("d")).pack(problem, selection)
        if placement.num_vms == 0:
            return
        rates = workload.event_rates
        msg = workload.message_size_bytes
        for t in range(workload.num_topics):
            topic_bytes = float(rates[t]) * msg
            if 2.0 * topic_bytes > problem.capacity_bytes:
                continue
            for count in (1, 3, int(rng.integers(1, 50))):
                fast = cheaper_to_distribute(
                    placement, problem.plan, t, topic_bytes, count
                )
                loop = cheaper_to_distribute_loop(
                    placement, problem.plan, t, topic_bytes, count
                )
                assert fast == loop, f"topic {t} count {count}"

    def test_full_selection_and_empty(self, tiny_problem):
        full = PairSelection.full(tiny_problem.workload)
        fast = CustomBinPacking().pack(tiny_problem, full)
        loop = LoopCustomBinPacking().pack(tiny_problem, full)
        assert_identical_placements(fast, loop, tiny_problem)
        for packer in (CustomBinPacking(), LoopCustomBinPacking()):
            assert packer.pack(tiny_problem, PairSelection({})).num_vms == 0

    def test_big_topic_fresh_vm_batch(self):
        # One topic spanning several fresh VMs: the batched np.split
        # deployment must chunk exactly like the referee's while-loop.
        w = Workload([10.0], [[0]] * 23, message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(50.0))
        full = PairSelection.full(w)
        fast = CustomBinPacking().pack(problem, full)
        loop = LoopCustomBinPacking().pack(problem, full)
        assert_identical_placements(fast, loop, problem)
        assert fast.num_vms == 6  # 4 pairs per VM (40 out + 10 in), 23 pairs


def pin_cbp_rungs(problem, selection):
    """CBP == cbp-loop on rungs (b)-(e); returns the placements by rung."""
    placements = {}
    for rung in ("b", "c", "d", "e"):
        opts = CBPOptions.ladder(rung)
        fast = CustomBinPacking(opts).pack(problem, selection)
        loop = LoopCustomBinPacking(opts).pack(problem, selection)
        assert_identical_placements(fast, loop, problem)
        assert validate_placement(problem, fast).ok, f"rung {rung}"
        placements[rung] = fast
    return placements


def serve_capacity(workload):
    """The serving capacity rule: 2.5x the hottest rate or 1/8 of the total."""
    rates = workload.event_rates
    return max(2.5 * float(rates.max()), float(rates.sum()) / 8.0) * (
        workload.message_size_bytes
    )


class TestCBPRuns:
    """CBP's runs of whole topics, pinned against cbp-loop.

    The edgy workloads above are too small to cross a run window.
    These cases do: long runs, runs cut at window edges, fits decided
    by the 1e-9 slack, and spills between runs.  Where VMs cost
    nothing, rung (e) deploys a fresh VM for any topic that reaches
    Algorithm 7 even though it fits whole on the current VM (spilling
    is then no cheaper), so a fit the run search misses changes the
    placement.
    """

    @pytest.mark.parametrize("seed", (3, 11, 29))
    def test_zipf_topics_larger_than_a_vm(self, seed, run_window):
        # Under the serving capacity rule the hottest topics need
        # several VMs each, so spills, Algorithm-7 verdicts and
        # fresh-VM batches cut the runs.
        workload = zipf_workload(30, 300, mean_interest=5.0, seed=seed)
        problem = MCSSProblem(workload, 100.0, make_unit_plan(serve_capacity(workload)))
        selection = GreedySelectPairs().select(problem)
        placement = pin_cbp_rungs(problem, selection)["e"]
        assert max(placement.topic_replicas(t) for t in selection.topics) >= 3

    def test_many_small_topics(self, run_window):
        # Hundreds of one- and two-pair topics per VM: runs of hundreds,
        # several doublings past the default first window.
        workload = uniform_workload(1500, 300, mean_interest=3.0, seed=5)
        capacity = 600.0 * float(workload.event_rates.mean()) * workload.message_size_bytes
        problem = MCSSProblem(workload, 1e9, make_unit_plan(capacity))
        placement = pin_cbp_rungs(problem, GreedySelectPairs().select(problem))["e"]
        assert max(len(placement.vm_topics(b)) for b in range(placement.num_vms)) > 256

    @pytest.mark.parametrize("run", (1, 3, 7, 63, 64, 65))
    def test_run_ends_at_window_edge(self, run, run_window):
        # One-pair rate-1 topics cost 2 B each and a VM holds `run` of
        # them, so every run stops after `run` topics on the first VM
        # and after `run` - 1 on the fresh VMs.  1, 3, 7 and 63 end a
        # window that starts at 1; 64 ends the default first window.
        n = 3 * run + 2
        workload = Workload([1.0] * n, [[t] for t in range(n)], message_size_bytes=1.0)
        problem = MCSSProblem(workload, 1.0, make_unit_plan(2.0 * run, vm_price=0.0))
        placement = pin_cbp_rungs(problem, PairSelection.full(workload))["e"]
        per_vm = [len(placement.vm_topics(b)) for b in range(placement.num_vms)]
        assert per_vm[:-1] == [run] * (len(per_vm) - 1)

    @pytest.mark.parametrize("short", (5e-10, 2e-9))
    def test_fit_decided_by_slack(self, short, run_window):
        # Three-pair rate-1 topics cost 4 B each with their ingest.  On
        # a 12 B VM less `short`, the third fits whole only through the
        # 1e-9 slack: it does for 5e-10 B short and not for 2e-9 B.
        # Then rung (d) fills the VM with two of its pairs and deploys
        # one, and rung (e) deploys it whole (a spill would pay a second
        # ingest).  The one-pair topic 3 follows on the fresh VM.
        workload = Workload(
            [1.0] * 4, [[0, 1, 2, 3], [0, 1, 2], [0, 1, 2]], message_size_bytes=1.0
        )
        problem = MCSSProblem(workload, 1.0, make_unit_plan(12.0 - short, vm_price=0.0))
        placements = pin_cbp_rungs(problem, PairSelection.full(workload))
        if short < 1e-9:
            assert placements["d"].members(0, 2) == [0, 1, 2]
            assert placements["e"].members(0, 2) == [0, 1, 2]
        else:
            assert placements["d"].members(0, 2) == [0, 1]
            assert placements["e"].members(1, 2) == [0, 1, 2]
        assert placements["e"].members(1, 3) == [0]

    def test_spill_keeps_current_vm(self, run_window):
        # Topic 0 (rate 10, six pairs) leaves VM 0 and a fresh VM 1
        # with three pairs and 8 B free each.  Topic 1 (rate 3, two
        # pairs) does not fit whole on VM 1: one pair fills it to 46 B
        # and the other spills onto VM 0.  No VM is deployed, so VM 1
        # stays current and topic 2 (rate 1, one pair: 2 B) lands on it.
        workload = Workload(
            [10.0, 3.0, 1.0],
            [[0, 1, 2], [0, 1], [0], [0], [0], [0]],
            message_size_bytes=1.0,
        )
        problem = MCSSProblem(workload, 1.0, make_unit_plan(48.0))
        selection = PairSelection({0: list(range(6)), 1: [0, 1], 2: [0]})
        placement = pin_cbp_rungs(problem, selection)["e"]
        assert placement.num_vms == 2
        assert placement.members(1, 1) == [0]
        assert placement.members(0, 1) == [1]
        assert placement.members(1, 2) == [0]


LADDER_RUNGS = ("a", "b", "c", "d", "e")


def rung_packers(rung):
    """A rung's packer and its loop referee: FFBP for (a), CBP above."""
    if rung == "a":
        return FFBinPacking(), LoopFFBinPacking()
    opts = CBPOptions.ladder(rung)
    return CustomBinPacking(opts), LoopCustomBinPacking(opts)


class TestSharedSelectionPacking:
    """The cost ladder packs one shared GSP selection five ways, cold.

    No pack may write to the selection it is handed or leave state for
    the next: each rung's placement must be the one that rung packs on
    its own, in any rung order, and two placements of one selection
    must stay independent of each other.
    """

    @pytest.mark.parametrize("rung", LADDER_RUNGS)
    def test_pack_leaves_selection_unchanged(self, rung):
        packer, _ = rung_packers(rung)
        for seed in range(8):
            rng = np.random.default_rng(8000 + seed)
            workload = edgy_workload(rng)
            problem = packing_problem(workload, rng)
            selection = GreedySelectPairs().select(problem)
            before = [arr.copy() for arr in selection.csr_arrays()]
            packer.pack(problem, selection)
            for arr, kept in zip(selection.csr_arrays(), before):
                np.testing.assert_array_equal(arr, kept)
            assert selection == GreedySelectPairs().select(problem)

    @pytest.mark.parametrize("seed", (3, 11))
    def test_any_rung_order_bit_exact(self, seed, run_window):
        # Top-down after bottom-up on one selection: every pack still
        # equals its loop referee and the same rung's earlier pack.
        rng = np.random.default_rng(20_000 + seed)
        workload = edgy_workload(rng)
        problem = packing_problem(workload, rng)
        selection = GreedySelectPairs().select(problem)
        forward = {}
        for rung in LADDER_RUNGS:
            packer, referee = rung_packers(rung)
            forward[rung] = packer.pack(problem, selection)
            loop = referee.pack(problem, selection)
            assert_identical_placements(forward[rung], loop, problem)
            assert validate_placement(problem, forward[rung]).ok, f"rung {rung}"
        for rung in reversed(LADDER_RUNGS):
            packer, _ = rung_packers(rung)
            again = packer.pack(problem, selection)
            assert_identical_placements(again, forward[rung], problem)

    @pytest.mark.parametrize("rung", ("c", "d", "e"))
    def test_topic_group_order_is_irrelevant_from_rung_c(self, rung, run_window):
        # Rungs c-e pack topics in the total order (-rate * count, -rate,
        # topic), so any order of a selection's topic groups packs the
        # same placement: the premise of the reprovisioner's fresh
        # solve, which re-packs its held pairs grouped by ascending
        # topic rather than in GSP's first-appearance order.  Rung b
        # packs groups in input order; the reprovisioner never uses it.
        packer = CustomBinPacking(CBPOptions.ladder(rung))
        for seed in range(6):
            rng = np.random.default_rng(21_000 + seed)
            workload = edgy_workload(rng)
            problem = packing_problem(workload, rng)
            selection = GreedySelectPairs().select(problem)
            topics, indptr, subs = selection.csr_arrays()
            if not topics.size:
                continue
            want = packer.pack(problem, selection)
            perm = rng.permutation(topics.size)
            shuffled = PairSelection.from_csr(
                topics[perm],
                np.r_[0, np.cumsum(np.diff(indptr)[perm])],
                np.concatenate([subs[indptr[i]:indptr[i + 1]] for i in perm]),
            )
            pair_topics, pair_subs = selection.pair_arrays()
            ascending = PairSelection.from_csr(pair_topics, None, pair_subs)
            for other in (shuffled, ascending):
                assert other == selection
                assert_identical_placements(packer.pack(problem, other), want, problem)

    @pytest.mark.parametrize("rung", LADDER_RUNGS)
    def test_placements_of_one_selection_independent(self, rung, tiny_problem):
        packer, _ = rung_packers(rung)
        selection = GreedySelectPairs().select(tiny_problem)
        first = packer.pack(tiny_problem, selection)
        second = packer.pack(tiny_problem, selection)
        assert first is not second
        assert_identical_placements(first, second, tiny_problem)
        groups = list(second.iter_assignments())
        # Replicate one group of the first placement onto a fresh VM.
        _, t, subs = groups[0]
        first.assign(first.new_vm(), t, subs)
        assert list(second.iter_assignments()) == groups
        assert second.num_vms == first.num_vms - 1
        assert selection == GreedySelectPairs().select(tiny_problem)


class TestFFBPEquivalence:
    """Array-enumerated FFBP == the retained ffbp-loop referee."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_workloads(self, seed):
        rng = np.random.default_rng(8000 + seed)
        workload = edgy_workload(rng)
        problem = packing_problem(workload, rng)
        selection = GreedySelectPairs().select(problem)
        fast = FFBinPacking().pack(problem, selection)
        loop = LoopFFBinPacking().pack(problem, selection)
        assert_identical_placements(fast, loop, problem)

    def test_full_selection(self, tiny_problem):
        full = PairSelection.full(tiny_problem.workload)
        fast = FFBinPacking().pack(tiny_problem, full)
        loop = LoopFFBinPacking().pack(tiny_problem, full)
        assert_identical_placements(fast, loop, tiny_problem)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup of |CDF_a - CDF_b|)."""
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    grid = np.concatenate([a, b])
    grid.sort(kind="stable")
    cdf_a = np.searchsorted(a, grid, side="right") / max(a.size, 1)
    cdf_b = np.searchsorted(b, grid, side="right") / max(b.size, 1)
    return float(np.abs(cdf_a - cdf_b).max()) if grid.size else 0.0


def social_inputs(rng: np.random.Generator, num_users: int):
    """Heavy-tailed construction inputs that stress dedup + top-up."""
    counts = np.minimum(
        rng.geometric(0.08, size=num_users), num_users - 1
    ).astype(np.int64)
    counts[rng.random(num_users) < 0.05] = 0  # some users follow nobody
    weights = 1.0 + rng.pareto(0.9, size=num_users)  # heavy: many dup draws

    def rate_model(followers, r):
        out = r.integers(0, 4, size=followers.size)
        return out

    return counts, weights, rate_model


class TestSocialConstructionEquivalence:
    """Whole-array social-graph construction vs the per-user referee.

    The vectorized builder's weighted draw (one multinomial + shuffle)
    is distribution-identical to the referee's per-slot ``rng.choice``
    by exchangeability, but the per-seed streams differ -- so the
    pinning here is KS-style distribution checks plus the structural
    invariants both constructions guarantee, and *bit-exact* identity
    for the (deterministic) compaction stage.
    """

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, 400))
        counts, weights, rate_model = social_inputs(rng, n)
        graph = build_social_graph(
            n, np.random.default_rng(seed), counts, weights, rate_model
        )
        out_degrees = graph.following_counts()
        # CSR satellite fix: out-degrees come straight from the indptr.
        assert np.array_equal(out_degrees, np.diff(graph.following_indptr))
        assert int(graph.following_indptr[0]) == 0
        # Never exceeds the declared out-degree (clipped to n - 1).
        assert (out_degrees <= np.clip(counts, 0, n - 1)).all()
        owners = np.repeat(np.arange(n, dtype=np.int64), out_degrees)
        targets = graph.following_targets
        assert (targets != owners).all()  # no self-follows
        # Sorted and duplicate-free within each user: packed keys are
        # globally strictly increasing.
        keys = owners * n + targets
        assert (np.diff(keys) > 0).all()
        assert np.array_equal(
            graph.follower_counts, np.bincount(targets, minlength=n)
        )
        # The lazy tuple view is zero-copy over the flat array.
        for u in (0, n // 2, n - 1):
            view = graph.followings[u]
            assert view.base is graph.following_targets or view.size == 0
            assert np.array_equal(
                view,
                targets[graph.following_indptr[u] : graph.following_indptr[u + 1]],
            )

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_compaction_identity_on_shared_graph(self, seed):
        # generate_social_workload is deterministic: on the *same*
        # graph the vectorized remap and the loop referee must agree
        # bit for bit (rates, offsets, flat topics).
        rng = np.random.default_rng(9500 + seed)
        n = int(rng.integers(2, 400))
        counts, weights, rate_model = social_inputs(rng, n)
        graph = build_social_graph(
            n, np.random.default_rng(seed), counts, weights, rate_model
        )
        fast = generate_social_workload(graph)
        loop = generate_social_workload_loop(graph)
        assert np.array_equal(fast.event_rates, loop.event_rates)
        assert np.array_equal(fast.interest_indptr, loop.interest_indptr)
        assert np.array_equal(fast.interest_topics, loop.interest_topics)
        assert fast.num_pairs == loop.num_pairs

    def test_determinism_same_seed(self):
        rng = np.random.default_rng(42)
        n = 300
        counts, weights, rate_model = social_inputs(rng, n)
        a = build_social_graph(n, np.random.default_rng(5), counts, weights, rate_model)
        b = build_social_graph(n, np.random.default_rng(5), counts, weights, rate_model)
        assert np.array_equal(a.following_targets, b.following_targets)
        assert np.array_equal(a.following_indptr, b.following_indptr)
        assert np.array_equal(a.event_counts, b.event_counts)

    def test_distributions_match_loop_referee(self):
        # Shared inputs, separate edge streams: the achieved
        # followings, follower counts and event counts must agree in
        # distribution with the per-user referee.  At n = 3000 the
        # same-distribution KS statistic is well below the thresholds.
        rng = np.random.default_rng(77)
        n = 3000
        counts, weights, rate_model = social_inputs(rng, n)
        fast = build_social_graph(
            n, np.random.default_rng(1), counts, weights, rate_model
        )
        loop = build_social_graph_loop(
            n, np.random.default_rng(1), counts, weights, rate_model
        )
        assert ks_statistic(fast.following_counts(), loop.following_counts()) < 0.02
        assert ks_statistic(fast.follower_counts, loop.follower_counts) < 0.05
        assert ks_statistic(fast.event_counts, loop.event_counts) < 0.05
        # Popularity attachment preserved: both builders give the
        # heavy-weight users the same share of all follows.
        top = np.argsort(weights)[-30:]
        fast_share = fast.follower_counts[top].sum() / fast.num_edges
        loop_share = loop.follower_counts[top].sum() / loop.num_edges
        assert abs(fast_share - loop_share) < 0.05

    def test_degenerate_graphs(self):
        # Zero declared followings: an empty CSR graph and an empty
        # workload, identically on both compaction paths.
        g = build_social_graph(
            3,
            np.random.default_rng(0),
            np.zeros(3, dtype=np.int64),
            np.ones(3),
            lambda f, r: np.ones(3, dtype=np.int64),
        )
        assert g.num_edges == 0 and len(g.followings) == 3
        for gen in (generate_social_workload, generate_social_workload_loop):
            w = gen(g)
            assert w.num_topics == 0 and w.num_subscribers == 0
        # All users inactive: every pair is dropped by compaction.
        g2 = build_social_graph(
            5,
            np.random.default_rng(1),
            np.full(5, 2, dtype=np.int64),
            np.ones(5),
            lambda f, r: np.zeros(5, dtype=np.int64),
        )
        for gen in (generate_social_workload, generate_social_workload_loop):
            w = gen(g2)
            assert w.num_topics == 0 and w.num_pairs == 0

    def test_loop_referee_rejects_bad_inputs_identically(self):
        rng = np.random.default_rng(0)
        for builder in (build_social_graph, build_social_graph_loop):
            with pytest.raises(ValueError, match="two users"):
                builder(1, rng, np.ones(1), np.ones(1), lambda f, r: f)
            with pytest.raises(ValueError, match="length"):
                builder(3, rng, np.ones(2), np.ones(3), lambda f, r: f)
            with pytest.raises(ValueError, match="rate model"):
                builder(
                    5,
                    rng,
                    np.ones(5, dtype=int),
                    np.ones(5),
                    lambda f, r: np.full(5, -1),
                )


class TestChurnEquivalence:
    """Vectorized CSR churn == the churn-loop referee, bit for bit.

    Both models resolve the same rng draw sequence against the same
    canonical pair enumeration (subscriber-major, topics ascending), so
    on a shared seed the deltas and the evolved workloads must be
    identical -- not just distributionally equivalent.
    """

    @staticmethod
    def _assert_same_delta(da, db):
        assert np.array_equal(da.subscribed_topics, db.subscribed_topics)
        assert np.array_equal(da.subscribed_subscribers, db.subscribed_subscribers)
        assert np.array_equal(da.unsubscribed_topics, db.unsubscribed_topics)
        assert np.array_equal(
            da.unsubscribed_subscribers, db.unsubscribed_subscribers
        )
        assert np.array_equal(da.changed_topics, db.changed_topics)
        assert da.subscribed == db.subscribed  # tuple views agree too
        assert da.touched_subscribers == db.touched_subscribers
        wa, wb = da.workload, db.workload
        assert np.array_equal(wa.event_rates, wb.event_rates)
        assert np.array_equal(wa.interest_indptr, wb.interest_indptr)
        assert np.array_equal(wa.interest_topics, wb.interest_topics)

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_shared_seed_streams(self, seed):
        rng = np.random.default_rng(10_000 + seed)
        workload = edgy_workload(rng)
        config = ChurnConfig(
            unsubscribe_fraction=float(rng.choice([0.0, 0.1, 0.4])),
            subscribe_fraction=float(rng.choice([0.0, 0.1, 0.4])),
            rate_drift_sigma=float(rng.choice([0.0, 0.1, 0.4])),
        )
        fast = ChurnModel(workload, config, seed=seed)
        loop = LoopChurnModel(workload, config, seed=seed)
        for _ in range(4):
            self._assert_same_delta(fast.step(), loop.step())

    def test_no_churn_is_identity_on_both(self, tiny_workload):
        for model_cls in (ChurnModel, LoopChurnModel):
            delta = model_cls(tiny_workload, ChurnConfig(0.0, 0.0, 0.0)).step()
            assert not delta.subscribed and not delta.unsubscribed
            assert not delta.rate_changed_topics
            assert delta.workload.num_pairs == tiny_workload.num_pairs

    def test_last_topic_never_dropped(self):
        w = Workload([3.0, 5.0], [[0], [1], [0, 1]], message_size_bytes=1.0)
        for model_cls in (ChurnModel, LoopChurnModel):
            model = model_cls(w, ChurnConfig(0.9, 0.0, 0.0), seed=1)
            for _ in range(3):
                evolved = model.step().workload
                assert int(evolved.interest_sizes().min()) >= 1


#: VM capacity over the most expensive pair: room for rate drift.
CHURN_HEADROOM = 8.0


def churn_problem(workload, rng):
    """A dynamic-friendly problem: multiple VMs, drift headroom."""
    max_pair = 2.0 * float(workload.event_rates.max())
    capacity = max(CHURN_HEADROOM * max_pair, float(rng.integers(20, 80)))
    tau = float(rng.integers(1, 14))
    return MCSSProblem(workload, tau, make_unit_plan(capacity))


def stress_problem(num_subscribers):
    """Zipf subscribers on dozens of VMs, hot topics spanning several."""
    workload = zipf_workload(
        40,
        num_subscribers,
        mean_interest=6.0,
        rate_exponent=0.8,
        max_rate=1000.0,
        message_size_bytes=1.0,
        seed=0,
    )
    max_pair = 2.0 * float(workload.event_rates.max())
    return MCSSProblem(
        workload, 1500.0, make_unit_plan(CHURN_HEADROOM * max_pair)
    )


def assert_selection_is_gsp(reprovisioner):
    """The placed pair set is exactly GSP's selection of the current workload.

    Selection is per-subscriber independent and every subscriber whose
    interests or topic rates changed is re-selected, so the maintained
    pairs must be what a fresh Stage 1 would pick: the premise of a
    cadence fresh solve that reuses them instead of re-running GSP.
    Small workloads are also checked against the literal Algorithm 2.
    """
    problem = reprovisioner.problem
    held = reprovisioner.selection()
    assert held == GreedySelectPairs().select(problem)
    if problem.workload.num_subscribers <= 300:
        assert held == ReferenceGreedySelectPairs().select(problem)


class TestReprovisionEquivalence:
    """Array-state reprovisioner == the reprovision-loop referee.

    With ``fresh_solve_every=1`` the vectorized reprovisioner runs the
    referee's every-epoch fresh solve and rebuild rule; on shared-seed
    churn streams the two must then produce identical epoch placements
    (per-VM assignments and order, via ``diff_placements``), identical
    costs, and identical EpochReport move counts -- the pinning
    contract of the tentpole.  Rates are integer-valued throughout, so
    every byte total is exactly representable and the comparisons are
    exact.
    """

    @staticmethod
    def _assert_same_epoch(vec_report, loop_report, vec, loop, problem_like):
        assert diff_placements(vec.placement(), loop.placement()) is None
        for field in (
            "epoch",
            "pairs_added",
            "pairs_removed",
            "pairs_moved",
            "vms_opened",
            "vms_closed",
            "rebuilt",
        ):
            assert getattr(vec_report, field) == getattr(loop_report, field), field
        assert vec_report.cost.num_vms == loop_report.cost.num_vms
        assert vec_report.cost.total_usd == pytest.approx(
            loop_report.cost.total_usd, rel=1e-12
        )
        assert vec_report.fresh_cost.total_usd == pytest.approx(
            loop_report.fresh_cost.total_usd, rel=1e-12
        )
        assert vec.selection() == loop.selection()
        assert_selection_is_gsp(vec)

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_shared_churn_streams(self, seed):
        rng = np.random.default_rng(12_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        threshold = float(rng.choice([1.0, 1.05, 1.2]))
        config = ChurnConfig(
            unsubscribe_fraction=float(rng.choice([0.05, 0.3])),
            subscribe_fraction=float(rng.choice([0.05, 0.3])),
            rate_drift_sigma=float(rng.choice([0.0, 0.15])),
        )
        model = ChurnModel(workload, config, seed=seed)
        vec = IncrementalReprovisioner(
            problem, rebuild_threshold=threshold, fresh_solve_every=1
        )
        loop = LoopIncrementalReprovisioner(problem, rebuild_threshold=threshold)
        for _ in range(4):
            delta = model.step()
            self._assert_same_epoch(
                vec.step(delta), loop.step(delta), vec, loop, problem
            )
            audit = validate_placement(vec.problem, vec.placement())
            assert audit.ok, str(audit)

    @pytest.mark.parametrize("seed", range(8))
    def test_bare_workload_steps(self, seed):
        # A bare Workload (no delta) re-checks every subscriber.
        rng = np.random.default_rng(13_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        model = ChurnModel(workload, ChurnConfig(0.2, 0.2, 0.1), seed=seed)
        vec = IncrementalReprovisioner(problem, fresh_solve_every=1)
        loop = LoopIncrementalReprovisioner(problem)
        for _ in range(3):
            evolved = model.step().workload
            self._assert_same_epoch(
                vec.step(evolved), loop.step(evolved), vec, loop, problem
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_placement_stress_streams(self, seed):
        # Hundreds of zipf subscribers: dozens of VMs, hot topics hosted
        # on several of them, and rate drift that evicts groups whose
        # pairs re-enter the placer after the added ones.  That drives
        # every placement branch -- a host, the most-free non-host, a
        # fresh VM -- and topics placed in several runs of one stream.
        workload = zipf_workload(
            40,
            300,
            mean_interest=6.0,
            rate_exponent=0.8,
            max_rate=1000.0,
            message_size_bytes=1.0,
            seed=seed,
        )
        max_pair = 2.0 * float(workload.event_rates.max())
        problem = MCSSProblem(
            workload, 1500.0, make_unit_plan(CHURN_HEADROOM * max_pair)
        )
        vec = IncrementalReprovisioner(problem, fresh_solve_every=1)
        loop = LoopIncrementalReprovisioner(problem)
        assert vec.num_vms >= 20
        _, group_topics, _, _ = vec.placement().assignment_arrays()
        assert np.bincount(group_topics).max() >= 3  # a hot topic spans VMs
        model = ChurnModel(workload, ChurnConfig(0.05, 0.05, 0.2), seed=seed)
        moved = opened = 0
        for _ in range(5):
            delta = model.step()
            vec_report = vec.step(delta)
            self._assert_same_epoch(
                vec_report, loop.step(delta), vec, loop, problem
            )
            assert validate_placement(vec.problem, vec.placement()).ok
            moved += vec_report.pairs_moved
            opened += vec_report.vms_opened
        # The case must keep exercising evictions and fresh VMs.
        assert moved > 0 and opened > 0

    def test_emptied_vm_is_closed(self):
        # Every subscriber with a pair on VM 0 drops all its interests:
        # the VM empties and is closed, and the VMs after it shift down.
        problem = stress_problem(300)
        workload = problem.workload
        vec = IncrementalReprovisioner(
            problem, rebuild_threshold=10.0, fresh_solve_every=1
        )
        loop = LoopIncrementalReprovisioner(problem, rebuild_threshold=10.0)
        before = vec.placement()
        leaving = sorted(
            {v for t in before.vm_topics(0) for v in before.members(0, t)}
        )
        gone = set(leaving)
        evolved = Workload(
            workload.event_rates,
            [
                [] if v in gone else workload.interest(v).tolist()
                for v in range(workload.num_subscribers)
            ],
            message_size_bytes=1.0,
        )
        unsubscribed = [
            (t, v) for v in leaving for t in workload.interest(v).tolist()
        ]
        delta = WorkloadDelta.from_pairs(evolved, [], unsubscribed, [])
        vec_report = vec.step(delta)
        self._assert_same_epoch(
            vec_report, loop.step(delta), vec, loop, problem
        )
        assert vec_report.vms_closed >= 1 and not vec_report.rebuilt
        assert vec.num_vms == (
            before.num_vms + vec_report.vms_opened - vec_report.vms_closed
        )
        assert validate_placement(vec.problem, vec.placement()).ok

    def test_departed_subscriber_pairs_removed(self):
        # The last subscriber leaves the workload entirely: its pairs
        # go, and no pair refers to a subscriber past the new end.
        problem = stress_problem(120)
        workload = problem.workload
        n = workload.num_subscribers
        vec = IncrementalReprovisioner(problem, fresh_solve_every=1)
        loop = LoopIncrementalReprovisioner(problem)
        held = sum(1 for _t, v in vec.selection() if v == n - 1)
        assert held > 0
        evolved = workload.restrict_subscribers(range(n - 1))
        unsubscribed = [(t, n - 1) for t in workload.interest(n - 1).tolist()]
        delta = WorkloadDelta.from_pairs(evolved, [], unsubscribed, [])
        vec_report = vec.step(delta)
        self._assert_same_epoch(
            vec_report, loop.step(delta), vec, loop, problem
        )
        assert vec_report.pairs_removed == held
        assert max(v for _t, v in vec.selection()) < n - 1
        assert validate_placement(vec.problem, vec.placement()).ok

    @pytest.mark.parametrize("seed", range(3))
    def test_tau_zero_streams_stay_empty(self, seed):
        # tau = 0 asks nothing of anyone: both reprovisioners select no
        # pair and deploy no VM, epoch after epoch of churn.
        rng = np.random.default_rng(13_500 + seed)
        workload = edgy_workload(rng)
        problem = MCSSProblem(workload, 0.0, churn_problem(workload, rng).plan)
        model = ChurnModel(workload, ChurnConfig(0.2, 0.2, 0.1), seed=seed)
        vec = IncrementalReprovisioner(problem, fresh_solve_every=1)
        loop = LoopIncrementalReprovisioner(problem)
        for _ in range(3):
            delta = model.step()
            vec_report = vec.step(delta)
            self._assert_same_epoch(
                vec_report, loop.step(delta), vec, loop, problem
            )
            assert vec_report.cost.num_vms == vec.num_vms == 0
            assert vec.selection().num_pairs == 0

    def test_initial_state_matches_referee(self, tiny_problem):
        vec = IncrementalReprovisioner(tiny_problem)
        loop = LoopIncrementalReprovisioner(tiny_problem)
        assert diff_placements(vec.placement(), loop.placement()) is None
        assert vec.selection() == loop.selection()

    @pytest.mark.parametrize("num_subscribers", [300, 3000])
    def test_selection_stays_gsp_under_rate_drift(self, num_subscribers):
        # A zipf workload at the serving capacity rule (2.5x the hottest
        # topic, or an eighth of the total rate) under sigma = 0.02
        # drift: re-priced audiences are re-selected and evicted groups
        # re-placed every epoch, at the default fresh-solve cadence.
        workload = zipf_workload(
            max(20, num_subscribers // 50),
            num_subscribers,
            mean_interest=8.0,
            message_size_bytes=1.0,
            seed=num_subscribers,
        )
        rates = workload.event_rates
        capacity = max(2.5 * float(rates.max()), float(rates.sum()) / 8.0)
        problem = MCSSProblem(workload, 100.0, make_unit_plan(capacity))
        reprov = IncrementalReprovisioner(problem)
        model = ChurnModel(workload, ChurnConfig(0.01, 0.01, 0.02), seed=7)
        moved = 0
        for _ in range(10):
            moved += reprov.step(model.step()).pairs_moved
            assert_selection_is_gsp(reprov)
        assert moved > 0  # the stream keeps evicting

    @pytest.mark.parametrize(
        "sigma, bare, threshold",
        [(0.0, False, 1.15), (0.02, False, 1.15), (0.02, False, 1.0), (0.02, True, 1.15)],
        ids=["steady", "drift", "drift-rebuilding", "drift-bare-workloads"],
    )
    def test_fresh_repack_is_the_fresh_solve(self, sigma, bare, threshold):
        # At the default cadence the fresh solve re-packs the held
        # selection.  On every epoch that runs it, its cost must be a
        # from-scratch solve's, and a rebuild must adopt exactly that
        # solve's placement.  Threshold 1.0 rebuilds whenever the
        # incremental fleet costs more than the fresh one.
        workload = zipf_workload(
            60, 3000, mean_interest=8.0, message_size_bytes=1.0, seed=3000
        )
        rates = workload.event_rates
        capacity = max(2.5 * float(rates.max()), float(rates.sum()) / 8.0)
        problem = MCSSProblem(workload, 100.0, make_unit_plan(capacity))
        reprov = IncrementalReprovisioner(problem, rebuild_threshold=threshold)
        model = ChurnModel(workload, ChurnConfig(0.01, 0.01, sigma), seed=7)
        fresh = rebuilt = 0
        for _ in range(17):
            delta = model.step()
            report = reprov.step(delta.workload if bare else delta)
            if not report.fresh_solved:
                continue
            fresh += 1
            solution = MCSSSolver.paper().solve(reprov.problem)
            assert report.fresh_cost == solution.cost
            if report.rebuilt:
                rebuilt += 1
                vms, topics, sizes, subs = solution.placement.assignment_arrays()
                adopted = Placement.from_pair_arrays(
                    reprov.problem.workload,
                    problem.capacity_bytes,
                    np.repeat(vms, sizes),
                    np.repeat(topics, sizes),
                    subs,
                    num_vms=solution.placement.num_vms,
                )
                assert diff_placements(reprov.placement(), adopted) is None
        assert fresh >= 2
        if threshold == 1.0:
            assert rebuilt > 0


class TestBackendEquivalence:
    """The same solve on RAM-resident and mmap-backed storage, bit for bit.

    Backends change residency, never values (the contract of
    :mod:`repro.core.backend`): the ``backed_small_zipf`` fixture runs
    each case once per backend, and every result is compared against a
    freshly built in-RAM reference workload.
    """

    @staticmethod
    def _reference_problem(workload):
        capacity = 4.0 * float(workload.event_rates.max()) * workload.message_size_bytes
        return MCSSProblem(workload, 100.0, make_unit_plan(capacity))

    def test_select_pack_validate_identical(self, backed_small_zipf, small_zipf):
        problem = self._reference_problem(backed_small_zipf)
        ref_problem = self._reference_problem(small_zipf)
        selection = GreedySelectPairs().select(problem)
        reference = GreedySelectPairs().select(ref_problem)
        assert selection == reference
        assert list(selection.topics) == list(reference.topics)
        placement = CustomBinPacking(CBPOptions.ladder("e")).pack(problem, selection)
        ref_placement = CustomBinPacking(CBPOptions.ladder("e")).pack(
            ref_problem, reference
        )
        assert_identical_placements(placement, ref_placement, ref_problem)
        report = validate_placement(problem, placement)
        loop_report = validate_placement_loop(problem, placement)
        assert report.ok and loop_report.ok

    def test_satisfaction_reductions_identical(self, backed_small_zipf, small_zipf):
        got = delivered_rates(
            backed_small_zipf, {0: [0, 1], 5: [2], 7: list(range(10))}
        )
        want = delivered_rates(small_zipf, {0: [0, 1], 5: [2], 7: list(range(10))})
        np.testing.assert_array_equal(got, want)


class TestShardedMmapPin:
    """The acceptance pin: out-of-core == in-RAM at 100k subscribers.

    One 100k-subscriber zipf instance solved twice -- the plain
    single-process in-RAM path, and the out-of-core path (forced by the
    ``MCSS_SHARD_SIZE`` / ``MCSS_SHARD_WORKERS`` knobs) on an
    mmap-backed reload of the same workload with two shard threads --
    must agree on the selection (group order included), the per-VM
    placements, and the costs, exactly.
    """

    def test_sharded_mmap_solve_bit_exact(self, tmp_path, force_shards):
        from repro.solver import MCSSSolver
        from repro.workloads import load_workload, save_workload, zipf_workload

        workload = zipf_workload(2000, 100_000, mean_interest=8.0, seed=7)
        capacity = (
            max(
                2.5 * float(workload.event_rates.max()),
                float(workload.event_rates.sum()) / 8.0,
            )
            * workload.message_size_bytes
        )
        problem = MCSSProblem(workload, 100.0, make_unit_plan(float(capacity)))
        plain = MCSSSolver.paper().solve(problem)

        mapped = load_workload(save_workload(workload, tmp_path / "pin"), mmap=True)
        mmap_problem = MCSSProblem(mapped, 100.0, make_unit_plan(float(capacity)))
        force_shards(25_000, workers=2)
        sharded = MCSSSolver.paper().solve(mmap_problem)

        # Selection identity down to group order and within-group order.
        pt, pi, ps = plain.selection.csr_arrays()
        st, si, ss = sharded.selection.csr_arrays()
        np.testing.assert_array_equal(st, pt)
        np.testing.assert_array_equal(si, pi)
        np.testing.assert_array_equal(ss, ps)
        # Placement and cost identity.
        assert diff_placements(sharded.placement, plain.placement) is None
        assert sharded.cost.num_vms == plain.cost.num_vms
        assert sharded.cost.total_usd == plain.cost.total_usd
        # And the solve's own audit of the mapped workload agrees with
        # the in-RAM one.
        assert sharded.validation == plain.validation
        assert sharded.validation.ok
        # The sharded Stage 1 run again directly also matches (selector
        # entry point, not just the solver wrapper).
        direct = GreedySelectPairs().select(mmap_problem)
        assert direct == plain.selection


class TestValidatorEquivalence:
    """Vectorized validate_placement == the loop referee, verdict for verdict."""

    @staticmethod
    def _assert_same_verdict(problem, placement):
        fast = validate_placement(problem, placement)
        slow = validate_placement_loop(problem, placement)
        assert fast.ok == slow.ok
        assert fast.capacity_ok == slow.capacity_ok
        assert fast.satisfaction_ok == slow.satisfaction_ok
        assert fast.accounting_ok == slow.accounting_ok
        assert fast.overloaded_vms == slow.overloaded_vms
        assert fast.unsatisfied_subscribers == slow.unsatisfied_subscribers
        assert fast.messages == slow.messages

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_solved_placements(self, seed):
        rng = np.random.default_rng(4000 + seed)
        workload = edgy_workload(rng)
        max_rate = float(workload.event_rates.max())
        tau = float(rng.integers(1, 12))
        # Capacity: tight enough to need several VMs, always feasible.
        capacity = max(2.0 * max_rate, float(rng.integers(2, 40)))
        problem = MCSSProblem(workload, tau, make_unit_plan(capacity))
        selection = GreedySelectPairs().select(problem)
        placement = FFBinPacking().pack(problem, selection)
        self._assert_same_verdict(problem, placement)

    @pytest.mark.parametrize("seed", range(8))
    def test_broken_placements_same_verdict(self, seed):
        rng = np.random.default_rng(5000 + seed)
        workload = edgy_workload(rng)
        max_rate = float(workload.event_rates.max())
        big = MCSSProblem(workload, 8.0, make_unit_plan(1e9))
        placement = FFBinPacking().pack(big, GreedySelectPairs().select(big))
        # Validate against a much tighter problem: overloads and (with a
        # higher tau) unsatisfied subscribers must be reported the same.
        tight = MCSSProblem(workload, 50.0, make_unit_plan(2.0 * max_rate))
        self._assert_same_verdict(tight, placement)

    def test_empty_placement_and_tau_zero(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 0, make_unit_plan(100.0))
        self._assert_same_verdict(problem, problem.empty_placement())
        problem30 = MCSSProblem(tiny_workload, 30, make_unit_plan(100.0))
        self._assert_same_verdict(problem30, problem30.empty_placement())

    def test_duplicate_assignment_same_verdict(self, tiny_problem):
        p = tiny_problem.empty_placement()
        b, c = p.new_vm(), p.new_vm()
        p.assign(b, 0, [0])
        p.assign(b, 0, [0])
        # Duplicates in two groups, reported in group order, while the
        # same pair on another VM is a replica, not a duplicate.
        p.assign(c, 1, [2, 2])
        p.assign(c, 0, [0])
        report = validate_placement(tiny_problem, p)
        assert not report.accounting_ok
        assert report.messages[:2] == [
            f"VM {b} lists duplicate subscribers for topic 0",
            f"VM {c} lists duplicate subscribers for topic 1",
        ]
        self._assert_same_verdict(tiny_problem, p)

    def test_topicless_workload_same_verdict(self):
        problem = MCSSProblem(Workload([], [[], []]), 10.0, make_unit_plan(1e6))
        assert validate_placement(problem, problem.empty_placement()).ok
        self._assert_same_verdict(problem, problem.empty_placement())


class TestCheckpointResumeEquivalence:
    """A killed-and-resumed churn run == the uninterrupted run, bit for bit.

    The checkpoint carries the reprovisioner's complete pair state,
    cadence counters, and the churn model's bit-generator position
    (:mod:`repro.resilience.checkpoint`), so resuming draws exactly
    what an undisturbed run would have drawn -- the pin is per-epoch
    report fields, costs, placements, and final selection identity.
    """

    CONFIG = ChurnConfig(
        unsubscribe_fraction=0.2, subscribe_fraction=0.2, rate_drift_sigma=0.1
    )

    @staticmethod
    def _assert_same_report(got, want):
        for field in (
            "epoch",
            "pairs_added",
            "pairs_removed",
            "pairs_moved",
            "vms_opened",
            "vms_closed",
            "rebuilt",
        ):
            assert getattr(got, field) == getattr(want, field), field
        assert got.cost.num_vms == want.cost.num_vms
        assert got.cost.total_usd == want.cost.total_usd

    @pytest.mark.parametrize("seed", range(8))
    def test_snapshot_roundtrip_mid_run(self, seed, tmp_path):
        from repro.resilience import load_checkpoint, save_checkpoint

        rng = np.random.default_rng(14_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        cadence = int(rng.choice([1, 3]))  # exercise the fresh-solve counter

        ref_model = ChurnModel(workload, self.CONFIG, seed=seed)
        ref = IncrementalReprovisioner(problem, fresh_solve_every=cadence)
        ref_reports = [ref.step(ref_model.step()) for _ in range(6)]

        model = ChurnModel(workload, self.CONFIG, seed=seed)
        reprov = IncrementalReprovisioner(problem, fresh_solve_every=cadence)
        reports = [reprov.step(model.step()) for _ in range(3)]
        path = str(tmp_path / "mid.npz")
        save_checkpoint(path, reprov, model)
        del reprov, model  # the "kill": nothing survives but the file
        reprov, model = load_checkpoint(path, problem.plan)
        assert reprov.epoch == 3
        reports += [reprov.step(model.step()) for _ in range(3)]

        for got, want in zip(reports, ref_reports):
            self._assert_same_report(got, want)
        assert diff_placements(reprov.placement(), ref.placement()) is None
        assert reprov.selection() == ref.selection()

    @pytest.mark.parametrize("seed", range(4))
    def test_runner_resume_matches_uninterrupted(self, seed, tmp_path):
        from repro.experiments import run_serving_experiment
        from repro.serving import ServingConfig

        rng = np.random.default_rng(15_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        config = ServingConfig(
            checkpoint_path=str(tmp_path / "run.npz"), checkpoint_every=2
        )

        ref = run_serving_experiment(
            workload, problem.plan, problem.tau, 6, seed=seed
        )

        first = run_serving_experiment(
            workload, problem.plan, problem.tau, 4, seed=seed,
            serving_config=config,
        )
        assert first.checkpoints_written == 2
        resumed = run_serving_experiment(
            workload, problem.plan, problem.tau, 6, seed=seed,
            serving_config=config, resume=True,
        )
        assert resumed.resumed_from_micro_epoch == 4
        assert len(resumed.reports) == 2

        reports = [r.report for r in first.reports + resumed.reports]
        assert len(reports) == len(ref.reports) == 6
        for got, want in zip(reports, ref.reports):
            self._assert_same_report(got, want.report)
        assert diff_placements(
            resumed.service.placement(), ref.service.placement()
        ) is None


class TestServingEquivalence:
    """The serving path == the reprovision-loop referee, split however.

    Each epoch's churn is chopped into fragments at *random* positions
    of its operation stream, offered to the ``MicroEpochService``'s
    ingestion queue, and sealed into one micro-epoch; with
    ``fresh_solve_every=1`` the serving trajectory (placements, costs,
    report fields, selections) must be bit-identical to the referee
    stepping the same churn epochs whole -- fragment boundaries are
    wire format, not semantics.
    """

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_fragment_splits_match_referee(self, seed):
        from repro.serving import MicroEpochService, ServingConfig

        rng = np.random.default_rng(16_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        threshold = float(rng.choice([1.0, 1.05, 1.2]))
        config = ChurnConfig(
            unsubscribe_fraction=float(rng.choice([0.05, 0.3])),
            subscribe_fraction=float(rng.choice([0.05, 0.3])),
            rate_drift_sigma=float(rng.choice([0.0, 0.15])),
        )
        model = ChurnModel(workload, config, seed=seed)
        service = MicroEpochService(
            problem,
            ServingConfig(rebuild_threshold=threshold, fresh_solve_every=1),
        )
        loop = LoopIncrementalReprovisioner(problem, rebuild_threshold=threshold)

        for _ in range(4):
            delta = model.step()
            num_ops = int(
                delta.subscribed_topics.size + delta.unsubscribed_topics.size
            )
            cuts = rng.integers(
                0, num_ops + 1, size=int(rng.integers(0, 5))
            ).tolist()
            service.ingest_delta(delta, cuts)
            micro = service.run_micro_epoch(delta.workload, delta.changed_topics)
            loop_report = loop.step(delta)
            TestReprovisionEquivalence._assert_same_epoch(
                micro.report,
                loop_report,
                service.reprovisioner,
                loop,
                problem,
            )
            assert micro.ops >= num_ops  # + changed topics
            assert service.queue_depth == 0  # sealed epochs drain fully
