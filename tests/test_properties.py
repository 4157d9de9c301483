"""Cross-module property-based tests (hypothesis).

These pin the whole-system invariants the paper's correctness rests on,
over fuzzed workloads:

1. every solver pipeline produces a feasible placement (capacity +
   satisfaction);
2. the lower bound never exceeds any feasible solution's cost;
3. Stage-1 selections satisfy every subscriber on a single infinite VM;
4. packing never invents or loses pairs;
5. the loop referee's from-scratch recomputation (per-VM Eq.-2 bytes,
   per-subscriber satisfaction) agrees with the placement the solver
   prices, and the solver's cost is the objective of that placement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import lower_bound
from repro.core import (
    MCSSProblem,
    Workload,
    all_satisfied,
    validate_placement,
    validate_placement_loop,
)
from repro.solver import MCSSSolver
from tests.conftest import make_unit_plan


@st.composite
def workloads(draw):
    """Small random workloads with every subscriber non-trivial."""
    num_topics = draw(st.integers(min_value=1, max_value=7))
    rates = draw(
        st.lists(
            st.integers(min_value=1, max_value=25),
            min_size=num_topics,
            max_size=num_topics,
        )
    )
    num_subscribers = draw(st.integers(min_value=1, max_value=8))
    interests = []
    for _ in range(num_subscribers):
        size = draw(st.integers(min_value=1, max_value=num_topics))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_topics - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        interests.append(sorted(members))
    return Workload([float(r) for r in rates], interests, message_size_bytes=1.0)


def make_problem(workload, tau, slack):
    capacity = 2.0 * float(workload.event_rates.max()) * (1.0 + slack)
    return MCSSProblem(workload, tau, make_unit_plan(capacity, vm_price=4.0))


@given(
    workload=workloads(),
    tau=st.integers(min_value=0, max_value=40),
    slack=st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=120, deadline=None)
def test_pipelines_always_feasible(workload, tau, slack):
    problem = make_problem(workload, tau, slack)
    for solver in (
        MCSSSolver.paper(),
        MCSSSolver.naive(),
        MCSSSolver.ladder("a"),
        MCSSSolver.ladder("b"),
        MCSSSolver.ladder("d"),
    ):
        solution = solver.solve(problem)  # solve() validates internally
        assert solution.validation.ok
        # Packing preserves the selection exactly.
        assert solution.placement.to_selection() == solution.selection


@given(
    workload=workloads(),
    tau=st.integers(min_value=0, max_value=40),
    slack=st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=120, deadline=None)
def test_lower_bound_sound(workload, tau, slack):
    problem = make_problem(workload, tau, slack)
    solution = MCSSSolver.paper().solve(problem)
    for tight in (False, True):
        bound = lower_bound(problem, include_forced_ingest=tight)
        assert bound.total_usd <= solution.cost.total_usd * (1 + 1e-9)


@given(workload=workloads(), tau=st.integers(min_value=0, max_value=60))
@settings(max_examples=120, deadline=None)
def test_selection_satisfies_subscribers(workload, tau):
    problem = MCSSProblem(workload, tau, make_unit_plan(1e9))
    for solver in (MCSSSolver.paper(), MCSSSolver.naive()):
        selection = solver.selector.select(problem)
        assert all_satisfied(workload, selection.topics_by_subscriber(), tau)


@given(
    workload=workloads(),
    tau=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_loop_referee_agrees_with_objective(workload, tau):
    problem = make_problem(workload, tau, 2.0)
    solution = MCSSSolver.paper().solve(problem)
    # The referee recomputes every VM's bytes from the raw assignment
    # lists and checks them against the placement's own accounting,
    # which is what cost_of sums.
    audit = validate_placement_loop(problem, solution.placement)
    assert audit.ok, str(audit)
    assert problem.cost_of(solution.placement) == solution.cost
