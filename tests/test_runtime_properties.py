"""Property tests for the dynamic runtime.

Invariant: any sequence of churn epochs leaves the incremental
reprovisioner feasible.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MCSSProblem, validate_placement
from repro.dynamic import ChurnConfig, ChurnModel, IncrementalReprovisioner
from repro.workloads import zipf_workload
from tests.conftest import make_unit_plan


@given(
    seed=st.integers(min_value=0, max_value=1000),
    epochs=st.integers(min_value=1, max_value=3),
    unsub=st.floats(min_value=0.0, max_value=0.2),
    sub=st.floats(min_value=0.0, max_value=0.2),
    drift=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=25, deadline=None)
def test_reprovisioner_feasible_under_arbitrary_churn(
    seed, epochs, unsub, sub, drift
):
    w = zipf_workload(25, 60, mean_interest=4.0, seed=seed % 7)
    problem = MCSSProblem(w, 40, make_unit_plan(4.5e7))
    reprov = IncrementalReprovisioner(problem)
    model = ChurnModel(w, ChurnConfig(unsub, sub, drift), seed=seed)
    for _ in range(epochs):
        reprov.step(model.step())
        audit = validate_placement(reprov.problem, reprov.placement())
        assert audit.ok, str(audit)
