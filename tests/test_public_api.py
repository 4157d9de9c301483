"""Public API surface tests.

A downstream user imports from documented locations; these tests pin
the surface so refactors cannot silently break it.  Every name listed
in each package's ``__all__`` must resolve, and the promised behaviour
of the top-level conveniences must hold.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.pricing",
    "repro.selection",
    "repro.packing",
    "repro.bounds",
    "repro.exact",
    "repro.solver",
    "repro.workloads",
    "repro.analysis",
    "repro.dynamic",
    "repro.experiments",
    "repro.serving",
    "repro.resilience",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_top_level_convenience_names():
    import repro

    for name in (
        "MCSSProblem",
        "MCSSSolver",
        "Workload",
        "paper_plan",
        "lower_bound",
        "lp_lower_bound",
        "best_lower_bound",
        "validate_placement",
    ):
        assert name in repro.__all__

    assert repro.__version__


def test_registries_cover_paper_algorithms():
    from repro.packing import available_packers
    from repro.selection import available_selectors

    assert {"gsp", "gsp-reference", "rsp", "knapsack"} <= set(available_selectors())
    assert {"ffbp", "cbp", "bfbp", "ffdbp"} <= set(available_packers())


def test_docstrings_on_public_modules():
    for package in PACKAGES:
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a module docstring"


def test_paper_presets_are_what_readme_promises():
    from repro import MCSSSolver
    from repro.packing import CBPOptions

    paper = MCSSSolver.paper()
    assert paper.selector.name == "gsp"
    assert paper.packer.name == "cbp"
    assert paper.packer.options == CBPOptions.ladder("e")

    naive = MCSSSolver.naive()
    assert naive.selector.name == "rsp"
    assert naive.packer.name == "ffbp"
