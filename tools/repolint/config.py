"""repolint configuration: the repository's declared invariants.

Everything a rule needs to know about *this* repository lives here, as
data: which functions are loop referees, which modules are vectorized
hot paths, which generators are pinned to ``GENERATOR_VERSION``, where
RNG construction is allowed, and where the env-knob registry lives.
Tests build custom :class:`Config` instances over fixture trees; the
CLI uses :func:`default_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

#: The loop referees of docs/ARCHITECTURE.md ("The referee policy",
#: rule 1): module path -> qualified definition names pinned by RF01.
#: ``_FreeCapacityHeap`` is part of the cbp-loop referee's executable
#: spec (LoopCustomBinPacking allocates through it), so it is pinned
#: with the same strength.
REFEREES: "Dict[str, Tuple[str, ...]]" = {
    "src/repro/selection/greedy.py": (
        "LoopGreedySelectPairs",
        "ReferenceGreedySelectPairs",
    ),
    "src/repro/core/validation.py": ("validate_placement_loop",),
    "src/repro/packing/custom_loop.py": (
        "cheaper_to_distribute_loop",
        "_FreeCapacityHeap",
        "LoopCustomBinPacking",
    ),
    "src/repro/packing/first_fit.py": ("LoopFFBinPacking",),
    "src/repro/workloads/social.py": (
        "build_social_graph_loop",
        "generate_social_workload_loop",
    ),
    "src/repro/dynamic/churn.py": ("LoopChurnModel",),
    "src/repro/dynamic/reprovision.py": ("LoopIncrementalReprovisioner",),
}

#: Declared whole-array hot paths checked by VL01.  Referee definitions
#: inside these modules are allowlisted by construction.
HOT_PATH_MODULES: "Tuple[str, ...]" = (
    "src/repro/selection/greedy.py",
    "src/repro/packing/custom.py",
    "src/repro/packing/first_fit.py",
    "src/repro/dynamic/churn.py",
    "src/repro/dynamic/reprovision.py",
    "src/repro/workloads/social.py",
    "src/repro/core/validation.py",
)

#: Seeded generators pinned by RF02: the draw entry points plus the
#: private helpers that shape the random stream.  Editing any of these
#: bodies without bumping GENERATOR_VERSION fails the gate.
GENERATORS: "Dict[str, Tuple[str, ...]]" = {
    "src/repro/workloads/synthetic.py": (
        "zipf_workload",
        "uniform_workload",
        "_distinct_uniform_keys",
        "_csr_from_keys",
    ),
    "src/repro/workloads/social.py": (
        "build_social_graph",
        "generate_social_workload",
        "_weighted_multiset",
        "_checked_event_counts",
        "_sorted_unique",
    ),
    "src/repro/workloads/twitter.py": ("TwitterWorkloadGenerator",),
    "src/repro/workloads/spotify.py": ("SpotifyWorkloadGenerator",),
    "src/repro/workloads/sampling.py": ("sample_subscribers",),
}

#: Where RN01 allows ``np.random.default_rng`` / ``Generator``
#: construction: the seeded generator package, the seeded dynamic
#: models, and entry-point trees (scripts / examples / benchmarks /
#: tests seed their own streams).  Everywhere else under src/ must
#: accept an ``rng`` parameter.
RNG_SEAM_PREFIXES: "Tuple[str, ...]" = (
    "src/repro/workloads/",
    "src/repro/dynamic/churn.py",
    "src/repro/selection/random_.py",
    "scripts/",
    "examples/",
    "benchmarks/",
    "tests/",
)

#: numpy legacy global-state RandomState API (flagged anywhere).
NP_RANDOM_LEGACY: "Tuple[str, ...]" = (
    "seed", "rand", "randn", "randint", "random_integers", "random",
    "random_sample", "ranf", "sample", "bytes", "choice", "shuffle",
    "permutation", "uniform", "normal", "standard_normal", "lognormal",
    "beta", "binomial", "chisquare", "dirichlet", "exponential", "f",
    "gamma", "geometric", "gumbel", "hypergeometric", "laplace",
    "logistic", "lognormal", "logseries", "multinomial",
    "multivariate_normal", "negative_binomial", "noncentral_chisquare",
    "noncentral_f", "pareto", "poisson", "power", "rayleigh",
    "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_t", "triangular", "vonmises", "wald", "weibull", "zipf",
    "get_state", "set_state", "RandomState",
)


@dataclass
class Config:
    root: Path
    # NOTE: tools/ itself is not scanned -- repolint's own sources and
    # docstrings quote the suppression syntax as documentation, which a
    # line-based comment scanner cannot tell from real suppressions.
    scan_roots: "Tuple[str, ...]" = (
        "src", "scripts", "tests", "benchmarks", "examples",
    )
    # Excluded for the same reason: the linter's own test fixtures are
    # source snippets (in string literals) that exercise the
    # suppression syntax on purpose.
    scan_exclude: "Tuple[str, ...]" = ("tests/test_repolint.py",)
    referees: "Dict[str, Tuple[str, ...]]" = field(
        default_factory=lambda: dict(REFEREES)
    )
    hot_path_modules: "Tuple[str, ...]" = HOT_PATH_MODULES
    generators: "Dict[str, Tuple[str, ...]]" = field(
        default_factory=lambda: dict(GENERATORS)
    )
    generator_version_file: str = "src/repro/workloads/synthetic.py"
    generator_version_name: str = "GENERATOR_VERSION"
    rng_seam_prefixes: "Tuple[str, ...]" = RNG_SEAM_PREFIXES
    np_random_legacy: "Tuple[str, ...]" = NP_RANDOM_LEGACY
    env_knob_prefix: str = "MCSS_"
    env_knob_doc: str = "docs/BENCHMARKS.md"
    doc_link_files: "Tuple[str, ...]" = ("README.md", "ROADMAP.md", "docs")
    fingerprints_path: str = "tools/repolint/fingerprints.json"
    baseline_path: str = "tools/repolint/baseline.json"
    architecture_doc: str = "docs/ARCHITECTURE.md"

    def abspath(self, rel: str) -> Path:
        return self.root / rel


def default_config(root: "Path | None" = None) -> Config:
    if root is None:
        # tools/repolint/config.py -> repository root is two levels up.
        root = Path(__file__).resolve().parent.parent.parent
    return Config(root=Path(root))
