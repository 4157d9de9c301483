"""Trace substrate: synthetic workload generators and trace I/O.

The paper's real traces (Spotify internal, Twitter from a dead link)
are unavailable; :class:`SpotifyWorkloadGenerator` and
:class:`TwitterWorkloadGenerator` reproduce their published statistical
shape at configurable scale (a documented substitution; see
docs/ARCHITECTURE.md).
:func:`zipf_workload` / :func:`uniform_workload` are simple parametric
workloads for tests and ablations.
"""

from .distributions import glitched_following_counts, truncated_power_law
from .io import (
    TraceCorruptionError,
    load_workload,
    save_workload,
    save_zipf_workload_chunked,
)
from .sampling import sample_subscribers
from .social import (
    SocialGraph,
    build_social_graph,
    build_social_graph_loop,
    generate_social_workload,
    generate_social_workload_loop,
)
from .spotify import SpotifyConfig, SpotifyWorkloadGenerator
from .synthetic import GENERATOR_VERSION, uniform_workload, zipf_workload
from .trace import GeneratedTrace
from .transforms import (
    filter_topics_by_rate,
    merge_workloads,
    scale_rates,
    top_subscribers,
)
from .twitter import TwitterConfig, TwitterWorkloadGenerator

__all__ = [
    "glitched_following_counts",
    "truncated_power_law",
    "TraceCorruptionError",
    "load_workload",
    "save_workload",
    "save_zipf_workload_chunked",
    "sample_subscribers",
    "SocialGraph",
    "build_social_graph",
    "build_social_graph_loop",
    "generate_social_workload",
    "generate_social_workload_loop",
    "SpotifyConfig",
    "SpotifyWorkloadGenerator",
    "GENERATOR_VERSION",
    "uniform_workload",
    "zipf_workload",
    "GeneratedTrace",
    "filter_topics_by_rate",
    "merge_workloads",
    "scale_rates",
    "top_subscribers",
    "TwitterConfig",
    "TwitterWorkloadGenerator",
]
