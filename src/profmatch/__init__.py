"""Profile-optimal stable matchings via lexicographic vector flows."""

from .model import (
    Instance,
    Matching,
    ParseError,
    format_instance,
    parse_instance,
    preprocess,
    profile_of,
)
from .profiles import Profile, high_weight
from .rotations import (
    Rotation,
    RotationDigraph,
    build_digraph,
    eliminate_closed_subset,
    find_rotations,
)
from .solvers import (
    Criterion,
    EnumerationCapError,
    enumerate_stable_matchings,
    matching_degree,
    oracle_exponential_flow,
    select_egalitarian,
    select_median,
    select_min_regret,
    select_sex_equal,
    solve,
)
from .stability import (
    blocking_pair,
    man_optimal,
    min_regret_degree,
    truncate,
    woman_optimal,
)
from .vbflow import (
    build_vb_network,
    max_profile_closed_subset,
    max_vb_flow,
    min_cut,
)
from .analytics import (
    MatchingStats,
    SpaceReport,
    batch_stats,
    generate_I1,
    generate_uniform,
    i1_rotation_profiles,
    last_choice_threshold,
    matching_stats,
    space_report,
)

__version__ = "0.1.0"

__all__ = [
    "Criterion",
    "EnumerationCapError",
    "Instance",
    "Matching",
    "MatchingStats",
    "ParseError",
    "Profile",
    "Rotation",
    "RotationDigraph",
    "SpaceReport",
    "batch_stats",
    "blocking_pair",
    "build_digraph",
    "build_vb_network",
    "eliminate_closed_subset",
    "enumerate_stable_matchings",
    "find_rotations",
    "format_instance",
    "generate_I1",
    "generate_uniform",
    "high_weight",
    "i1_rotation_profiles",
    "last_choice_threshold",
    "man_optimal",
    "matching_degree",
    "matching_stats",
    "max_profile_closed_subset",
    "max_vb_flow",
    "min_cut",
    "min_regret_degree",
    "oracle_exponential_flow",
    "parse_instance",
    "preprocess",
    "profile_of",
    "select_egalitarian",
    "select_median",
    "select_min_regret",
    "select_sex_equal",
    "solve",
    "space_report",
    "truncate",
    "woman_optimal",
]
