"""Occupancy words of the perpendicular bisectors of a convex cyclic polygon.

Place n points on a circle and draw the n perpendicular bisectors of the
sides of the inscribed polygon; the lines cut the disk into 2n sectors and
the pattern of occupied sectors is a binary word of length 2n.  This
package decides which words occur, constructs witnesses, enumerates and
uniformly samples them, and validates all the exact formulas about random
configurations by Monte Carlo.
"""

from .enumeration import (
    EnumerationReport,
    count_bracelets,
    count_words,
    enumerate_words,
    enumeration_report,
)
from .geometry import (
    Arrangement,
    NonGenericConfiguration,
    PointConfig,
    RegionStats,
    arrangement,
    occupancy_word,
    ocdc,
    region_stats,
    verify_direction_patterns,
)
from .random_points import (
    EstimatorResult,
    ExpSpacingSample,
    closed_form,
    estimate_bracelet_prob,
    estimate_region_stats,
    equidistribution_paths,
    max_spacing_check,
    phi,
    phi_series,
    sample_exp_model,
    sample_uniform_config,
    transfer_check,
)
from .realization import NotRealizable, RealizationPlan, plan_realization, realize, verify_bisector_layout
from .sampler import (
    LatticeWalk,
    binomial_parity_check,
    lln_clt_experiment,
    sample_uniform_bracelet,
    sample_uniform_bracelets,
    sample_uniform_word,
    sample_uniform_words,
    walk_to_word,
    word_to_walk,
)
from .words import (
    Bracelet,
    canonical_bracelet,
    fold,
    is_interlacing,
    is_realizable,
    letters_to_word,
    prefix_counts,
    run_word,
    signature,
    unfold,
    word_from_string,
    word_to_string,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "Bracelet",
    "EnumerationReport",
    "EstimatorResult",
    "ExpSpacingSample",
    "LatticeWalk",
    "NonGenericConfiguration",
    "NotRealizable",
    "PointConfig",
    "RealizationPlan",
    "RegionStats",
    "arrangement",
    "binomial_parity_check",
    "canonical_bracelet",
    "closed_form",
    "count_bracelets",
    "count_words",
    "enumerate_words",
    "enumeration_report",
    "equidistribution_paths",
    "estimate_bracelet_prob",
    "estimate_region_stats",
    "fold",
    "is_interlacing",
    "is_realizable",
    "letters_to_word",
    "lln_clt_experiment",
    "max_spacing_check",
    "occupancy_word",
    "ocdc",
    "phi",
    "phi_series",
    "plan_realization",
    "prefix_counts",
    "realize",
    "region_stats",
    "run_word",
    "sample_exp_model",
    "sample_uniform_bracelet",
    "sample_uniform_bracelets",
    "sample_uniform_config",
    "sample_uniform_word",
    "sample_uniform_words",
    "signature",
    "transfer_check",
    "unfold",
    "verify_bisector_layout",
    "verify_direction_patterns",
    "walk_to_word",
    "word_from_string",
    "word_to_string",
    "word_to_walk",
]
