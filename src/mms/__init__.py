"""Exact computation and certification for the minimum number of
non-negative k-sums among n reals with non-negative total sum."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    f_bound_values,
    propagate_equality,
    thm1_threshold_check,
    thm2_stage_check,
    unimodal_gap_lb,
)
from .constructions import (
    NamedConstruction,
    counterexample_beats_target,
    mirror_config,
    mms_counterexample,
    star_config,
)
from .numerics import (
    Configuration,
    KSubset,
    SubsetFamily,
    binomial,
    count_nonneg_ksums,
    is_central,
    ksum,
)
from .partition import (
    baranyai_partition,
    partition_lower_bound_witnesses,
    validate_partition,
)
from .solver import (
    SolverResult,
    exact_A,
    search_upper_bound,
    verify_conjecture_range,
)
from .witness import (
    StageTrace,
    WitnessReport,
    eq2_bound,
    extract_thm1,
    extract_thm2,
)

__all__ = [
    "BoundReport",
    "Configuration",
    "KSubset",
    "NamedConstruction",
    "SolverResult",
    "StageTrace",
    "SubsetFamily",
    "WitnessReport",
    "__version__",
    "baranyai_partition",
    "binomial",
    "counterexample_beats_target",
    "count_nonneg_ksums",
    "eq2_bound",
    "exact_A",
    "extract_thm1",
    "extract_thm2",
    "f_bound_values",
    "is_central",
    "ksum",
    "mirror_config",
    "mms_counterexample",
    "partition_lower_bound_witnesses",
    "propagate_equality",
    "search_upper_bound",
    "star_config",
    "thm1_threshold_check",
    "thm2_stage_check",
    "unimodal_gap_lb",
    "validate_partition",
    "verify_conjecture_range",
]
