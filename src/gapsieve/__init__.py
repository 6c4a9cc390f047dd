"""Sieve machinery for locating two primes in short windows.

Submodules: primes (segmented sieve, exact log sums), tuples (admissible
offset tuples), singular (density constants), weights (truncated divisor
sums), moments (moment sums, detector, threshold algebra), bv (distribution
level probe), cli (command line).
"""

# before the submodule imports, so that any of them can read it
__version__ = "0.1.0"

from .bv import BvDeviationTable, GridSpec, bv_deviation, supported_theta
from .moments import (
    DetectorReport,
    MomentReport,
    SieveParams,
    ThresholdReport,
    double_sum_exact_counts,
    gap_bound,
    two_primes_detector,
    pure_moment,
    threshold,
    twisted_moment,
)
from .primes import primes_in
from .singular import SingularSeriesValue, gallagher_average, singular_series
from .tuples import (
    SEPTUPLE_OFFSETS,
    TWIN_OFFSETS,
    OffsetTuple,
    enumerate_tuples,
    extend,
    is_admissible,
)
from .weights import WeightBlock, WeightParams, lambda_block

__all__ = [
    "BvDeviationTable",
    "DetectorReport",
    "GridSpec",
    "MomentReport",
    "OffsetTuple",
    "SEPTUPLE_OFFSETS",
    "SieveParams",
    "SingularSeriesValue",
    "ThresholdReport",
    "TWIN_OFFSETS",
    "WeightBlock",
    "WeightParams",
    "bv_deviation",
    "double_sum_exact_counts",
    "enumerate_tuples",
    "extend",
    "gallagher_average",
    "gap_bound",
    "two_primes_detector",
    "is_admissible",
    "lambda_block",
    "primes_in",
    "pure_moment",
    "singular_series",
    "supported_theta",
    "threshold",
    "twisted_moment",
]
