"""Computable fractal structure of polar and Reed-Muller index sets."""

from .codes import (GeneratorMatrix, IndexSet, generator_matrix,
                    heavy_membership, kronecker_row, polar_index_set,
                    rm_index_set)
from .errors import ResourceLimitError, TrivialPeriodError
from .expansions import (ExpansionSpec, Variant, expansion_to_real, is_dyadic,
                         parse_rational, real_to_expansion)
from .fractal import (MeasureEstimate, SelfsimViolation, WalkStats,
                      binary_entropy, cell_bounds, cell_shift_pair,
                      crossing_cdf_bound, crossing_count_closed_form,
                      entropy_count, feller_identity_table, measure_scan,
                      selfsim_check, walk_distribution,
                      walk_min_nonnegative_fraction)
from .polarization import apply_path, bec_leaf_counts, bec_leaf_values
from .thresholds import (FixedPointReport, ThresholdResult,
                         period_fixed_points, threshold_curve,
                         threshold_estimate_batch, threshold_of_rational)

__version__ = "0.1.0"
