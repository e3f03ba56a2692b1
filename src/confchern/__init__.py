"""Exact symbolic engine for localized equivariant classes of configuration
spaces, their generating series, and limit stability checks."""

from .laurent import (LaurentPoly, RatFunc, UniverseMismatchError, VarUniverse,
                      ZeroDenominatorError)
from .partitions import (SetPartition, coefficient_a,
                         coefficient_a_graph_oracle, enumerate_partitions,
                         enumerate_refinements)
from .classes import (ProjFixedPoint, TorusData, lambda_classes,
                      lambda_ratio, mc_conf_affine, mc_conf_generic, mc_conf_proj_at,
                      mc_conf_proj_recursion, mc_conf_proj_refinement_sum,
                      mc_line_classes, mc_orbit_conf, mc_orbit_full,
                      standard_universe)
from .series import (PoleOrderError, TruncSeries, check_orbit_full_series,
                     check_orbit_series, check_partition_exp_identity,
                     check_point_series, check_point_series_ambient,
                     check_residue_form, orbit_full_series, orbit_series,
                     orbit_series_sides, residue_at, residue_form_factor)
from .limits import (LimitSpec, LimitUndefinedError, WeightedBundleSummand,
                     check_bb_stability, lambda_quotient, limit_lambda_quotient,
                     limit_map)

__version__ = "0.1.0"
