"""supcompare: expected suprema of canonical processes over finite index
sets, smoothed-max and Gibbs-measure machinery, Ornstein-Uhlenbeck operator
identities, and empirical checks of dimension-free comparison bounds."""

# the one version string; pyproject.toml reads it from here
__version__ = "0.1.0"

from .index_sets import (IndexSet, GeometricProfile, build_explicit,
                         make_basis_family, make_diagonal_cube,
                         make_spin_quadratic, make_spin_tensor,
                         geometric_profile, save_csv, load_csv, dedupe,
                         sign_patterns)
from .distributions import (CoordinateDistribution, RandomStream,
                            MomentCheckReport, DEFAULT_SEED, rademacher,
                            gaussian, uniform_symmetric, laplace,
                            scaled_rademacher, two_point, from_name,
                            empirical_moment_check)
from .softmax import (WeightedMeasure, log_partition,
                      sandwich_gap, gibbs_measure, gibbs_weights,
                      gibbs_moment, log_partition_grad,
                      log_partition_partial, derivative_bound_check,
                      log_laplace, tilted_measure, uniform_measure,
                      lipschitz_log_moment_check, uniform_identity_gap,
                      collapse_weight, gibbs_weight_rows)
from .ou_stein import (Polynomial, SoftmaxFunction, OperatorEstimate,
                       PoissonReport, SteinReport, HypothesisViolation,
                       ou_apply, ou_potential, potential_partial,
                       poisson_identity_check, stein_representation_check,
                       semigroup_check, ergodic_check)
from .estimator import (SupremumEstimate, estimate_complexity,
                        exact_rademacher_complexity, softmax_complexity,
                        paired_gap_estimate)
from .bounds import (BoundProfile, ComparisonReport, SudakovReport,
                     bound_profile, regime_flags, phase_curve_table,
                     auto_beta, error_report, sudakov_check)
from .experiments import (ExperimentResult, heavy_tail_growth,
                          spin_glass_universality, tensor_universality,
                          TENSOR_GAUSS_BAND)
