"""Numerical laboratory for Berezin transforms on the Bergman space.

Builds truncated Toeplitz, commutator-defect and Mobius-unitary
operators on the unit disk, evaluates the Berezin transform by
independent routes, and probes boundary-decay compactness indicators
at desk scale.
"""

from .berezin import (BerezinConfig, CommutatorReport, CovarianceCheck,
                      DecayProfile, PathSpec, ProductBerezin, ProfileSample,
                      berezin_of_product, berezin_operator,
                      berezin_symbol_exact, berezin_symbol_quadrature,
                      berezin_symbol_series, commutator_compactness_indicator,
                      covariance_field_check, decay_profile, dyadic_radii,
                      factored_harmonic_invariant_laplacian,
                      fit_operator_from_berezin, harmonic_defect_integral,
                      invariant_laplacian, invariant_laplacian_operator,
                      invariant_laplacian_symbol,
                      laplacian_berezin_at_zero_symbol, localization_norm,
                      mean_value_transform, operator_tail_bound)
from .diskgeom import DiskDomainError, disk_gap, disk_value, mobius_eval
from .operators import (TruncatedOperator, analytic_commutator_defect,
                        covariant_toeplitz, toeplitz_exact,
                        toeplitz_quadrature, unitary_uz)
from .quadrature import (DiskQuadrature, QuadratureWarning, build_rule,
                         monomial_moment)
from .symbols import (BlaschkeProduct, HarmonicProductKind, MonomialSymbol,
                      ProductClassification, classify_harmonic_product,
                      parse_blaschke_zeros, parse_complex)

__version__ = "0.1.0"
