"""flab: exact computation in finite affine geometry.

Furstenberg-set verification and extremal search, the polynomial method
with multiplicities, min-entropy projection bounds, and point-flat
incidence estimates, all in exact integer/rational arithmetic.
"""

from .errors import FlabError
from .gf import field_build, base_vector_iso, ExtensionField, PrimeField
from .geometry import (Flat, PointSet, Subspace, enumerate_flats,
                       enumerate_subspaces, flat_points, qbinomial, rref, span)
from .polymethod import (Polynomial, find_vanishing_poly, hasse_derivative,
                         multiplicity, sz_mult_audit)
from .entropy import (RationalDistribution, ab_constants, best_projection,
                      check_entropic_bound, check_recursion, min_entropy,
                      norm_bound_check, pushforward)
from .furstenberg import (FurstenbergInstance, bound_table, is_furstenberg,
                          lift_construction, search_extremal,
                          trivial_construction)
from .incidence import (FlatFamily, count_incidences, haemers_check,
                        heavy_flats_lower_bound, kakeya_becks_census,
                        poor_flat_census, contained_subflats)

__version__ = "0.1.0"
