"""Exact workbench for generic tropical initial ideals of graded algebras."""

from .fields import QQ, FieldError, GFElement, PrimeField, field_from_name
from .orders import GREVLEX, LEX, MonomialOrder
from .polynomials import (ParseError, Polynomial, Ring, RingMismatchError,
                          default_ring, monomials_of_degree, parse_polynomial,
                          weight_value)
from .hilbert import HilbertSeries
from .groebner import (GroebnerBasis, Ideal, NonHomogeneousError,
                       buchberger_reduced, contains_monomial, eliminate,
                       hilbert_series_quotient, ideal_membership,
                       initial_ideal, krull_dimension, normal_form,
                       radical_membership)
from .fan import (ConeCA, cone_contains, enumerate_generic_fan, epsilon_vector,
                  sample_interior, trop_membership)
from .quasival import (INFINITY, ConeShareError, Quasivaluation, adic_order,
                       oplus_in_cone, scale, standard_basis_slice)
from .generic import apply_change, genericity_audit, random_gl
from .theorems import (cm_fan_audit, primeness_check, radicality_spot_check,
                       verify_epsilon_facts, verify_gr_presentation,
                       verify_initial_formula, verify_iterated_initial,
                       verify_quasival_decomposition, verify_weight_sum,
                       well_poised_check)
from .ideal_io import (IdealFileError, load_ideal_file, parse_ideal_text,
                       parse_subset, parse_weight, save_ideal_file)

__version__ = "0.1.0"
