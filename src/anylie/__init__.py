"""anylie: exact computations with Z/n-graded braided Lie algebras.

The kernel represents an algebra by sparse structure constants over the
cyclotomic field Q(zeta_m), verifies the compatibility axioms exactly,
presents the enveloping algebra by quasi-commutation relations with a
terminating rewrite system, builds the standard example families, and
implements the calculus of the one-dimensional braided line C[t]/t^n.
"""

from .algebra import (AlgebraSpec, AxiomReport, SpecFormatError, UnverifiedSpecError,
                      check_antisymmetry_info, check_bracket_counit, check_braided_jacobi,
                      check_coalgebra, check_cocommutation, check_delta_bracket,
                      check_grading, verify_all)
from .constructions import build_ansatz, build_matrix_type, check_ansatz_reduction
from .cyclotomic import CycNum, cyclotomic_polynomial, q_binomial, q_integer, root_of_unity
from .envelope import (CompletionError, NCPoly, RewriteSystem, TensorSquarePoly,
                       build_rewrite_system, counit_on_poly, delta_on_products,
                       generate_relations, is_grouplike, quotient_by_central_grouplike)
from .grading import Bicharacter, GradingGroup

__version__ = "0.1.0"
