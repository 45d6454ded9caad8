"""esum-lab: finite-scale constructions for sequence-lattice normed sums.

Submodules:

  lattice      solid norm families, indicator norms, the uniformity constant
  esum         finite-dimensional algebras and their lattice-normed sums
  gamma        projective tensor norm brackets of pointwise diagonals
  jsum         conditional chain sums, their norm and multiplication bounds
  derivations  derivation spaces, weak amenability decisions and constants
  verify       the deterministic desk-scale verification suite
"""

from .lattice import (
    CeReport,
    LatticeNormSpec,
    OrliczFunction,
    ce_constant,
    chi_norm,
    delta_norm,
    generalized_inverse,
    lp_norm,
    norm_eval,
    orlicz_norm,
    restrict_spec,
    spec_from_dict,
    sup_norm,
    weighted_sup,
)
from .esum import (
    ESumAlgebra,
    EuclideanCoordinate,
    FiniteAlgebra,
    MatrixOperatorNorm,
    MaxAbsCoordinate,
    coordinate_embedding,
    coordinate_projection,
    embedding_norm,
    matrix_units_algebra,
    pointwise_algebra,
    projection_norm,
    scalar_algebra,
    square_zero_algebra,
    truncate,
    unit_and_bai_bound_check,
)
from .gamma import (
    NormBracket,
    am_pointwise,
    verify_main_theorem,
    verify_quotient_bound,
)
from .jsum import (
    JElement,
    JSystem,
    bimonotone_check,
    jmul,
    jnorm,
    jnorm_bruteforce,
    omega_seminorm,
    omega_submult_check,
    rho,
    sigma,
)
from .derivations import (
    DerivationSpaceReport,
    derivation_space,
    esum_wa_check,
    is_weakly_amenable,
    lp_obstruction_demo,
    wam_bracket,
)
from .verify import emit_tables, verify_all

__version__ = "0.1.0"
