"""Invariants and equivalence decisions for one-sided topological Markov shifts.

The package computes the complete invariant (Bowen-Franks group with its
distinguished all-ones class and the sign of det(id - A)) of irreducible
shifts of finite type, decides continuous orbit equivalence and flow
equivalence, realizes any admissible invariant triple as an explicit 0/1
matrix, and decides positivity of ordered-cohomology classes through
periodic orbits.
"""

from .cohomology import (
    LocallyConstantFn,
    PositivityResult,
    is_positive_class,
    orbit_sum,
)
from .errors import (
    DomainError,
    InadmissibleWordError,
    MarkovShiftError,
    ParseError,
    PreconditionError,
    ShapeError,
    UndecidedError,
    VerificationError,
)
from .groups import (
    FgAbelianGroup,
    GroupElement,
    PointedGroup,
    from_presentation,
    pointed_is_isomorphic,
    tensor_z2,
)
from .intmat import IntMatrix, SnfResult, determinant, smith_normal_form
from .invariants import (
    EquivalenceDecision,
    MarkovInvariant,
    decide_coe,
    decide_flow,
    full_group_abelianization,
    invariant_triple,
)
from .realization import RealizationPlan, base_matrix, choose_shape, point_vector, realize, tail_extension
from .shifts import (
    Diagnostics,
    NonNegMatrix,
    ZeroOneMatrix,
    admissible_words,
    count_period_points,
    edge_shift,
    higher_block,
    is_cyclically_admissible,
    is_irreducible,
    lex_min_rotation,
    out_split,
    periodic_orbit_words,
    relation_matrix,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
