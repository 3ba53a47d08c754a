"""Symbolic computation for path algebras KE and Leavitt path algebras L_K(E).

The package computes canonical normal forms under the Cuntz-Krieger
relations, decides the graph-theoretic structure criteria (semiprimeness,
line points, essential socle), constructs quotient and restriction graphs,
produces explicit matrix-algebra decompositions with group inverses, and
realizes the algebraic Toeplitz algebra with its exact sequence and
row-and-column-finite matrix picture.
"""

__version__ = "0.1.0"

from .algebra import (
    Element,
    Monomial,
    basis_monomials_up_to,
    full_basis,
    homogeneous_components,
    is_in_path_algebra,
    paths_up_to,
)
from .errors import (
    DuplicateIdentifier,
    ExpressionSyntaxError,
    GraphMismatch,
    GraphSyntaxError,
    LeavittError,
    LimitExceeded,
    NotFoundWithinBounds,
    NotGroupInvertible,
    NotSquareCancellable,
    PreconditionError,
    UnknownIdentifier,
)
from .expressions import format_element, format_monomial, parse_element
from .fields import GF, QQ, field_from_name
from .graph import (
    Cycle,
    Graph,
    Path,
    VertexSet,
    Walk,
    analyzer_report,
    bifurcations,
    comb_graph,
    connected_components,
    connects_to,
    cycle_has_exit,
    cycles,
    hereditary_saturated_closure,
    is_acyclic,
    is_acyclic_no_bifurcation,
    is_hereditary,
    is_path_algebra_semiprime,
    is_saturated,
    ladder_graph,
    line_graph,
    line_points,
    parse_graph,
    single_loop_graph,
    socle_is_essential,
    tree,
    tree_of_set,
    walk_between,
)
from .matrices import BlockMatrix, Matrix
from .quotients import (
    RestrictionGraph,
    denominator_search,
    in_graded_ideal,
    in_socle,
    quotient_graph,
    quotient_morphism,
    restriction_embedding,
    restriction_graph,
    right_denominator,
    socle_quotient,
)
from .semisimple import (
    MatrixDecomposition,
    element_group_inverse,
    find_fg_witness,
    from_matrix,
    is_square_cancellable,
    matrix_decomposition,
    reduced_expression,
    reduced_monomial_basis,
    to_matrix,
    verify_fg_witness,
)
from .toeplitz import (
    LaurentPoly,
    MatrixWindow,
    ToeplitzDecomposition,
    build_toeplitz_family,
    exact_sequence_report,
    laurent_quotient,
    rcfm_representation,
    recognize_toeplitz,
    sandwich_report,
    socle_module_element,
    toeplitz_graph,
)
