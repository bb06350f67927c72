"""abellab: exact-arithmetic study of parametric centers of the Abel
equation y' = p(x) y^3 + q(x) y^2 on an interval.

Everything is computed over Q or a single real quadratic extension
Q(sqrt(D)); there is no floating point in the core.
"""

from .field import Scalar, ZERO, ONE, sqrtD, rational, parse_scalar, format_scalar
from .linalg import kernel_basis, rank, solve, span_rref
from .poly import (
    Interval,
    PCPair,
    Poly,
    chebyshev,
    definite_integral,
    exponent_condition,
    in_subring,
)
from .decomp import (
    FactorSet,
    StructureReport,
    Witness,
    cc_check,
    indecomposable_factors,
    is_chebyshev_conjugate,
    is_definite,
    right_factors,
    structure_report,
)
from .center import (
    BACKWARD,
    DELTA_ON_P,
    EPS_ON_Q,
    FORWARD,
    CenterTable,
    InfinitesimalOrder,
    first_order_column,
    infinitesimal_order,
    invert_series,
    iterated_integral,
    melnikov,
    parametric_table,
    poincare_coeffs,
    tabulated_coefficient,
)
from .moments import (
    MomentMatrix,
    ParametricStructureReport,
    chebyshev_zero_space_dim,
    composition_sum_space,
    double_moments_vanish,
    in_zero_space_of,
    moment,
    moment_matrix,
    parametric_structure_report,
    pspace_basis,
    zero_space,
    zero_space_matches_compositions,
)
from .trig import (
    PiScalar,
    TrigPoly,
    build_family,
    first_moments_vanish,
    modify_family,
    non_cc_certificate,
    trig_diff,
    trig_integral,
    trig_moment,
    trig_mul,
)

__version__ = "0.1.0"
