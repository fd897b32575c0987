"""chebgap: extremal polynomials on gapped subsets of [-1, 1].

Computes two-interval Green functions by adaptive elliptic-integral
quadrature, the Remez/Akhiezer upper envelope with its switching structure,
and finite-degree extremal values via a semi-infinite LP oracle with
exchange refinement, plus experiment drivers tying the finite-degree values
to their asymptotic growth rates.
"""

__version__ = "0.1.0"

from .andrievskii import (
    AndrievskiiResult,
    BruteForceReport,
    ResidualSeries,
    L_n_delta,
    brute_force_theorem1,
    residual_tail_slope,
    totik_widom_residuals,
)
from .chebyshev import akhiezer_even_value, cheb_T, remez_constant, remez_poly_value
from .envelope import (
    DiagramResult,
    DiagramRow,
    EnvelopePoint,
    akhiezer_curve,
    delta_star,
    diagram,
    diagram_to_csv,
    diagram_to_json,
    switching_point,
    upper_envelope,
    x0_of_alpha,
    x_star,
)
from .errors import ConsistencyError, DomainError, QuadratureError, SolverError
from .extremal import (
    ExtremalResult,
    FeasibilityReport,
    n_extension,
    solve_extremal,
    verify_feasibility,
)
from .green import (
    GreenEval,
    c_dot,
    critical_point_c,
    dalpha_green,
    green_eval,
    green_single_interval,
    green_two_interval,
)
from .intervals import (
    CompactSet,
    GapParams,
    Interval,
    discretize,
    make_gap_set,
    random_multigap_set,
)

__all__ = [
    "AndrievskiiResult", "BruteForceReport",
    "ResidualSeries", "L_n_delta", "brute_force_theorem1",
    "residual_tail_slope", "totik_widom_residuals",
    "akhiezer_even_value", "cheb_T", "remez_constant", "remez_poly_value",
    "DiagramResult", "DiagramRow", "EnvelopePoint",
    "akhiezer_curve", "delta_star", "diagram", "diagram_to_csv",
    "diagram_to_json", "switching_point", "upper_envelope", "x0_of_alpha",
    "x_star",
    "ConsistencyError", "DomainError", "QuadratureError", "SolverError",
    "ExtremalResult", "FeasibilityReport", "n_extension",
    "solve_extremal", "verify_feasibility",
    "GreenEval", "c_dot", "critical_point_c",
    "dalpha_green", "green_eval", "green_single_interval",
    "green_two_interval",
    "CompactSet", "GapParams", "Interval", "discretize", "make_gap_set",
    "random_multigap_set",
]
