"""Certificates of boundedness and compactness for Toeplitz operators with
Gaussian symbols on Bargmann spaces of entire functions.

The package classifies Top(e^q) on H_Phi as unbounded, bounded, or
compact by four mutually validating routes: positivity of the attached
complex canonical transformation, the sign of the Weyl-symbol exponent,
growth of the operator on coherent states, and a closed-form solvable
family; a quadrature oracle provides brute-force evidence at small
dimension.
"""

from .errors import (
    DegeneratePhase,
    DisagreementError,
    InadmissibleProblem,
    NotAbsolutelyConvergent,
    NumericalFailure,
    ProblemFileError,
    QuadratureDivergence,
    ResolventSingular,
    SingularSystem,
)
from .forms import (
    Admissibility,
    ComplexQuadraticForm,
    PolarizedForm,
    Weight,
    check_admissible,
    check_polar_nondegenerate,
    classification_tolerance,
    polarize,
)
from .symplectic import (
    AntilinearInvolution,
    LinearCanonicalMap,
    PhasePoint,
    PositivityCertificate,
    QuadraticPhase,
    canonical_from_phase,
    graph_point,
    involution_for_weight,
    pluriharmonic_shear,
    positivity_certificate,
    symplectic_product,
)
from .toeplitz import (
    SubVerdict,
    ToeplitzProblem,
    Verdict,
    VerdictClass,
    classify_operator,
)
from .weyl import WeylSymbol, classify_symbol, weyl_symbol
from .bergman import (
    BergmanForm,
    CriticalSystem,
    bergman_exponent,
    coherent_overlap,
    critical_system,
    growth_exponent,
)
from .model import (
    ModelInstance,
    classify_model,
    closed_form_map,
    detect_model,
    model_problem,
    positivity_coefficients,
)
from .oracle import (
    TruncatedOperator,
    numeric_coherent_norm,
    numeric_weyl,
    norm_trend,
    singular_decay,
    truncated_matrix,
)
from .verify import build_phase, canonical_map, coherent_route_map

__version__ = "0.1.0"
