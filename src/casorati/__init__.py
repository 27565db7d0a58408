"""Numerical toolkit for Casorati-curvature invariants of immersed submanifolds."""

from .elliptic import (
    EllipticTriple,
    QuadratureError,
    QuadratureResult,
    complete_K,
    integrate,
    jacobi_elliptic,
    jacobi_sd,
    sd_squared_integral,
)
from .geometry import (
    FramedPoint,
    RiemannTensor,
    SecondForm,
    frame_at,
    gauss_residual,
    intrinsic_riemann,
    intrinsic_tau,
    second_form,
)
from .immersions import (
    CATALOG_NAMES,
    BoundaryProximityError,
    Chart,
    DomainError,
    IllConditionedPointError,
    Jet2,
    domain_check,
    jet2,
    make_chart,
)
from .invariants import (
    HyperplaneExtremum,
    IdealClassification,
    InvariantReport,
    QPSolution,
    casorati_hyperplane,
    casorati_total,
    classify_ideal,
    delta_curvatures,
    einstein_residual,
    extremize_hyperplane,
    inequality_report,
    inequality_reports,
    oprea_qp,
    proof_polynomial,
    ricci_values,
    tau_from_h,
    tau_subspace,
    weyl_norm,
)

__version__ = "0.1.0"
