"""Numerical toolkit for Casorati-curvature invariants of immersed submanifolds.

The names below are loaded lazily (PEP 562): each top-level name, and each
submodule reached as an attribute, imports its submodule on first use. So
`import casorati` alone loads no numpy, which lets the command line
(`casorati.cli`) choose numpy's BLAS thread count before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

# The catalog chart names, here rather than in `casorati.immersions`, which
# builds the charts, so that the command line offers them as `--chart`
# choices without loading the chart layer.
CATALOG_NAMES = ("hypersphere", "chen_ideal", "flat_torus", "paraboloid")

_SUBMODULE_EXPORTS = {
    "elliptic": (
        "EllipticTriple", "QuadratureError", "QuadratureResult", "complete_K",
        "integrate", "jacobi_elliptic", "jacobi_sd", "sd_squared_integral"),
    "geometry": (
        "FramedPoint", "RiemannTensor", "frame_at", "gauss_residual",
        "intrinsic_riemann", "intrinsic_tau", "second_form"),
    "immersions": (
        "BoundaryProximityError", "Chart", "DomainError",
        "IllConditionedPointError", "Jet2", "domain_check", "jet2",
        "make_chart"),
    "invariants": (
        "HyperplaneExtremum", "IdealClassification", "InvariantReport",
        "QPSolution", "SecondForm", "casorati_hyperplane", "casorati_total",
        "classify_ideal", "extremize_hyperplane", "inequality_report",
        "inequality_reports", "oprea_qp", "proof_polynomial", "ricci_values",
        "tau_from_h", "weyl_norm"),
}
# Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items()
            for name in names}

__all__ = ["CATALOG_NAMES", *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULE_EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_SUBMODULE_EXPORTS, *_EXPORTS})
