"""Numerical root surfaces over discretized compact bases, with decision
procedures for extending endomorphisms to the surface algebra and to the
polynomial (Arens-Hoffman) subalgebra."""

from ._kernels import BACKEND as kernel_backend
from .base import (BaseSpace, SelfMap, identity_selfmap, make_circle, make_graph,
                   make_interval, make_torus2, sample_selfmap)
from .bundle import (MonicPolynomial, RootBundle, Tolerances, build_bundle,
                     is_admissible, poly_from_exprs, poly_from_roots,
                     poly_from_values, pullback, pullback_polynomial, solve_fiber)
from .closedness import (GraphReport, closedness_report, contains_circle,
                         has_root, trivial_bundle)
from .extend import (FitResult, LiftProblem, LiftWitness, Verdict, ah_extendable,
                     ah_fit, cole_extendable, divided_quotient_test, validate_witness)
from .funcspec import SampledFunction, evaluate, parse
from .monodromy import StripDecomposition, components, loop_monodromy, strips

__version__ = "0.1.0"

__all__ = [
    "BaseSpace", "SelfMap", "identity_selfmap", "make_circle",
    "make_graph", "make_interval", "make_torus2", "sample_selfmap",
    "MonicPolynomial", "RootBundle", "Tolerances", "build_bundle",
    "is_admissible", "poly_from_exprs", "poly_from_roots", "poly_from_values",
    "pullback", "pullback_polynomial", "solve_fiber",
    "GraphReport", "closedness_report", "contains_circle", "has_root",
    "trivial_bundle",
    "FitResult", "LiftProblem", "LiftWitness", "Verdict", "ah_extendable",
    "ah_fit", "cole_extendable", "divided_quotient_test", "validate_witness",
    "SampledFunction", "evaluate", "parse",
    "StripDecomposition", "components", "loop_monodromy", "strips",
    "kernel_backend",
]
