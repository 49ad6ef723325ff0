"""Bifurcation analysis of heteroclinic contours in planar vector fields.

Submodules:
    affine        exact affine coefficients, polynomials and the one parser
    vectorfield   parametric polynomial systems and the built-in examples
    integrate     event-located adaptive integration and cross-sections
    equilibria    saddle data, indices, contour subcase classification
    manifolds     one-dimensional invariant-manifold branches
    connections   splitting gaps of saddle connections, winding counts
    continuation  pseudo-arclength curve tracing, codim-2 points, flashing
    cycles        return maps, limit cycles, multipliers
    modelmap      truncated one-dimensional model maps and their diagrams
    melnikov      first-order splitting integrals with sign certificates
    synthesis     exact tangency-based synthesis of polynomial families
    roots         Brent's root finder and the grid scan that feeds it
    diagrams      named contour scenarios and diagram assembly
    cli           command-line front end with CSV/JSON/SVG artifacts
"""
from . import (affine, connections, continuation, cycles, diagrams,
               equilibria, errors, integrate, manifolds, melnikov, modelmap,
               synthesis, vectorfield)

__version__ = "0.1.0"

__all__ = [
    "affine", "connections", "continuation", "cycles", "diagrams",
    "equilibria", "errors", "integrate", "manifolds", "melnikov",
    "modelmap", "synthesis", "vectorfield", "__version__",
]
