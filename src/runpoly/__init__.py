"""Exact enumeration of permutations by run count.

P(n, s) counts the permutations of {1, ..., n} with exactly s maximal
monotone segments.  The package computes it four independent ways (exhaustive
enumeration, a three-term recurrence, an explicit closed form, and rational
generating functions), builds the polynomial families behind the last two,
and cross-verifies everything in exact rational arithmetic.

The names below are the public entry points; everything else is reached
through its module (runpoly.closedform, runpoly.genfun, ...).
"""

from .bruteforce import brute_triangle, count_runs
from .closedform import closed_triangle, p_closed_form, psi_polys
from .genfun import phi_s_poly, series_triangle, u_s_series
from .poly import BivariatePolynomial, Polynomial, TruncatedSeries
from .triangle import RunCountTriangle, build_triangle
from .verification import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "BivariatePolynomial",
    "CheckResult",
    "Polynomial",
    "RunCountTriangle",
    "TruncatedSeries",
    "brute_triangle",
    "build_triangle",
    "closed_triangle",
    "count_runs",
    "p_closed_form",
    "phi_s_poly",
    "psi_polys",
    "run_verification",
    "series_triangle",
    "u_s_series",
]
