"""Exact combinatorial Hopf algebras on parking functions.

Submodules:
  words     parking-function combinatorics (parkization, primes, orders)
  linear    free modules over Q with exact rational coefficients
  series    the free moment-cumulant recurrence over any ring
  fbasis    the fundamental basis of the parking Hopf algebra
  gbasis    the dual algebra (convolution product, breakpoint coproduct)
  catalan   nondecreasing subalgebra and its graded dual, ribbons, g-series
  schroder  hypoplactic subquotient on evaluation/recoil classes
  symfun    symmetric and quasi-symmetric functions, cumulants
  matrices  the packed (0,1)-matrix realization
  algebras  the seven bases described once: parsers, structure maps, labels
  verify    replay/invariant suites and the acceptance gates
  cli       command-line entry point
"""
from __future__ import annotations

from .linear import Lin, dual_pairing, lin_sum, tensor
from .words import (is_parking, parking_functions, parkize,
                    prime_parking_functions, standardize)
from .fbasis import f_antipode, f_coproduct, f_mul, f_product
from .gbasis import g_coproduct, g_mul, g_product
from .catalan import m_product, p_coproduct, p_product, ribbon_mul
from .schroder import hypo_key, pq_coproduct, pq_product
from .symfun import cumulants_to_moments, moments_to_cumulants
from .matrices import matrix_parkize, mp_coproduct, mp_product, reading

__all__ = [
    "Lin", "dual_pairing", "lin_sum", "tensor",
    "is_parking", "parking_functions", "parkize",
    "prime_parking_functions", "standardize",
    "f_antipode", "f_coproduct", "f_mul", "f_product",
    "g_coproduct", "g_mul", "g_product",
    "m_product", "p_coproduct", "p_product", "ribbon_mul",
    "hypo_key", "pq_coproduct", "pq_product",
    "cumulants_to_moments", "moments_to_cumulants",
    "matrix_parkize", "mp_coproduct", "mp_product", "reading",
]

__version__ = "0.1.0"
