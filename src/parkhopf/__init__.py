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

Importing the package loads no submodule: each name in `__all__` is
imported from its module on first use, so `python -m parkhopf.cli` loads
only what its command runs.
"""
from __future__ import annotations

from importlib import import_module

# submodule -> the names the package exports from it
_EXPORTS = {
    "linear": ("Lin", "dual_pairing", "lin_sum", "tensor"),
    "words": ("is_parking", "parking_functions", "parkize",
              "prime_parking_functions", "standardize"),
    "fbasis": ("f_antipode", "f_coproduct", "f_mul", "f_product"),
    "gbasis": ("g_coproduct", "g_mul", "g_product"),
    "catalan": ("m_product", "p_coproduct", "p_product", "ribbon_mul"),
    "schroder": ("hypo_key", "pq_coproduct", "pq_product"),
    "symfun": ("cumulants_to_moments", "moments_to_cumulants"),
    "matrices": ("matrix_parkize", "mp_coproduct", "mp_product", "reading"),
}
_HOME = {name: short for short, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
