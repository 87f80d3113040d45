"""Exact hazard-free two-level minimization (Nowick/Dill '95, Fuhrer/Lin/
Nowick '95 flow) — the comparator of the paper's Figure 8 table.

Three stages, each with exponential worst-case behaviour (paper §5):

1. generate **all prime implicants** (:mod:`repro.espresso.primes`),
2. transform them into **dhf-prime implicants**
   (:mod:`repro.exact.dhf_primes`),
3. solve the required-cube / dhf-prime **covering problem** with MINCOV
   (:mod:`repro.mincov`).

Each stage can be budgeted; exceeding a budget reproduces the paper's
"could not be solved by the exact minimizer" outcomes.
"""

from repro.exact.dhf_primes import all_dhf_primes, DhfTransformExplosionError
from repro.exact.minimizer import (
    exact_hazard_free_minimize,
    ExactHFResult,
    ExactBudget,
    ExactFailure,
)

__all__ = [
    "all_dhf_primes",
    "DhfTransformExplosionError",
    "exact_hazard_free_minimize",
    "ExactHFResult",
    "ExactBudget",
    "ExactFailure",
]
