"""
bkl4: the dual (Birman-Ko-Lee) Garside structure on the 4-strand braid group.

Normal forms and arithmetic, cyclic sliding, sliding circuits, and a solver
for the conjugacy decision and search problem, plus an independent classical
(permutation-braid) cross-check and a command line interface.
"""

from __future__ import annotations

from bkl4.circuits import (
    CapExceededError,
    Orbit,
    QuotientGraph,
    SCSet,
    circuit_graph,
    compute_sc,
    quotient_graph,
)
from bkl4.engine import (
    IDENTITY,
    GarsideBraid,
    Invariants,
    braid_from_factors,
    braid_from_letters,
    conjugate,
    invariants,
    invert,
    multiply,
    normalize_factors,
    power,
    tau_braid,
)
from bkl4.simples import (
    ATOMS,
    PROPER_SIMPLES,
    SIMPLE_NAMES,
    Simple,
    self_check,
)
from bkl4.sliding import (
    SlidingTrajectory,
    is_rigid,
    slide_to_circuit,
)
from bkl4.solver import (
    CONJUGATE,
    INCONCLUSIVE,
    NOT_CONJUGATE,
    ConjugacyCertificate,
    SolverDecision,
    is_periodic,
    power_to_rigid,
    solve_conjugacy,
    verify_certificate,
)
from bkl4.words import (
    ParseError,
    beta_word,
    format_braid,
    format_braid_compact,
    parse_braid,
    parse_word,
)

__all__ = [
    # simples
    "ATOMS",
    "PROPER_SIMPLES",
    "SIMPLE_NAMES",
    "Simple",
    "self_check",
    # engine
    "IDENTITY",
    "GarsideBraid",
    "Invariants",
    "braid_from_factors",
    "braid_from_letters",
    "conjugate",
    "invariants",
    "invert",
    "multiply",
    "normalize_factors",
    "power",
    "tau_braid",
    # words
    "ParseError",
    "beta_word",
    "format_braid",
    "format_braid_compact",
    "parse_braid",
    "parse_word",
    # sliding
    "SlidingTrajectory",
    "is_rigid",
    "slide_to_circuit",
    # circuits
    "CapExceededError",
    "Orbit",
    "QuotientGraph",
    "SCSet",
    "circuit_graph",
    "compute_sc",
    "quotient_graph",
    # solver
    "CONJUGATE",
    "INCONCLUSIVE",
    "NOT_CONJUGATE",
    "ConjugacyCertificate",
    "SolverDecision",
    "is_periodic",
    "power_to_rigid",
    "solve_conjugacy",
    "verify_certificate",
]
