"""Formal engines: CDCL SAT, Tseitin encoding, equivalence, properties."""

from .sat import (
    Solver,
    lit,
    neg,
    var_of,
    UNASSIGNED,
)
from .cnf import CircuitEncoder, solve_circuit
from .equivalence import EquivalenceResult, check_equivalence
from .glift import FlowResult, prove_no_flow
from .properties import PropertyResult, prove_output_constant

__all__ = [
    "Solver", "lit", "neg", "var_of", "UNASSIGNED",
    "CircuitEncoder", "solve_circuit",
    "EquivalenceResult", "check_equivalence",
    "FlowResult", "prove_no_flow",
    "PropertyResult", "prove_output_constant",
]
