"""Miter construction and combinational equivalence checking.

Equivalence checking is the verification backbone of the paper's
Sec. III-D: it validates that locking/camouflaging preserved the
original function (given the right key) and that synthesis rewrites are
sound; and the same miter construction, pointed at an unknown key,
*becomes* the de-obfuscation attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..netlist import Netlist
from .cnf import CircuitEncoder
from .sat import lit, neg


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    counterexample: Optional[Dict[str, int]] = None
    mismatched_output: Optional[str] = None
    solver_stats: Optional[Dict[str, int]] = None


def check_equivalence(left: Netlist, right: Netlist,
                      left_fixed: Optional[Mapping[str, int]] = None,
                      right_fixed: Optional[Mapping[str, int]] = None,
                      ) -> EquivalenceResult:
    """SAT-based combinational equivalence of two netlists.

    Ports match by name.  ``left_fixed``/``right_fixed`` pin selected
    inputs (e.g. key inputs of a locked design) to constants before
    comparing.

    Returns a counterexample input assignment on inequivalence.
    """
    left_fixed = dict(left_fixed or {})
    right_fixed = dict(right_fixed or {})

    enc = CircuitEncoder()
    left_vars = enc.encode(left)
    for net, value in left_fixed.items():
        enc.assert_equal(left_vars[net], value)

    shared_inputs = [
        name for name in left.inputs if name not in left_fixed
    ]
    bind = {name: left_vars[name] for name in shared_inputs}
    right_vars = enc.encode(right, bind=bind)
    for net, value in right_fixed.items():
        enc.assert_equal(right_vars[net], value)

    # Any right inputs not bound and not fixed are free variables, which
    # is an error for a meaningful equivalence query.
    unbound = [
        name for name in right.inputs
        if name not in bind and name not in right_fixed
    ]
    if unbound:
        raise ValueError(f"right-side inputs {unbound[:4]} are unconstrained")

    # One miter query per output, against the single shared encoding:
    # each output's (in)equality is asked under an assumption, so the
    # solver — and every clause it learns about the common fan-in logic
    # — is reused across the whole output list instead of rebuilding
    # one monolithic OR-of-differences formula.  An output whose two
    # sides hashed to the same variable is proven without a query.
    solver = enc.solver
    for out in left.outputs:
        left_var = left_vars[out]
        right_var = right_vars[out]
        if left_var == right_var:
            continue
        diff = enc.xor_of(left_var, right_var)
        if solver.solve(assumptions=[lit(diff)]):
            cex = {
                name: solver.model_value(left_vars[name])
                for name in shared_inputs
            }
            return EquivalenceResult(False, counterexample=cex,
                                     mismatched_output=out,
                                     solver_stats=solver.stats())
        # Proven equal: commit the fact so later outputs build on it.
        solver.add_clause([neg(lit(diff))])
    return EquivalenceResult(True, solver_stats=solver.stats())
