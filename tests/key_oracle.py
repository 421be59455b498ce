"""Independent check of a recovered key: exhaustive simulation, no SAT.

``verify_recovered_key`` proves keys with SAT equivalence on the same
encoder the attack uses, so the SAT-attack tests also check every key
by its truth tables.
"""

from repro.ip import apply_key
from repro.netlist import exhaustive_truth_table


def key_is_correct(locked, key) -> bool:
    """True when ``key`` computes the designer's function on every input."""
    truth = apply_key(locked)
    candidate = apply_key(locked, dict(key))
    return all(exhaustive_truth_table(candidate, out)
               == exhaustive_truth_table(truth, out)
               for out in truth.outputs)
