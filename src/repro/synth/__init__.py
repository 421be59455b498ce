"""Logic synthesis: rewrite functions, restructuring, technology mapping.

The rewrites mutate a netlist in place and return their rewrite count;
the flow's registered passes (:mod:`repro.flow.library`) are what run
them, one per pass or all five in the ``synthesis`` pass.
"""

from .passes import (
    buffer_sweep,
    constant_propagation,
    dead_gate_sweep,
    double_inversion_elimination,
    structural_hashing,
)
from .restructure import (
    XorTree,
    balance_trees,
    collect_trees,
    reassociate_for_timing,
)
from .library import (
    Cell,
    CellLibrary,
    nand_inv_library,
    standard_library,
)
from .techmap import decompose_variadic, map_to_library, to_nand_inv

__all__ = [
    "buffer_sweep", "constant_propagation", "dead_gate_sweep",
    "double_inversion_elimination", "structural_hashing",
    "XorTree", "balance_trees", "collect_trees", "reassociate_for_timing",
    "Cell", "CellLibrary", "nand_inv_library", "standard_library",
    "decompose_variadic", "map_to_library", "to_nand_inv",
]
