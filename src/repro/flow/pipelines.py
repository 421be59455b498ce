"""Stock pipelines: the classical and secure flows as pass sequences.

Fig. 1 runs as ``PassManager(seed).run(netlist_design(...),
classical_pipeline(...))``; :class:`repro.core.SecureFlow` compiles its
requirements into checkers and goals and runs :func:`secure_pipeline`.
The flows *are* pipelines, and everything they do is in the resulting
:class:`~repro.flow.manager.FlowTrace`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..core.composition import Design
from ..netlist import Netlist, random_stimulus
from .library import (
    AtpgPass,
    FunctionalValidationPass,
    PlacementPass,
    SecureSynthesisPass,
    StaSignoffPass,
    SynthesisStagePass,
)
from .passes import Pass, PassResult, conservative


def netlist_design(netlist: Netlist, name: Optional[str] = None,
                   seed: int = 0) -> Design:
    """Wrap a bare netlist as a Design with generic TVLA classes.

    For flows that never run leakage checks (the classical pipeline)
    the classes are irrelevant; for quick experiments, "fixed" pins
    every input to the seed-derived constant and "random" draws fresh
    bits per trace, one ``getrandbits(n)`` column per input.
    """
    inputs = list(netlist.inputs)
    pinned = random.Random(seed).randint(0, 1)

    def fixed(n: int, rng: random.Random) -> Dict[str, int]:
        del rng
        return dict.fromkeys(inputs, (1 << n) - 1 if pinned else 0)

    def rand(n: int, rng: random.Random) -> Dict[str, int]:
        return random_stimulus(inputs, n, rng)

    return Design(name=name or netlist.name, netlist=netlist,
                  tvla_fixed=fixed, tvla_random=rand,
                  payload_outputs=list(netlist.outputs))


class SecurePlacementPass(PlacementPass):
    """Placement inside the secure flow: declares nothing, so all
    requirements are re-run post-placement.  Adds the placed critical
    path to the stage metrics."""

    effects = conservative()

    def apply(self, netlist, ctx) -> PassResult:
        from ..physical import critical_path_placed

        result = super().apply(netlist, ctx)
        result.summary = "placement (security checks re-run)"
        result.details["critical_path_ps"] = critical_path_placed(
            netlist, ctx.placement)
        return result


def classical_pipeline(placement_iterations: int = 6000) -> List[Pass]:
    """Fig. 1 as a pipeline: synthesis, validation, PnR, sign-off, test.

    Run with ``goals=()`` — no security property is ever tracked, which
    is the classical flow's defining gap.
    """
    return [
        SynthesisStagePass(),
        FunctionalValidationPass(),
        PlacementPass(iterations=placement_iterations),
        StaSignoffPass(),
        AtpgPass(),
    ]


def secure_pipeline(transforms: Sequence[Pass] = (),
                    placement_iterations: int = 3000) -> List[Pass]:
    """The secure flow as a pipeline: secure synthesis, the given
    transform passes, then placement with its checks re-run.

    :class:`~repro.core.SecureFlow` tracks its requirements as custom
    properties, which no pass declares an effect on, so the manager
    re-checks every held requirement after each transform — the
    paper's full re-verification loop.
    """
    return [
        SecureSynthesisPass(),
        *transforms,
        SecurePlacementPass(iterations=placement_iterations),
    ]
