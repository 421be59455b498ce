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

from ..core.composition import Countermeasure, Design
from ..core.stages import DesignStage
from ..netlist import Netlist
from .library import (
    AtpgPass,
    FunctionalValidationPass,
    MaskInsertionPass,
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
    bits per trace.
    """
    inputs = list(netlist.inputs)
    pinned = {name_: random.Random(seed).randint(0, 1)
              for name_ in inputs}

    def fixed(rng: random.Random) -> Dict[str, int]:
        del rng
        return dict(pinned)

    def rand(rng: random.Random) -> Dict[str, int]:
        return {name_: rng.randint(0, 1) for name_ in inputs}

    return Design(name=name or netlist.name, netlist=netlist,
                  tvla_fixed=fixed, tvla_random=rand,
                  payload_outputs=list(netlist.outputs))


class ConservativeTransformPass(Pass):
    """A legacy :class:`~repro.core.composition.Countermeasure` run as a
    pass that declares nothing — so the manager conservatively
    re-checks every tracked property after it.

    This is the exact semantics of the paper's (and the legacy
    ``SecureFlow``'s) re-run-everything loop; transforms migrate to
    registered passes with real declarations to become incremental.
    """

    stage = DesignStage.LOGIC_SYNTHESIS
    effects = conservative()

    def __init__(self, transform: Countermeasure) -> None:
        self.transform = transform
        self.name = transform.name

    def apply(self, netlist, ctx) -> PassResult:
        design = self.transform.apply(ctx.design)
        design.applied.append(self.transform.name)
        return PassResult(
            self.name,
            summary=f"applied transform: {self.transform.name}",
            design=design)


class SecurePlacementPass(PlacementPass):
    """Placement inside the conservative secure flow: declares nothing,
    so all requirements are re-run post-placement (legacy semantics).
    Adds the placed critical path to the stage metrics."""

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


def secure_pipeline(transforms: Sequence[Countermeasure] = (),
                    placement_iterations: int = 3000) -> List[Pass]:
    """The legacy secure flow as a pipeline of conservative passes.

    Every transform is undeclared, so the manager re-checks all tracked
    requirements after each — the paper's full re-verification loop.
    """
    return [
        SecureSynthesisPass(),
        *(ConservativeTransformPass(t) for t in transforms),
        SecurePlacementPass(iterations=placement_iterations),
    ]


def secure_masking_pipeline(placement_iterations: int = 2000) -> List[Pass]:
    """Masking-first secure flow with *declared* effects end to end:
    mask, clean up (preserving passes — no re-checks), place, sign off.
    """
    from .library import BufferSweepPass, DeadGateSweepPass

    return [
        MaskInsertionPass(),
        BufferSweepPass(),
        DeadGateSweepPass(),
        PlacementPass(iterations=placement_iterations),
        StaSignoffPass(),
    ]
