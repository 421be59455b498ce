"""The registered pass library: every repo transform as a `Pass`.

One wrapper per substrate transform — synthesis rewrites
(:mod:`repro.synth.passes`), restructuring, masking and WDDL insertion
(:mod:`repro.sca`), error-detection insertion (:mod:`repro.fia`), DFT
insertion (:mod:`repro.dft`), IP protection (:mod:`repro.ip`), and
placement / sign-off / ATPG (:mod:`repro.physical`,
:mod:`repro.dft.atpg`) — each with its stage
(Table II row) and a *total* effect declaration over
:data:`~repro.flow.properties.ALL_PROPERTIES`
(``scripts/check_passes.py`` rejects partial ones).

The declarations encode the paper's cross-effect matrix: PPA rewrites
that merge or re-order logic invalidate masking-domain separation and
the TVLA bound (Fig. 2); error-detection and locking insertion touch
the very wires masking protects; scan insertion opens the Sec. III
scan-leakage channel; sweeps of provably-dead logic preserve
everything.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, Optional

from ..core.composition import Design, StimulusAdapter
from ..core.stages import DesignStage
from ..dft import insert_scan, run_atpg, run_bist
from ..fia import duplicate_and_compare, parity_protect
from ..ip import camouflage, lock_xor, sfll_hd_lock
from ..netlist import Netlist
from ..physical import (
    annealing_placement,
    critical_path_placed,
    power_density_map,
)
from ..sca.masked_synthesis import mask_netlist
from ..sca.wddl import dual_rail_stimulus, wddl_transform
from ..synth import (
    BufferSweep,
    ConstantPropagation,
    DeadGateSweep,
    DoubleInversionElimination,
    StructuralHashing,
    SynthesisFlow,
    reassociate_for_timing,
    standard_library,
)
from .passes import (
    Pass,
    PassResult,
    conservative,
    effects,
    preserves_all,
    register_pass,
)
from .properties import SecurityProperty as P

#: The routed-layout properties (physical-design Table II row).  Any
#: pass that changes the netlist or placement makes existing routed
#: geometry stale, so netlist-mutating passes below invalidate all
#: three; pure analyses preserve them.
_LAYOUT = (P.PROBING_EXPOSURE, P.FIA_EXPOSURE, P.TROJAN_INSERTABILITY)


def _replaced(design: Design, suffix: str, netlist: Netlist,
              adapt: Optional[StimulusAdapter] = None, **fields) -> Design:
    """``design`` rebuilt around a pass's new ``netlist``.

    Appends ``+suffix`` to the design name and, when ``adapt`` is given,
    applies it after the design's stimulus adapter, with the same trace
    count and draw RNG; ``fields`` replace any other
    :class:`~repro.core.composition.Design` field.
    """
    if adapt is not None:
        previous = design.stimulus_adapter

        def adapter(columns: Dict[str, int], n: int,
                    rng: random.Random) -> Dict[str, int]:
            return adapt(previous(columns, n, rng), n, rng)

        fields["stimulus_adapter"] = adapter
    return replace(design, name=f"{design.name}+{suffix}", netlist=netlist,
                   **fields)


# ----------------------------------------------------------------------
# Logic-synthesis rewrites (wrapping repro.synth.passes)
# ----------------------------------------------------------------------

class _SynthRewritePass(Pass):
    """Shared apply() for single synthesis-rewrite wrappers."""

    stage = DesignStage.LOGIC_SYNTHESIS
    rewrite_cls = None

    def apply(self, netlist, ctx) -> PassResult:
        report = self.rewrite_cls()(netlist)
        return PassResult(
            self.name, rewrites=report.rewrites,
            summary=f"{report.pass_name}: {report.rewrites} rewrites, "
                    f"{report.cells_before} -> {report.cells_after} cells",
            details={"cells_removed":
                     report.cells_before - report.cells_after})


@register_pass
class ConstantPropagationPass(_SynthRewritePass):
    """Constant folding can collapse a share onto a constant wire."""

    name = "constprop"
    rewrite_cls = ConstantPropagation
    effects = effects(
        preserves=[P.FUNCTIONAL_EQUIVALENCE, P.NO_FLOW, P.SCAN_LEAKAGE,
                   P.FAULT_DETECTION],
        invalidates=[P.MASKING, P.TVLA_BOUND, *_LAYOUT])


@register_pass
class StructuralHashingPass(_SynthRewritePass):
    """Sharing logic across masking domains is the classic break; merged
    checker logic also voids duplication-based detection."""

    name = "strash"
    rewrite_cls = StructuralHashing
    effects = effects(
        preserves=[P.FUNCTIONAL_EQUIVALENCE, P.NO_FLOW, P.SCAN_LEAKAGE],
        invalidates=[P.MASKING, P.TVLA_BOUND, P.FAULT_DETECTION,
                     *_LAYOUT])


@register_pass
class DoubleInversionPass(_SynthRewritePass):
    """Dropping inverter pairs is local and value-preserving per wire."""

    name = "inv2"
    rewrite_cls = DoubleInversionElimination
    effects = preserves_all(invalidates=_LAYOUT)


@register_pass
class BufferSweepPass(_SynthRewritePass):
    """Buffers carry the same value as their fanin; removal is inert."""

    name = "bufsweep"
    rewrite_cls = BufferSweep
    effects = preserves_all(invalidates=_LAYOUT)


@register_pass
class DeadGateSweepPass(_SynthRewritePass):
    """Dead logic is unobservable by construction."""

    name = "sweep"
    rewrite_cls = DeadGateSweep
    effects = preserves_all(invalidates=_LAYOUT)


@register_pass
class SynthesisStagePass(Pass):
    """Full PPA synthesis + technology mapping, in place.

    Contains constprop/strash, so it inherits their invalidations.
    """

    name = "synthesis"
    stage = DesignStage.LOGIC_SYNTHESIS
    effects = effects(
        preserves=[P.FUNCTIONAL_EQUIVALENCE, P.NO_FLOW, P.SCAN_LEAKAGE],
        invalidates=[P.MASKING, P.TVLA_BOUND, P.FAULT_DETECTION,
                     *_LAYOUT])

    def __init__(self, iterations: int = 2, map_library=True) -> None:
        self.iterations = iterations
        self.map_library = map_library

    def apply(self, netlist, ctx) -> PassResult:
        flow = SynthesisFlow(
            library=standard_library() if self.map_library else None,
            iterations=self.iterations)
        result = flow.run(netlist, in_place=True)
        return PassResult(
            self.name,
            rewrites=sum(r.rewrites for r in result.pass_reports),
            summary=f"optimized {result.ppa_before.cell_count} -> "
                    f"{result.ppa_after.cell_count} cells, mapped to "
                    f"std library",
            details={"area": result.ppa_after.area,
                     "area_reduction": result.area_reduction})


@register_pass
class ReassociationPass(Pass):
    """Fig. 2: timing-driven XOR re-association, oblivious to masking.

    With the RNG inputs arriving late, the rebuilt trees compute sums
    of share products on real wires — functionally equivalent, masking
    destroyed.
    """

    name = "reassoc-timing"
    stage = DesignStage.LOGIC_SYNTHESIS
    effects = effects(
        preserves=[P.FUNCTIONAL_EQUIVALENCE, P.NO_FLOW, P.SCAN_LEAKAGE,
                   P.FAULT_DETECTION],
        invalidates=[P.MASKING, P.TVLA_BOUND, *_LAYOUT])

    def __init__(self, rng_prefix: str = "r", rng_arrival: float = 1e5
                 ) -> None:
        self.rng_prefix = rng_prefix
        self.rng_arrival = rng_arrival

    def apply(self, netlist, ctx) -> PassResult:
        late = {name: self.rng_arrival for name in netlist.inputs
                if name.startswith(self.rng_prefix)}
        rewrites = reassociate_for_timing(netlist, input_arrivals=late)
        return PassResult(
            self.name, rewrites=rewrites,
            summary=f"re-associated {rewrites} tree(s) for timing "
                    f"({len(late)} late RNG arrivals)")


@register_pass
class SecureSynthesisPass(Pass):
    """Security-aware synthesis stance: restructuring suppressed inside
    masked regions (marker pass; the suppression *is* doing nothing)."""

    name = "secure-synthesis"
    stage = DesignStage.LOGIC_SYNTHESIS
    effects = preserves_all()

    def apply(self, netlist, ctx) -> PassResult:
        return PassResult(
            self.name,
            summary="security-aware synthesis: restructuring suppressed "
                    "inside masked regions")


# ----------------------------------------------------------------------
# SCA countermeasure insertion (repro.sca)
# ----------------------------------------------------------------------

@register_pass
class MaskInsertionPass(Pass):
    """Automated first-order ISW masking of the whole netlist.

    Establishes masking-domain separation and the TVLA bound; replaces
    the port interface (share pairs + fresh randomness), so equivalence
    and any existing no-flow/fault-detection arguments are void.
    """

    name = "mask-insertion"
    stage = DesignStage.HIGH_LEVEL_SYNTHESIS
    effects = effects(
        preserves=[P.SCAN_LEAKAGE],
        establishes=[P.MASKING, P.TVLA_BOUND],
        invalidates=[P.FUNCTIONAL_EQUIVALENCE, P.NO_FLOW,
                     P.FAULT_DETECTION, *_LAYOUT])

    def apply(self, netlist, ctx) -> PassResult:
        masked = mask_netlist(netlist)
        design = _replaced(
            ctx.design, "masked", masked.netlist,
            adapt=masked.stimulus_columns,
            alarm=None, payload_outputs=list(masked.netlist.outputs))
        return PassResult(
            self.name, rewrites=len(masked.netlist.gates),
            summary=f"ISW-masked {len(netlist.gates)} -> "
                    f"{len(masked.netlist.gates)} cells, "
                    f"{masked.randomness_bits} fresh random bits",
            details={"randomness_bits": masked.randomness_bits},
            design=design)


@register_pass
class WddlPass(Pass):
    """WDDL dual-rail hiding: constant switching activity per cycle."""

    name = "wddl-hiding"
    stage = DesignStage.LOGIC_SYNTHESIS
    effects = effects(
        preserves=[P.MASKING, P.SCAN_LEAKAGE],
        establishes=[P.TVLA_BOUND],
        invalidates=[P.FUNCTIONAL_EQUIVALENCE, P.NO_FLOW,
                     P.FAULT_DETECTION, *_LAYOUT])

    def apply(self, netlist, ctx) -> PassResult:
        dual, _ = wddl_transform(netlist)
        design = _replaced(
            ctx.design, "wddl", dual,
            adapt=lambda columns, n, rng: dual_rail_stimulus(columns, n),
            alarm=None, payload_outputs=list(dual.outputs),
            protected_region_prefix="")
        return PassResult(
            self.name, rewrites=len(dual.gates),
            summary=f"WDDL dual-rail: {len(netlist.gates)} -> "
                    f"{len(dual.gates)} cells",
            design=design)


# ----------------------------------------------------------------------
# Error-detection insertion (repro.fia)
# ----------------------------------------------------------------------

class _DetectionPass(Pass):
    """Shared apply() for error-detection wrappers (paper ref [61]).

    The wrapper copies the functional core under ``m_`` (the region
    the fault campaign targets) and adds a checker with one alarm
    output.  Fault detection is what it is for; nothing else is
    proven, so every other property is declared invalidated.
    """

    stage = DesignStage.LOGIC_SYNTHESIS
    effects = conservative(establishes=[P.FAULT_DETECTION])
    protect = None
    suffix = ""

    def apply(self, netlist, ctx) -> PassResult:
        protected = self.protect(netlist)
        design = _replaced(
            ctx.design, self.suffix, protected.netlist,
            alarm=protected.alarm,
            payload_outputs=protected.payload_outputs,
            protected_region_prefix="m_")
        return PassResult(
            self.name, rewrites=protected.overhead_cells,
            summary=f"{protected.scheme} detection: "
                    f"+{protected.overhead_cells} cells, alarm on "
                    f"{protected.alarm!r}",
            details={"overhead_cells": protected.overhead_cells},
            design=design)


@register_pass
class DuplicationDetectPass(_DetectionPass):
    """Duplicate-and-compare: comparison runs share against share, so
    every comparator wire of a masked core stays masked."""

    name = "duplication-detect"
    protect = staticmethod(duplicate_and_compare)
    suffix = "dup"


@register_pass
class ParityDetectPass(_DetectionPass):
    """Output-parity prediction: on a masked core the parity of the
    output shares is the unmasked secret, so the checker itself leaks."""

    name = "parity-detect"
    protect = staticmethod(parity_protect)
    suffix = "parity"


# ----------------------------------------------------------------------
# DFT insertion (repro.dft)
# ----------------------------------------------------------------------

@register_pass
class ScanInsertionPass(Pass):
    """Stitch all flops into one scan chain.

    Functionally transparent in capture mode, but a plain chain is the
    Sec. III scan-attack channel — it invalidates scan-leakage and
    every confidentiality argument (state becomes readable).
    """

    name = "scan-insertion"
    stage = DesignStage.TESTING
    effects = effects(
        preserves=[P.FUNCTIONAL_EQUIVALENCE, P.FAULT_DETECTION],
        invalidates=[P.MASKING, P.TVLA_BOUND, P.NO_FLOW,
                     P.SCAN_LEAKAGE, *_LAYOUT])

    def apply(self, netlist, ctx) -> PassResult:
        scan = insert_scan(netlist)

        def adapt(columns: Dict[str, int], n: int,
                  rng: random.Random) -> Dict[str, int]:
            return {"scan_en": 0, "scan_in": 0, **columns}

        design = _replaced(ctx.design, "scan", scan.netlist, adapt=adapt)
        return PassResult(
            self.name, rewrites=scan.length,
            summary=f"scan chain over {scan.length} flops",
            details={"chain_length": scan.length},
            design=design)


@register_pass
class BistSignaturePass(Pass):
    """LFSR/MISR BIST characterization — pure analysis, no mutation."""

    name = "bist-signature"
    stage = DesignStage.TESTING
    effects = preserves_all()

    def __init__(self, n_patterns: int = 256) -> None:
        self.n_patterns = n_patterns

    def apply(self, netlist, ctx) -> PassResult:
        result = run_bist(netlist, n_patterns=self.n_patterns)
        return PassResult(
            self.name,
            summary=f"BIST signature {result.signature:#x} over "
                    f"{self.n_patterns} patterns",
            details={"n_patterns": self.n_patterns})


@register_pass
class AtpgPass(Pass):
    """Stuck-at ATPG — pure analysis over the current netlist."""

    name = "atpg"
    stage = DesignStage.TESTING
    effects = preserves_all()

    def __init__(self, random_budget: Optional[int] = None) -> None:
        # ``None`` keeps run_atpg's own default budget.
        self.random_budget = random_budget

    def apply(self, netlist, ctx) -> PassResult:
        budget = {} if self.random_budget is None else {
            "random_budget": self.random_budget}
        atpg = run_atpg(netlist, seed=ctx.seed, **budget)
        return PassResult(
            self.name,
            summary=f"ATPG: {len(atpg.vectors)} vectors, "
                    f"{len(atpg.untestable)} redundant faults",
            details={"stuck_at_coverage": atpg.coverage,
                     "vectors": len(atpg.vectors)})


# ----------------------------------------------------------------------
# IP protection (repro.ip)
# ----------------------------------------------------------------------

def _with_key(key: Dict[str, int]) -> StimulusAdapter:
    """Stimulus adapter driving every key input with its correct bit,
    one constant column per key input."""
    def adapt(columns: Dict[str, int], n: int,
              rng: random.Random) -> Dict[str, int]:
        ones = (1 << n) - 1
        return {**columns,
                **{name: ones if bit & 1 else 0 for name, bit in key.items()}}
    return adapt


@register_pass
class LogicLockingPass(Pass):
    """EPIC-style XOR/XNOR locking.

    Key gates sit on internal nets inside the masked cone, so every
    prior functional and side-channel argument is void until re-shown
    under the correct key (the stimulus adapter supplies it).
    """

    name = "logic-locking"
    stage = DesignStage.LOGIC_SYNTHESIS
    effects = effects(
        preserves=[P.SCAN_LEAKAGE],
        invalidates=[P.FUNCTIONAL_EQUIVALENCE, P.MASKING, P.TVLA_BOUND,
                     P.NO_FLOW, P.FAULT_DETECTION, *_LAYOUT])

    def __init__(self, key_bits: int = 8) -> None:
        self.key_bits = key_bits

    def apply(self, netlist, ctx) -> PassResult:
        locked = lock_xor(netlist, self.key_bits, seed=ctx.seed)
        design = _replaced(
            ctx.design, "locked", locked.netlist,
            adapt=_with_key(locked.key),
            key_bits=ctx.design.key_bits + locked.key_bits)
        return PassResult(
            self.name, rewrites=locked.key_bits,
            summary=f"inserted {locked.key_bits} XOR/XNOR key gates",
            details={"key_bits": locked.key_bits},
            design=design)


@register_pass
class SfllLockPass(Pass):
    """SFLL-HD point-function locking on one output."""

    name = "sfll-lock"
    stage = DesignStage.LOGIC_SYNTHESIS
    effects = effects(
        preserves=[P.SCAN_LEAKAGE],
        invalidates=[P.FUNCTIONAL_EQUIVALENCE, P.MASKING, P.TVLA_BOUND,
                     P.NO_FLOW, P.FAULT_DETECTION, *_LAYOUT])

    def __init__(self, output: Optional[str] = None, h: int = 0,
                 n_protect_bits: Optional[int] = None) -> None:
        self.output = output
        self.h = h
        self.n_protect_bits = n_protect_bits

    def apply(self, netlist, ctx) -> PassResult:
        output = self.output or netlist.outputs[0]
        sfll = sfll_hd_lock(netlist, output, h=self.h,
                            n_protect_bits=self.n_protect_bits,
                            seed=ctx.seed)
        locked = sfll.locked
        design = _replaced(
            ctx.design, "sfll", locked.netlist,
            adapt=_with_key(locked.key),
            key_bits=ctx.design.key_bits + locked.key_bits)
        return PassResult(
            self.name, rewrites=locked.key_bits,
            summary=f"SFLL-HD (h={sfll.h}) on {output}: "
                    f"{locked.key_bits} key bits",
            details={"key_bits": locked.key_bits},
            design=design)


@register_pass
class CamouflagePass(Pass):
    """Cell camouflaging: function hidden from imaging, not changed."""

    name = "camouflage"
    stage = DesignStage.PHYSICAL_SYNTHESIS
    effects = preserves_all(invalidates=_LAYOUT)

    def __init__(self, n_cells: int = 4) -> None:
        self.n_cells = n_cells

    def apply(self, netlist, ctx) -> PassResult:
        camo = camouflage(netlist, self.n_cells, seed=ctx.seed)
        design = _replaced(ctx.design, "camo", camo.netlist)
        return PassResult(
            self.name, rewrites=camo.n_cells,
            summary=f"camouflaged {camo.n_cells} cells "
                    f"({len(camo.candidates)}-way candidate set)",
            details={"camo_cells": camo.n_cells},
            design=design)


# ----------------------------------------------------------------------
# Physical synthesis and sign-off (repro.physical, analysis-only)
# ----------------------------------------------------------------------

@register_pass
class PlacementPass(Pass):
    """Simulated-annealing placement; publishes ``ctx.placement``."""

    name = "placement"
    stage = DesignStage.PHYSICAL_SYNTHESIS
    effects = preserves_all(invalidates=_LAYOUT)

    def __init__(self, iterations: int = 3000) -> None:
        self.iterations = iterations

    def apply(self, netlist, ctx) -> PassResult:
        placed = annealing_placement(netlist, iterations=self.iterations,
                                     seed=ctx.seed)
        ctx.placement = placed.placement
        return PassResult(
            self.name,
            summary=f"annealing placement: HPWL {placed.initial_hpwl:.0f}"
                    f" -> {placed.final_hpwl:.0f}",
            details={"hpwl": placed.final_hpwl})


@register_pass
class StaSignoffPass(Pass):
    """Wire-aware STA + IR-drop proxy over the current placement."""

    name = "sta-signoff"
    stage = DesignStage.TIMING_POWER_VERIFICATION
    effects = preserves_all()

    def apply(self, netlist, ctx) -> PassResult:
        if ctx.placement is None:
            raise ValueError("sta-signoff requires a prior placement pass")
        delay = critical_path_placed(netlist, ctx.placement)
        density = power_density_map(netlist, ctx.placement)
        return PassResult(
            self.name,
            summary="wire-aware STA and IR-drop proxy check",
            details={"critical_path_ps": delay,
                     "max_power_density": float(density.max())})


@register_pass
class FunctionalValidationPass(Pass):
    """The classical flow's validation stance made explicit."""

    name = "lec-assume"
    stage = DesignStage.FUNCTIONAL_VALIDATION
    effects = preserves_all()

    def apply(self, netlist, ctx) -> PassResult:
        return PassResult(
            self.name,
            summary="logic equivalence assumed from certified rewrites "
                    "(no security properties checked)")
