"""The design stages of an EDA flow — the rows of Table II.

Every registered flow pass (:mod:`repro.flow`) names the stage it
belongs to, and each entry of a :class:`~repro.flow.manager.FlowTrace`
carries it.  Fig. 1's classical flow is the pass pipeline
:func:`repro.flow.classical_pipeline`, run with no security goals; the
secure flow of :mod:`repro.core.flow` is the paper's alternative.
"""

from __future__ import annotations

import enum


class DesignStage(enum.Enum):
    """The rows of Table II."""

    HIGH_LEVEL_SYNTHESIS = "high-level synthesis"
    LOGIC_SYNTHESIS = "logic synthesis"
    PHYSICAL_SYNTHESIS = "physical synthesis (place and route)"
    FUNCTIONAL_VALIDATION = "functional validation"
    TIMING_POWER_VERIFICATION = "timing and power verification"
    TESTING = "testing (ATPG, DFT, BIST)"
