"""Security metrics with step-function behaviour.

Sec. IV of the paper: EDA is metrics-driven, so secure composition
needs security metrics standing next to area/delay/power — but, unlike
PPA, many security metrics behave as *step functions* of invested
effort ("certain efforts must be spent to reach a security level, but
spending more will not provide additional benefits").
:class:`StepFunctionMetric` captures that shape explicitly so DSE can
treat it correctly (never trade along a flat segment).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional


@dataclass
class StepFunctionMetric:
    """A security level that jumps at effort thresholds (paper Sec. IV).

    ``thresholds[i]`` is the minimum effort to reach level ``i+1``;
    between thresholds the level — and hence the security — is flat.
    Contrast :meth:`ppa_cost`, which grows smoothly with effort: the
    difference is precisely why classical DSE heuristics (gradient
    following) mis-handle security objectives.
    """

    name: str
    thresholds: List[float]
    level_names: Optional[List[str]] = None

    def level(self, effort: float) -> int:
        """Security level reached at ``effort``."""
        return bisect.bisect_right(self.thresholds, effort)

    def level_name(self, effort: float) -> str:
        """Readable name of the level reached at ``effort``."""
        lv = self.level(effort)
        if self.level_names and lv < len(self.level_names):
            return self.level_names[lv]
        return f"level-{lv}"

    def marginal_gain(self, effort: float, delta: float) -> int:
        """Levels gained by spending ``delta`` more — usually zero."""
        return self.level(effort + delta) - self.level(effort)

    def efficient_efforts(self) -> List[float]:
        """The only effort values worth choosing: the thresholds.

        Anything strictly between two thresholds wastes cost without
        gaining security — the actionable consequence of step-function
        behaviour for design-space exploration.
        """
        return list(self.thresholds)


def sat_attack_resistance_steps() -> StepFunctionMetric:
    """Canonical example: locking strength vs key bits.

    Below ~8 bits brute force wins instantly; each threshold (8, 16, 32
    and 64 key bits) marks the
    point where a distinct attacker class (brute force, plain SAT,
    budgeted SAT, none) is priced out.  Between thresholds, extra key
    bits cost area but buy no new attacker exclusion.
    """
    return StepFunctionMetric(
        name="locking-resistance",
        thresholds=[8, 16, 32, 64],
        level_names=[
            "none", "stops-brute-force", "slows-sat", "stops-budgeted-sat",
            "stops-all-modeled",
        ],
    )
