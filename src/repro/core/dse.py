"""Security-aware design-space exploration (paper Sec. IV).

Classical DSE trades smooth metrics (area, delay, power); security
levels are step functions, so the efficient frontier only ever contains
configurations sitting *exactly at* security thresholds.  This module
provides generic Pareto machinery plus the concrete locking sweep that
measures the step behaviour (SAT-attack effort vs key width).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..netlist import Netlist, ppa_report


@dataclass
class Candidate:
    """One design configuration with its evaluated objectives."""

    name: str
    params: Dict[str, float] = field(default_factory=dict)
    objectives: Dict[str, float] = field(default_factory=dict)


def dominates(a: Candidate, b: Candidate,
              maximize: Sequence[str], minimize: Sequence[str]) -> bool:
    """Pareto dominance of ``a`` over ``b`` for the given objectives."""
    at_least_as_good = True
    strictly_better = False
    for key in maximize:
        if a.objectives[key] < b.objectives[key]:
            at_least_as_good = False
        elif a.objectives[key] > b.objectives[key]:
            strictly_better = True
    for key in minimize:
        if a.objectives[key] > b.objectives[key]:
            at_least_as_good = False
        elif a.objectives[key] < b.objectives[key]:
            strictly_better = True
    return at_least_as_good and strictly_better


def pareto_front(candidates: Sequence[Candidate],
                 maximize: Sequence[str],
                 minimize: Sequence[str]) -> List[Candidate]:
    """Non-dominated subset, preserving input order."""
    front = []
    for candidate in candidates:
        if not any(
            dominates(other, candidate, maximize, minimize)
            for other in candidates if other is not candidate
        ):
            front.append(candidate)
    return front


@dataclass
class LockingSweepPoint:
    """Measured locking trade-off at one key width."""

    key_bits: int
    area: float
    sat_attack_iterations: int
    attack_seconds: float
    attack_gave_up: bool


def measure_locking_point(netlist: Netlist, key_bits: int, seed: int = 0,
                          max_iterations: int = 400,
                          baseline_area: Optional[float] = None
                          ) -> LockingSweepPoint:
    """Measure one point of the locking trade-off curve.

    This is the per-point kernel shared by the serial sweep below and
    the :mod:`repro.service` ``locking-point`` job, so a distributed
    sweep is the same computation as the serial one, point for point.
    ``seed`` is threaded uniformly — the ``key_bits == 0`` baseline
    accepts (and ignores) it, so every point of a sweep is addressed by
    the same ``(netlist, bits, seed)`` triple.  ``baseline_area``
    short-circuits the unlocked PPA measurement when the caller has
    already computed it.
    """
    from ..ip import attack_locked_circuit, lock_xor

    if key_bits == 0:
        area = (baseline_area if baseline_area is not None
                else ppa_report(netlist).area)
        return LockingSweepPoint(0, area, 0, 0.0, False)
    locked = lock_xor(netlist, key_bits, seed=seed)
    began = time.perf_counter()
    result = attack_locked_circuit(locked, max_iterations=max_iterations)
    elapsed = time.perf_counter() - began
    return LockingSweepPoint(
        key_bits=key_bits,
        area=ppa_report(locked.netlist).area,
        sat_attack_iterations=result.iterations,
        attack_seconds=elapsed,
        attack_gave_up=result.gave_up,
    )


def sweep_locking(netlist: Netlist, key_widths: Sequence[int],
                  seed: int = 0,
                  max_iterations: int = 400) -> List[LockingSweepPoint]:
    """Lock at each key width and measure the SAT attacker's effort.

    The result exhibits the paper's step-function claim: attack effort
    (DIP count) grows with key bits, but the *security level* — which
    attacker classes are excluded — only changes at thresholds, while
    area cost climbs smoothly the whole way.

    The unlocked baseline area is measured once and reused for every
    ``bits == 0`` point.
    """
    baseline_area = ppa_report(netlist).area
    return [
        measure_locking_point(netlist, bits, seed=seed,
                              max_iterations=max_iterations,
                              baseline_area=baseline_area)
        for bits in key_widths
    ]


def locking_candidates(points: Sequence[LockingSweepPoint],
                       step_thresholds: Sequence[int] = (1, 10, 100)
                       ) -> List[Candidate]:
    """Convert sweep points into DSE candidates.

    ``security_level`` counts how many attack-effort thresholds (in DIP
    iterations) the configuration exceeds — a step function by
    construction, matching Sec. IV.
    """
    candidates = []
    for point in points:
        effort = (float("inf") if point.attack_gave_up
                  else point.sat_attack_iterations)
        level = sum(1 for t in step_thresholds if effort > t)
        candidates.append(Candidate(
            name=f"lock{point.key_bits}",
            params={"key_bits": float(point.key_bits)},
            objectives={
                "area": point.area,
                "security_level": float(level),
                "attack_iterations": (
                    float(point.sat_attack_iterations)),
            },
        ))
    return candidates
