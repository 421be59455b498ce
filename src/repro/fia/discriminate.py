"""Distinguishing natural from malicious faults.

Paper Sec. III-F (ref [59]): a security-aware DFX infrastructure must
respond differently to radiation-induced soft errors (recover and
resume) versus fault *attacks* (re-key or halt) — but first it has to
tell them apart.  Natural faults are rare, spatially and temporally
uniform; attacks cluster on the same target, repeat quickly, and align
with sensitive operations.

:class:`FaultDiscriminator` consumes a stream of detection events and
applies rate / locality / phase heuristics to produce a verdict and the
corresponding response policy.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


class Verdict(enum.Enum):
    """Classification of an observed fault stream."""

    NATURAL = "natural"
    MALICIOUS = "malicious"


class Response(enum.Enum):
    """Responses per the paper: recovery for nature, re-key for attack."""

    RECOVER_AND_RESUME = "recover"
    REKEY = "rekey"
    DISCONTINUE = "discontinue"


@dataclass(frozen=True)
class FaultEvent:
    """One detected fault: when, where, and in which operation phase."""

    time: float
    location: str            # module/net identifier
    sensitive_phase: bool    # did it hit a crypto-sensitive operation?


@dataclass
class Assessment:
    verdict: Verdict
    response: Response
    score: float             # maliciousness score in [0, 1]
    reasons: List[str] = field(default_factory=list)


#: Thresholds of :class:`FaultDiscriminator`.  They mirror the
#: engineering trade-off the paper describes: a paranoid threshold
#: re-keys on every cosmic ray (availability loss); a lax one lets a
#: patient attacker through.
_WINDOW = 1000.0             # time span of the assessed event window
_RATE_THRESHOLD = 3.0        # events in the window that score as a burst
_LOCALITY_THRESHOLD = 0.6    # share of events on one location
_PHASE_THRESHOLD = 0.7       # share of events in sensitive phases
_MALICIOUS_SCORE = 0.5       # score from which a stream is malicious


class FaultDiscriminator:
    """Heuristic classifier over a sliding window of fault events."""

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def observe(self, event: FaultEvent) -> Assessment:
        """Record an event and (re)assess the stream."""
        self.events.append(event)
        return self.assess(now=event.time)

    def assess(self, now: float) -> Assessment:
        """Classify the recent event window at time ``now``."""
        recent = [e for e in self.events if now - e.time <= _WINDOW]
        reasons: List[str] = []
        score = 0.0
        if not recent:
            return Assessment(Verdict.NATURAL,
                              Response.RECOVER_AND_RESUME, 0.0)
        # Rate: events per window vs expected natural rate.
        if len(recent) >= _RATE_THRESHOLD:
            score += 0.4
            reasons.append(
                f"{len(recent)} faults within window (>= "
                f"{_RATE_THRESHOLD})"
            )
        # Locality: repeated hits on one location.
        counts: Dict[str, int] = {}
        for e in recent:
            counts[e.location] = counts.get(e.location, 0) + 1
        top_fraction = max(counts.values()) / len(recent)
        if len(recent) >= 2 and top_fraction >= _LOCALITY_THRESHOLD:
            score += 0.35
            reasons.append(
                f"{top_fraction:.0%} of recent faults hit one location"
            )
        # Phase alignment: faults timed at sensitive operations.
        phase_fraction = (sum(1 for e in recent if e.sensitive_phase)
                          / len(recent))
        if len(recent) >= 2 and phase_fraction >= _PHASE_THRESHOLD:
            score += 0.25
            reasons.append(
                f"{phase_fraction:.0%} of recent faults hit sensitive phases"
            )
        if score >= _MALICIOUS_SCORE:
            verdict = Verdict.MALICIOUS
            response = (Response.DISCONTINUE if score >= 0.9
                        else Response.REKEY)
        else:
            verdict = Verdict.NATURAL
            response = Response.RECOVER_AND_RESUME
        return Assessment(verdict, response, min(1.0, score), reasons)


def natural_fault_stream(n_events: int, duration: float,
                         locations: Sequence[str],
                         seed: int = 0) -> List[FaultEvent]:
    """Poisson-like uniform soft-error stream (the benign scenario)."""
    rng = random.Random(seed)
    times = sorted(rng.uniform(0, duration) for _ in range(n_events))
    return [
        FaultEvent(t, rng.choice(list(locations)),
                   sensitive_phase=rng.random() < 0.2)
        for t in times
    ]


def attack_fault_stream(n_events: int, start: float, target: str,
                        seed: int = 0) -> List[FaultEvent]:
    """Repeated, targeted, phase-aligned injections (the DFA scenario),
    one every 50 time units."""
    rng = random.Random(seed)
    return [
        FaultEvent(start + i * 50.0 + rng.uniform(0, 5), target,
                   sensitive_phase=True)
        for i in range(n_events)
    ]
