"""Leakage localization: identify *which gates* leak.

Table II lists "identification of leaking gates" as a logic-synthesis
stage scheme.  Whole-trace TVLA says *whether* a design leaks; this
module runs the same fixed-vs-random Welch test per net, so the
security-enforcing designer (paper Sec. III-E) can trace the leakage to
its origin and fix it — the key pre-silicon advantage over measuring
finished ICs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence

import numpy as np

from ..netlist import Netlist, get_compiled, pack_patterns
from .power_model import net_bit_matrix
from .tvla import TVLA_THRESHOLD, welch_t


@dataclass
class NetLeakage:
    """Per-net leakage assessment entry."""

    net: str
    t_statistic: float
    level: int

    @property
    def leaks(self) -> bool:
        return abs(self.t_statistic) > TVLA_THRESHOLD


def assessed_nets(netlist: Netlist) -> List[str]:
    """Nets the per-net test covers: every non-input net, gate order.

    Primary inputs are excluded: they trivially differ between classes.
    """
    inputs = set(netlist.inputs)
    return [net for net in netlist.gates if net not in inputs]


def net_t_statistics(netlist: Netlist, fixed_bits: np.ndarray,
                     random_bits: np.ndarray, seed: int = 0) -> np.ndarray:
    """Fixed-vs-random t of every :func:`assessed_nets` entry, in order.

    ``fixed_bits`` / ``random_bits`` are ``(nets, traces)`` matrices from
    :func:`~repro.sca.power_model.net_bit_matrix`.  A tiny noise floor
    (sigma 0.01) keeps the t-statistic finite on constant nets; it is
    drawn from ``default_rng(seed)`` net by net, fixed class then
    random class, so one vectorized Welch call over all nets equals a
    per-net loop.
    """
    index = get_compiled(netlist).index
    rows = [index[net] for net in assessed_nets(netlist)]
    n_fixed = fixed_bits.shape[1]
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 0.01,
                       (len(rows), n_fixed + random_bits.shape[1]))
    a = fixed_bits[rows].astype(float) + noise[:, :n_fixed]
    b = random_bits[rows].astype(float) + noise[:, n_fixed:]
    return welch_t(a.T, b.T)


def locate_leaking_nets(netlist: Netlist,
                        fixed_stimuli: Sequence[Mapping[str, int]],
                        random_stimuli: Sequence[Mapping[str, int]],
                        seed: int = 0) -> List[NetLeakage]:
    """Per-net fixed-vs-random t-test, most leaky nets first.

    Each class's per-trace dicts are packed once
    (:func:`~repro.netlist.pack_patterns`) and simulated by
    :func:`~repro.sca.power_model.net_bit_matrix`.
    """
    def bits(stimuli: Sequence[Mapping[str, int]]) -> np.ndarray:
        return net_bit_matrix(netlist, pack_patterns(stimuli,
                                                     netlist.inputs),
                              len(stimuli))

    t = net_t_statistics(netlist, bits(fixed_stimuli),
                         bits(random_stimuli), seed)
    levels = netlist.levels()
    results = [NetLeakage(net=net, t_statistic=float(value),
                          level=levels[net])
               for net, value in zip(assessed_nets(netlist), t)]
    results.sort(key=lambda r: -abs(r.t_statistic))
    return results


def leaking_gate_report(results: Sequence[NetLeakage],
                        limit: int = 10) -> str:
    """Human-readable summary for flow reports."""
    lines = [f"{'net':<20} {'|t|':>8}  level  verdict"]
    for entry in list(results)[:limit]:
        verdict = "LEAKS" if entry.leaks else "ok"
        lines.append(
            f"{entry.net:<20} {abs(entry.t_statistic):>8.2f}  "
            f"{entry.level:>5}  {verdict}"
        )
    return "\n".join(lines)
