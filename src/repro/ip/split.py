"""Split manufacturing and the proximity attack [27, 52-54].

The untrusted foundry manufactures FEOL plus lower metal layers and
sees a "sea of gates with dangling wires"; the trusted facility adds
the upper (BEOL) wiring.  Security rests on the foundry being unable to
guess the hidden connections — but a classical flow leaves two kinds of
layout hints (paper Sec. III-C):

* **via hints** — a hidden wire routes on lower metals toward its
  partner before jumping above the split, so its dangling via sits
  close to the partner's via;
* **placement proximity** — PPA-driven placement puts connected cells
  next to each other, so even without stubs the nearest dangling driver
  is usually the right one.

The proximity attack exploits both (``mode="via"`` / ``mode="cell"``).
Defenses implemented: wire lifting [53] (lifted nets jump to the BEOL
directly at the pin — no via hint) and placement perturbation [54]
(decorrelates cell proximity).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..netlist import Netlist
from ..physical import Placement, Wire, assign_layers, split_wires
from ..physical.routing import RoutedLayout

Point = Tuple[float, float]

#: How far along its path a hidden wire routes on lower metals before
#: rising above the split layer (0.0 = rises at the pin, no hint).
ROUTE_FRACTION = 0.48
#: Uniform jitter (in sites, per axis) of a heuristic dangling via.
VIA_JITTER = 0.4


@dataclass
class FeolView:
    """What the untrusted foundry sees.

    ``visible_wires`` survive below the split layer.  For every hidden
    wire the foundry sees a dangling *sink via* and a dangling *driver
    via* whose positions encode the routing-stub hint (or the plain
    cell position for lifted nets).  ``hidden_truth`` is kept for
    scoring only — the attacker never reads it.
    """

    netlist: Netlist
    placement: Placement
    visible_wires: List[Wire]
    open_sinks: List[Tuple[str, int]]        # (gate, fanin index)
    open_drivers: List[str]
    sink_vias: Dict[Tuple[str, int], Point] = field(default_factory=dict)
    driver_vias: List[Tuple[str, Point]] = field(default_factory=list)
    hidden_truth: Dict[Tuple[str, int], str] = field(default_factory=dict)


def _via_points(driver_pos: Point, sink_pos: Point, fraction: float,
                rng: random.Random, jitter: float) -> Tuple[Point, Point]:
    dx = sink_pos[0] - driver_pos[0]
    dy = sink_pos[1] - driver_pos[1]
    d_via = (driver_pos[0] + fraction * dx + rng.uniform(-jitter, jitter),
             driver_pos[1] + fraction * dy + rng.uniform(-jitter, jitter))
    s_via = (sink_pos[0] - fraction * dx + rng.uniform(-jitter, jitter),
             sink_pos[1] - fraction * dy + rng.uniform(-jitter, jitter))
    return d_via, s_via


def build_feol_view(netlist: Netlist, placement: Placement,
                    split_layer: int,
                    lifted: Optional[Set[str]] = None,
                    routing: Optional["RoutedLayout"] = None) -> FeolView:
    """Partition the routed design at ``split_layer``.

    ``lifted`` nets are routed straight up at their pins (wire-lifting
    defense): they are always hidden and expose no stub direction.

    Without ``routing`` the dangling-via positions come from the
    stub-fraction heuristic (:data:`ROUTE_FRACTION`, plus
    :data:`VIA_JITTER` drawn from ``random.Random(0)``).  With a
    :class:`~repro.physical.routing.RoutedLayout` they are the *exact*
    points where each routed branch crosses the split layer — no
    jitter, no randomness — which is what the foundry actually sees.
    """
    lifted = lifted or set()
    rng = random.Random(0)
    scale = max(1, routing.scale) if routing is not None else 1
    wires = assign_layers(netlist, placement, lifted=lifted,
                          routing=routing)
    visible, hidden = split_wires(wires, split_layer)
    view = FeolView(
        netlist=netlist,
        placement=placement,
        visible_wires=visible,
        open_sinks=[],
        open_drivers=[],
    )
    seen_drivers: Set[str] = set()
    for w in hidden:
        sink_gate = netlist.gates[w.sink]
        driver_pos = placement.positions[w.driver]
        sink_pos = placement.positions[w.sink]
        crossing = None
        if routing is not None and w.driver not in lifted:
            routed = routing.nets.get(w.driver)
            if routed is not None:
                pin = (sink_pos[0] * scale, sink_pos[1] * scale)
                crossing = routed.branch_split_vias(pin, split_layer)
        if crossing is not None:
            (dvx, dvy), (svx, svy) = crossing
            d_via = (dvx / scale, dvy / scale)
            s_via = (svx / scale, svy / scale)
        else:
            fraction = 0.0 if w.driver in lifted else ROUTE_FRACTION
            d_via, s_via = _via_points(driver_pos, sink_pos, fraction,
                                       rng, VIA_JITTER)
        for position, fi in enumerate(sink_gate.fanins):
            if fi != w.driver:
                continue
            pin = (w.sink, position)
            if pin in view.hidden_truth:
                continue
            view.open_sinks.append(pin)
            view.hidden_truth[pin] = w.driver
            view.sink_vias[pin] = s_via
        if w.driver not in seen_drivers:
            seen_drivers.add(w.driver)
            view.open_drivers.append(w.driver)
        view.driver_vias.append((w.driver, d_via))
    return view


@dataclass
class ProximityAttackResult:
    """Scoring of a proximity-attack reconstruction."""

    guesses: Dict[Tuple[str, int], str]
    correct: int
    total: int
    mode: str = "via"

    @property
    def ccr(self) -> float:
        """Correct connection rate — the standard split-mfg metric."""
        return self.correct / self.total if self.total else 1.0


def _distance(a: Point, b: Point) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def proximity_attack(view: FeolView, mode: str = "via"
                     ) -> ProximityAttackResult:
    """Match every dangling sink to a dangling driver, in an order
    shuffled by ``random.Random(0)``.

    ``mode="via"`` uses the dangling-via positions (strong when wires
    stub toward their partner); ``mode="cell"`` uses raw cell placement
    (the M1-split attacker of [54]).  Guesses avoid self-loops and
    combinational cycles, which the attacker can rule out a priori.
    """
    if mode not in ("via", "cell"):
        raise ValueError(f"unknown attack mode {mode!r}")
    rng = random.Random(0)
    netlist = view.netlist
    placement = view.placement
    guesses: Dict[Tuple[str, int], str] = {}
    order = list(view.open_sinks)
    rng.shuffle(order)
    for pin in order:
        sink_gate, _position = pin
        sink_cone = netlist.transitive_fanout([sink_gate])
        best: Optional[str] = None
        best_distance = float("inf")
        if mode == "via":
            sink_point = view.sink_vias[pin]
            for driver, d_via in view.driver_vias:
                if driver == sink_gate or driver in sink_cone:
                    continue
                d = _distance(sink_point, d_via)
                if d < best_distance:
                    best_distance = d
                    best = driver
        else:
            sink_point = placement.positions[sink_gate]
            for driver in view.open_drivers:
                if driver == sink_gate or driver in sink_cone:
                    continue
                if driver not in placement.positions:
                    continue
                d = _distance(sink_point, placement.positions[driver])
                if d < best_distance:
                    best_distance = d
                    best = driver
        if best is not None:
            guesses[pin] = best
    correct = sum(
        1 for pin, guess in guesses.items()
        if view.hidden_truth.get(pin) == guess
    )
    return ProximityAttackResult(guesses, correct, len(view.open_sinks),
                                 mode=mode)


def reconstruction_error_rate(view: FeolView,
                              result: ProximityAttackResult) -> float:
    """Functional damage of the attacker's netlist: fraction of output
    bits differing from the true design over 128 random vectors drawn
    from ``random.Random(0)``."""
    n_vectors = 128
    from ..netlist import random_stimulus, simulate

    reconstructed = view.netlist.copy(view.netlist.name + "_rec")
    for (sink_gate, position), driver in result.guesses.items():
        g = reconstructed.gates[sink_gate]
        g.fanins[position] = driver
    reconstructed.invalidate()
    rng = random.Random(0)
    stim = random_stimulus(view.netlist.inputs, n_vectors, rng)
    golden = simulate(view.netlist, stim, n_vectors)
    try:
        guess_values = simulate(reconstructed, stim, n_vectors)
    except Exception:
        return 1.0  # cyclic/invalid reconstruction: total failure
    wrong = 0
    total = 0
    for out in view.netlist.outputs:
        wrong += (golden[out] ^ guess_values[out]).bit_count()
        total += n_vectors
    return wrong / total if total else 0.0


def lift_critical_nets(netlist: Netlist, nets: Sequence[str]) -> Set[str]:
    """Wire-lifting defense: mark nets to route above the split layer.

    Returns the lifted set (validated against the netlist).  Typical
    choices: high-fanout nets, nets in the fanin of security-critical
    outputs, or nets selected to maximize attacker entropy [53].
    """
    unknown = [n for n in nets if n not in netlist.gates]
    if unknown:
        raise ValueError(f"unknown nets to lift: {unknown[:4]}")
    return set(nets)


def high_fanout_nets(netlist: Netlist, count: int) -> List[str]:
    """The ``count`` highest-fanout internal nets — a common lifting pick."""
    fanout = netlist.fanout_map()
    internal = [
        (len(consumers), net) for net, consumers in fanout.items()
        if netlist.gates[net].gate_type.is_combinational
        and not netlist.gates[net].gate_type.is_source
    ]
    internal.sort(reverse=True)
    return [net for _, net in internal[:count]]


def perturb_placement(placement: Placement, amount: int = 3,
                      fraction: float = 0.3, seed: int = 0) -> Placement:
    """Placement-perturbation defense [54]: randomly displace a fraction
    of cells by up to ``amount`` sites per axis, breaking the
    proximity correlation the M1-split attack relies on."""
    rng = random.Random(seed)
    perturbed = placement.copy()
    cells = list(perturbed.positions)
    for cell in rng.sample(cells, int(len(cells) * fraction)):
        x, y = perturbed.positions[cell]
        nx = min(perturbed.width - 1,
                 max(0, x + rng.randint(-amount, amount)))
        ny = min(perturbed.height - 1,
                 max(0, y + rng.randint(-amount, amount)))
        perturbed.positions[cell] = (nx, ny)
    return perturbed
