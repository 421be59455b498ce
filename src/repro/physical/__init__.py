"""Physical synthesis: placement, timing, routing, security closure."""

from .placement import (
    Placement,
    PlacementResult,
    annealing_placement,
    hpwl,
    nets_for_wirelength,
    random_placement,
)
from .timing import (
    PathDelayReport,
    WIRE_DELAY_PER_UNIT,
    arrival_times_placed,
    critical_path_placed,
    output_path_delays,
    power_density_map,
    wire_delay,
)
from .layers import (
    DEFAULT_THRESHOLDS,
    Wire,
    assign_layers,
    layer_histogram,
    split_wires,
)
from .routing import (
    DEFAULT_NUM_LAYERS,
    RoutedLayout,
    RoutedNet,
    maze_route,
    reroute_nets,
    routing_nets,
)
from .attack_surface import (
    FiaReport,
    ProbingReport,
    TrojanReport,
    fia_exposure,
    probing_exposure,
    trojan_insertability,
    uncovered_critical_nodes,
)
from .closure import (
    ClosureMetrics,
    ClosureResult,
    ClosureThresholds,
    bury_critical_nets,
    default_critical_nets,
    insert_fillers,
    insert_shields,
    security_closure,
)

__all__ = [
    "Placement", "PlacementResult", "annealing_placement", "hpwl",
    "nets_for_wirelength", "random_placement",
    "PathDelayReport", "WIRE_DELAY_PER_UNIT", "arrival_times_placed",
    "critical_path_placed", "output_path_delays",
    "power_density_map", "wire_delay",
    "DEFAULT_THRESHOLDS", "Wire", "assign_layers", "layer_histogram",
    "split_wires",
    "DEFAULT_NUM_LAYERS", "RoutedLayout", "RoutedNet", "maze_route",
    "reroute_nets", "routing_nets",
    "FiaReport", "ProbingReport", "TrojanReport", "fia_exposure",
    "probing_exposure", "trojan_insertability",
    "uncovered_critical_nodes",
    "ClosureMetrics", "ClosureResult", "ClosureThresholds",
    "bury_critical_nets", "default_critical_nets", "insert_fillers",
    "insert_shields", "security_closure",
]
