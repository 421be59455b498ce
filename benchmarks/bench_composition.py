"""X1 — Sec. IV composition cross-effects (ref [61]).

The paper: "adding error-detecting logic can deteriorate resilience
against SCAs".  This bench composes fault detection onto a masked
gadget two ways and reproduces the exact effect:

* duplication-with-comparison: FIA coverage 0 -> 1.0, TVLA unchanged;
* parity prediction: FIA coverage 0 -> 1.0 BUT the parity wire carries
  the XOR of the shares — the unmasked secret — and TVLA explodes.

The composition engine must flag the second stack and pass the first.
Its TVLA verdict is confirmed on a second trace set, so the verdict
holds across seeds: over 100 consecutive seeds the parity stack is
always flagged and the masked baseline never reads as a confirmed leak,
although a single trace set fails it by chance now and then.
"""

import pytest

from repro.core import CompositionEngine, masked_and_design
from repro.flow import DuplicationDetectPass, ParityDetectPass, WddlPass
from repro.sca import TVLA_THRESHOLD

#: Composition seeds of the verdict sweep: consecutive, fixed in advance.
SWEEP_SEEDS = range(100)
SWEEP_TRACES = 2000


def run_composition_matrix():
    engine = CompositionEngine(n_traces=4000, noise_sigma=0.25, seed=1)
    stacks = {
        "duplication": [DuplicationDetectPass()],
        "parity": [ParityDetectPass()],
        "wddl": [WddlPass()],
    }
    out = {}
    for name, stack in stacks.items():
        _, report = engine.compose(masked_and_design(), stack)
        baseline = report.steps[0][1]
        final = report.steps[-1][1]
        out[name] = {
            "baseline_t": baseline.tvla_max_t,
            "final_t": final.tvla_max_t,
            "baseline_cov": baseline.fia_coverage,
            "final_cov": final.fia_coverage,
            "area_factor": final.area / baseline.area,
            "flagged": bool(report.harmful_effects),
            "notes": [e.note for e in report.harmful_effects],
        }
    return out


def test_composition_cross_effects(benchmark):
    matrix = benchmark.pedantic(run_composition_matrix, rounds=1,
                                iterations=1)
    print("\n=== Sec. IV: composition of masking + fault detection ===")
    print(f"{'stack':<14} {'TVLA |t| before':>16} {'after':>8} "
          f"{'FIA cov before':>15} {'after':>7} {'area x':>7} "
          f"{'flagged':>8}")
    for name, row in matrix.items():
        print(f"{name:<14} {row['baseline_t']:>16.2f} "
              f"{row['final_t']:>8.2f} {row['baseline_cov']:>15.2f} "
              f"{row['final_cov']:>7.2f} {row['area_factor']:>7.2f} "
              f"{str(row['flagged']):>8}")
    dup, par = matrix["duplication"], matrix["parity"]
    # Both reach full fault-detection coverage...
    assert dup["final_cov"] == 1.0 and par["final_cov"] == 1.0
    # ...but only parity destroys the masking, and the engine sees it.
    assert dup["final_t"] < 4.5 and not dup["flagged"]
    assert par["final_t"] > 4.5 and par["flagged"]
    assert any("masking broken" in n for n in par["notes"])
    # WDDL composes safely with masking.
    assert matrix["wddl"]["final_t"] < 4.5


def run_verdict_sweep(seeds=SWEEP_SEEDS):
    """Masked-and + parity rows over ``seeds``: which rows go unflagged,
    which baselines the first trace set alone fails, and which baselines
    read as a confirmed leak (TVLA or a leaking net)."""
    unflagged, first_set_fails, confirmed_leaks = [], [], []
    for seed in seeds:
        row = CompositionEngine(n_traces=SWEEP_TRACES, seed=seed) \
            .evaluate_stack_row("masked-and", ["parity"])
        baseline = row["baseline"]
        if not row["flagged"]:
            unflagged.append(seed)
        if baseline["tvla_max_t"] > TVLA_THRESHOLD:
            first_set_fails.append(seed)
        if baseline["tvla_leaks"] or baseline["leaky_nets"]:
            confirmed_leaks.append(seed)
    return {"seeds": len(seeds), "unflagged": unflagged,
            "first_set_fails": first_set_fails,
            "confirmed_leaks": confirmed_leaks}


def test_composition_verdict_seed_sweep(benchmark):
    sweep = benchmark.pedantic(run_verdict_sweep, rounds=1, iterations=1)
    print(f"\n=== masked-and + parity over {sweep['seeds']} seeds "
          f"({SWEEP_TRACES} traces/class) ===")
    print(f"unflagged parity rows:                 {sweep['unflagged']}")
    print(f"baselines failing on the first set:    "
          f"{len(sweep['first_set_fails'])} {sweep['first_set_fails']}")
    print(f"baselines with a confirmed leak:       "
          f"{sweep['confirmed_leaks']}")
    assert not sweep["unflagged"]
    assert not sweep["confirmed_leaks"]
