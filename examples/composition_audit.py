#!/usr/bin/env python
"""Secure composition audit — the paper's Sec. IV made executable.

Starting from a first-order masked AND gadget, this script composes
countermeasure stacks and lets the composition engine re-verify every
threat after each step:

* masking + duplication-based fault detection  -> composes safely;
* masking + parity-based fault detection       -> the parity checker
  physically computes the XOR of the shares (= the unmasked secret),
  TVLA fails, and the engine flags the cross-effect (ref [61]);
* masking + security-unaware timing optimization -> the Fig. 2 break.

Run:  python examples/composition_audit.py
"""

from repro.core import (
    CompositionEngine,
    DetectionConstraint,
    LeakageConstraint,
    MaskingConstraint,
    SecureFlow,
    compile_and_check,
    duplication_countermeasure,
    masked_and_design,
    parity_countermeasure,
    register_from_composition,
    timing_reassociation_step,
    tvla_requirement,
    no_leaky_net_requirement,
    wddl_countermeasure,
)


def main() -> None:
    engine = CompositionEngine(n_traces=4000, noise_sigma=0.25, seed=1)

    stacks = {
        "masking + duplication": [duplication_countermeasure()],
        "masking + parity": [parity_countermeasure()],
        "masking + timing re-association": [timing_reassociation_step()],
        "masking + WDDL": [wddl_countermeasure()],
    }
    for name, stack in stacks.items():
        print(f"\n##### {name} #####")
        _, report = engine.compose(masked_and_design(), stack)
        print(report.render())
        verdict = ("COMPOSITION UNSAFE" if report.harmful_effects
                   else "composition safe")
        print(f">>> {verdict}")

    print("\n##### the same check inside the secure flow #####")
    flow = SecureFlow(
        [tvla_requirement(n_traces=3000),
         no_leaky_net_requirement(n_traces=2500)],
        transforms=[parity_countermeasure()],
        placement_iterations=1000)
    result = flow.run(masked_and_design())
    print(result.trace.render())
    print(f"\nflow verdict: "
          f"{'signoff BLOCKED' if result.failures else 'signoff clean'}")

    print("\n##### constraint compilation down to the bare metal #####")
    constraints = [
        LeakageConstraint(n_traces=2500),
        MaskingConstraint(n_traces=2000),
        DetectionConstraint(),
    ]
    for name, countermeasure in (
            ("duplication", duplication_countermeasure()),
            ("parity", parity_countermeasure())):
        design = countermeasure.apply(masked_and_design())
        print(f"\n--- constraints vs masking + {name} ---")
        print(compile_and_check(design, constraints).render())

    print("\n##### risk register hand-off #####")
    engine = CompositionEngine(n_traces=3000, seed=9)
    _, parity_report = engine.compose(masked_and_design(),
                                      [parity_countermeasure()])
    register = register_from_composition("masked-and + parity",
                                         parity_report)
    print(register.render())


if __name__ == "__main__":
    main()
