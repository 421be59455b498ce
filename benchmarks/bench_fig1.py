"""F1 — Fig. 1: the classical EDA flow, security-blind by construction.

Runs the full classical pipeline (logic synthesis -> techmap ->
placement -> STA/power -> ATPG) on three workloads and prints per-stage
PPA, demonstrating (a) the flow works as a flow and (b) it performs
exactly zero security checks — the gap the paper's Fig. 1 caption
points at.  As the contrast, the secure flow runs the same masked
design and reports its security verdicts.
"""

from repro.core import SecureFlow, masked_and_design, tvla_requirement
from repro.crypto import aes_sbox_netlist
from repro.flow import PassManager, classical_pipeline, netlist_design
from repro.netlist import array_multiplier, ppa_report, ripple_carry_adder


WORKLOADS = {
    "rca8": lambda: ripple_carry_adder(8),
    "mult4": lambda: array_multiplier(4),
    "aes_sbox": lambda: aes_sbox_netlist(),
}


def run_classical():
    """Fig. 1 on every workload: ``{name: (FlowRunResult, final PPA)}``."""
    results = {}
    for name, factory in WORKLOADS.items():
        outcome = PassManager().run(
            netlist_design(factory()),
            classical_pipeline(placement_iterations=4000))
        results[name] = (outcome, ppa_report(outcome.design.netlist))
    return results


def test_fig1_classical_flow(benchmark):
    results = benchmark.pedantic(run_classical, rounds=1, iterations=1)
    print("\n=== Fig. 1: classical EDA flow (no security considered) ===")
    print(f"{'design':<10} {'cells':>6} {'area':>8} {'delay ps':>9} "
          f"{'hpwl':>7} {'stuck-at cov':>12} {'security checks':>16}")
    for name, (outcome, ppa) in results.items():
        passes = outcome.trace.passes
        hpwl = next(p.details["hpwl"] for p in passes
                    if "hpwl" in p.details)
        coverage = next(
            (p.details["stuck_at_coverage"] for p in passes
             if "stuck_at_coverage" in p.details), float("nan"))
        checks = len(outcome.trace.all_rechecks())
        print(f"{name:<10} {ppa.cell_count:>6} {ppa.area:>8.1f} "
              f"{ppa.delay:>9.1f} {hpwl:>7.0f} {coverage:>12.2f} "
              f"{checks:>16}")
        assert checks == 0  # the defining property of Fig. 1
    print("\n(per-stage trace for rca8)")
    print(results["rca8"][0].trace.render())


def test_fig1_secure_flow_contrast(benchmark):
    def run():
        flow = SecureFlow([tvla_requirement(n_traces=2500)],
                          placement_iterations=1500)
        return flow.run(masked_and_design())

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    rechecks = result.trace.all_rechecks()
    print("\n=== contrast: the security-centric flow on the same "
          "substrate ===")
    print(f"security checks executed: {len(rechecks)}; failures: "
          f"{len(result.failures)}")
    for check in rechecks:
        print(f"   {check.line}")
    assert rechecks
    assert result.all_passed
