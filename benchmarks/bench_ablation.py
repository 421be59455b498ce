"""Ablations of the design choices DESIGN.md calls out.

A1 — Fig. 2 mechanism: is it really *timing pressure on late
     randomness* that breaks the gadget, or does any re-association?
     Compare re-association under uniform arrivals vs late-RNG
     arrivals, and balanced rebuilding as a third arm.
A2 — evaluation budget: the composition engine's verdict depends on
     its trace budget (paper Sec. II-C: threat-model evaluation is
     limited by computational cost).  Sweep the budget and find the
     cheapest one that still flags the parity break.
A3 — structural vs oracle-guided attacks on locking: the structural
     read-off needs no oracle at all and survives resynthesis (SAIL),
     while the SAT attack needs oracle access but defeats *any*
     structure.
A4 — distinguisher choice: CPA vs MIA trace efficiency on the same
     leaky target (linear leakage favours CPA; MIA needs no model
     linearity).
"""

import random

import pytest

from repro.core import CompositionEngine, masked_and_design, \
    parity_countermeasure
from repro.crypto import sbox_with_key_netlist
from repro.ip import (
    attack_locked_circuit,
    lock_xor,
    resynthesis_resistance,
)
from repro.netlist import encode_int, random_circuit
from repro.sca import (
    cpa_attack,
    isw_and_netlist,
    leakage_traces,
    mia_attack,
    random_share_stimulus,
    tvla,
)
from repro.synth import balance_trees, reassociate_for_timing


def _gadget_tvla(netlist, seed, n=4000):
    rng_f, rng_r = random.Random(seed), random.Random(seed + 1)
    fixed = [random_share_stimulus(1, 1, 3, rng_f) for _ in range(n)]
    rand = [
        random_share_stimulus(rng_r.randint(0, 1), rng_r.randint(0, 1),
                              3, rng_r)
        for _ in range(n)
    ]
    return tvla(
        leakage_traces(netlist, fixed, noise_sigma=0.25, seed=seed),
        leakage_traces(netlist, rand, noise_sigma=0.25, seed=seed + 1),
    ).max_abs_t


def run_reassociation_ablation():
    arms = {}
    base = isw_and_netlist()
    arms["no-optimization"] = _gadget_tvla(base, 1)

    uniform = isw_and_netlist()
    reassociate_for_timing(uniform)            # all arrivals equal
    arms["reassoc-uniform-arrivals"] = _gadget_tvla(uniform, 11)

    late = isw_and_netlist()
    late_arrivals = {f"r_{i}_{j}": 1e5
                     for i in range(3) for j in range(i + 1, 3)}
    reassociate_for_timing(late, input_arrivals=late_arrivals)
    arms["reassoc-late-randomness"] = _gadget_tvla(late, 21)

    balanced = isw_and_netlist()
    balance_trees(balanced)
    arms["balanced-rebuild"] = _gadget_tvla(balanced, 31)
    return arms


def test_a1_fig2_mechanism(benchmark):
    arms = benchmark.pedantic(run_reassociation_ablation, rounds=1,
                              iterations=1)
    print("\n=== A1: what exactly breaks the masking? ===")
    for name, t in arms.items():
        verdict = "FAIL" if t > 4.5 else "pass"
        print(f"   {name:<28} TVLA max|t| = {t:6.2f}  {verdict}")
    assert arms["no-optimization"] < 4.5
    # the late-randomness timing scenario is the reliable killer
    assert arms["reassoc-late-randomness"] > 4.5
    # and it must be markedly worse than the baseline
    assert (arms["reassoc-late-randomness"]
            > 3 * arms["no-optimization"])


def run_budget_ablation():
    rows = {}
    for budget in (250, 1000, 4000):
        engine = CompositionEngine(n_traces=budget, noise_sigma=0.25,
                                   seed=1)
        _, report = engine.compose(masked_and_design(),
                                   [parity_countermeasure()])
        flagged = any(e.metric == "tvla_max_t" and e.harmful
                      for e in report.cross_effects)
        rows[budget] = (report.steps[-1][1].tvla_max_t, flagged)
    return rows


def test_a2_evaluation_budget(benchmark):
    rows = benchmark.pedantic(run_budget_ablation, rounds=1,
                              iterations=1)
    print("\n=== A2: composition verdict vs evaluation budget ===")
    for budget, (t, flagged) in rows.items():
        print(f"   {budget:>5} traces: parity-step max|t| = {t:6.1f}, "
              f"flagged = {flagged}")
    # the t statistic grows with budget (sqrt-N), so verdicts firm up
    ts = [t for t, _ in rows.values()]
    assert ts[-1] > ts[0]
    # at the full budget, the break is always caught
    assert rows[4000][1]


def run_attack_comparison():
    base = random_circuit(8, 80, 4, seed=9)
    locked = lock_xor(base, 12, seed=9)
    plain_acc, resynth_acc = resynthesis_resistance(locked)
    sat = attack_locked_circuit(locked)
    return {
        "structural_plain": plain_acc,
        "structural_resynth": resynth_acc,
        "sat_dips": sat.iterations,
        "sat_success": sat.success,
    }


def test_a3_structural_vs_sat(benchmark):
    result = benchmark.pedantic(run_attack_comparison, rounds=1,
                                iterations=1)
    print("\n=== A3: structural (no oracle) vs SAT (oracle) attacks ===")
    print(f"   structural read-off accuracy: "
          f"{result['structural_plain']:.0%} on the shipped netlist, "
          f"{result['structural_resynth']:.0%} after NAND resynthesis")
    print(f"   oracle-guided SAT attack: success = "
          f"{result['sat_success']} in {result['sat_dips']} DIPs")
    assert result["structural_plain"] == 1.0
    assert result["structural_resynth"] >= 0.7
    assert result["sat_success"]


def run_distinguisher_comparison():
    net = sbox_with_key_netlist()
    rng = random.Random(3)
    true_key = 0xB2
    pts = [rng.randrange(256) for _ in range(1500)]
    stims = []
    for pt in pts:
        s = encode_int(pt, [f"p{i}" for i in range(8)])
        s.update(encode_int(true_key, [f"k{i}" for i in range(8)]))
        stims.append(s)
    traces = leakage_traces(net, stims, noise_sigma=2.0, seed=4)
    rows = {}
    for n in (400, 800, 1500):
        cpa_rank = cpa_attack(traces[:n], pts[:n]).rank_of(true_key)
        mia_rank = mia_attack(traces[:n], pts[:n]).rank_of(true_key)
        rows[n] = (cpa_rank, mia_rank)
    return rows


def test_a4_cpa_vs_mia(benchmark):
    rows = benchmark.pedantic(run_distinguisher_comparison, rounds=1,
                              iterations=1)
    print("\n=== A4: CPA vs MIA rank of the true key vs trace count ===")
    print(f"   {'traces':>7} {'CPA rank':>9} {'MIA rank':>9}")
    for n, (cpa_rank, mia_rank) in rows.items():
        print(f"   {n:>7} {cpa_rank:>9} {mia_rank:>9}")
    # both distinguishers converge to rank 0 with enough traces
    assert rows[1500][0] == 0
    assert rows[1500][1] == 0
    # CPA (matched to the linear HW leakage) is at least as efficient
    assert rows[400][0] <= rows[400][1] + 5
