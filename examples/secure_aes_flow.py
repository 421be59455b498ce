#!/usr/bin/env python
"""Security evaluation of an AES first-round datapath, stage by stage.

Walks one workload — the keyed S-box ``y = SBOX[pt ^ k]`` — through the
security-centric evaluations the paper assigns to each design stage:

* HLS: information-flow tracking, QIF, masking, register flushing;
* logic synthesis: WDDL hiding, leaking-gate localization;
* timing/power verification: CPA measurements-to-disclosure, glitches;
* testing: the scan attack and the secure-scan fix;

then runs the whole secure flow as ONE pass-manager pipeline and prints
its machine-readable provenance trace (which pass established which
property, what each pass re-checked and why).

Run:  python examples/secure_aes_flow.py
"""

import json
import random

from repro.crypto import sbox_with_key_netlist
from repro.dft import ScanChipModel, scan_attack
from repro.flow import (BufferSweepPass, MaskInsertionPass, PassManager,
                        PlacementPass, SecurityProperty, StaSignoffPass,
                        netlist_design, strip_wall_times, tvla_checker)
from repro.hls import (aes_first_round_dfg, dfg_output_leakage,
                       evaluate_hls_cpa, mask_sbox_kernel, taint_analysis)
from repro.netlist import encode_int, ppa_report
from repro.sca import (cpa_attack, dual_rail_stimulus, leakage_traces,
                       leaking_gate_report, locate_leaking_nets,
                       traces_to_disclosure, tvla, wddl_transform)

TRUE_KEY = 0x5A


def stage_hls() -> None:
    print("== HLS: information flow and masking ==")
    plain = aes_first_round_dfg()
    masked = mask_sbox_kernel()
    print(f"   taint: plain kernel tainted outputs = "
          f"{taint_analysis(plain).tainted_outputs}")
    print(f"   taint: masked kernel tainted outputs = "
          f"{taint_analysis(masked).tainted_outputs} "
          f"(healed: {taint_analysis(masked).healed_by_masking})")
    print(f"   QIF of plain output w.r.t. key: "
          f"{dfg_output_leakage(plain, 'ct', 'key', 'pt'):.0f} bits")
    plain_cpa = evaluate_hls_cpa(plain, TRUE_KEY, n_traces=1200,
                                 noise_sigma=0.8, seed=1)
    masked_cpa = evaluate_hls_cpa(masked, TRUE_KEY, n_traces=1200,
                                  noise_sigma=0.8, seed=2)
    print(f"   HLS-level CPA rank of true key: plain "
          f"{plain_cpa.cpa_rank_of_true_key}, masked "
          f"{masked_cpa.cpa_rank_of_true_key}")


def build_stimuli(fixed_pt, n, seed):
    rng = random.Random(seed)
    stimuli = []
    for _ in range(n):
        pt = fixed_pt if fixed_pt is not None else rng.randrange(256)
        stim = encode_int(pt, [f"p{i}" for i in range(8)])
        stim.update(encode_int(TRUE_KEY, [f"k{i}" for i in range(8)]))
        stimuli.append(stim)
    return stimuli


def stage_logic_synthesis() -> None:
    print("== logic synthesis: TVLA, localization, WDDL ==")
    target = sbox_with_key_netlist()
    fixed = build_stimuli(0x3C, 1500, 1)
    rand = build_stimuli(None, 1500, 2)
    plain = tvla(leakage_traces(target, fixed, noise_sigma=1.0, seed=3),
                 leakage_traces(target, rand, noise_sigma=1.0, seed=4))
    print(f"   plain keyed S-box: TVLA max|t| = {plain.max_abs_t:.1f} "
          f"(leaks: {plain.leaks})")
    leaks = locate_leaking_nets(target, fixed[:1000], rand[:1000])
    print("   leaking-gate localization (top 3):")
    for line in leaking_gate_report(leaks, 3).splitlines():
        print("     " + line)
    dual, _ = wddl_transform(target)
    dual_result = tvla(
        leakage_traces(dual, [dual_rail_stimulus(s) for s in fixed],
                       noise_sigma=1.0, seed=5),
        leakage_traces(dual, [dual_rail_stimulus(s) for s in rand],
                       noise_sigma=1.0, seed=6))
    cost = ppa_report(dual).area / ppa_report(target).area
    print(f"   WDDL: TVLA max|t| = {dual_result.max_abs_t:.1f} "
          f"(leaks: {dual_result.leaks}) at {cost:.1f}x area")


def stage_power_verification() -> None:
    print("== timing/power verification: CPA measurements-to-disclosure ==")
    target = sbox_with_key_netlist()
    rng = random.Random(7)
    pts = [rng.randrange(256) for _ in range(1200)]
    stims = []
    for pt in pts:
        s = encode_int(pt, [f"p{i}" for i in range(8)])
        s.update(encode_int(TRUE_KEY, [f"k{i}" for i in range(8)]))
        stims.append(s)
    for sigma in (1.0, 4.0):
        traces = leakage_traces(target, stims, noise_sigma=sigma, seed=8)
        result = cpa_attack(traces, pts)
        mtd = traces_to_disclosure(traces, pts, TRUE_KEY)
        print(f"   noise sigma={sigma}: CPA best key = "
              f"{result.best_key:#04x} (true {TRUE_KEY:#04x}), "
              f"measurements-to-disclosure = {mtd}")


def stage_testing() -> None:
    print("== testing: scan attack vs secure scan ==")
    key = [random.Random(9).randrange(256) for _ in range(16)]
    insecure = scan_attack(ScanChipModel(key, secure=False))
    secure = scan_attack(ScanChipModel(key, secure=True))
    print(f"   plain scan chain: key recovered = {insecure.success}")
    print(f"   secure scan:      key recovered = {secure.success}")


def stage_pipeline() -> None:
    print("== the secure flow as a pass pipeline (FlowTrace provenance) ==")
    design = netlist_design(sbox_with_key_netlist(), name="secure-aes")
    # Each TVLA class is drawn as packed columns: input -> n-bit word.
    design.tvla_fixed = lambda n, rng: dict(
        encode_int(0x3C, [f"p{i}" for i in range(8)], n),
        **encode_int(TRUE_KEY, [f"k{i}" for i in range(8)], n))
    design.tvla_random = lambda n, rng: dict(
        {f"p{i}": rng.getrandbits(n) for i in range(8)},
        **encode_int(TRUE_KEY, [f"k{i}" for i in range(8)], n))

    manager = PassManager(
        checkers={SecurityProperty.TVLA_BOUND: tvla_checker(n_traces=500)},
        seed=0)
    outcome = manager.run(
        design,
        [MaskInsertionPass(),            # establishes masking + TVLA bound
         BufferSweepPass(),              # preserves both -> no re-check
         PlacementPass(iterations=400),  # preserves both -> no re-check
         StaSignoffPass()],
        goals=[SecurityProperty.TVLA_BOUND])
    for line in outcome.trace.render().splitlines():
        print("   " + line)
    blob = json.dumps(strip_wall_times(outcome.trace.to_dict()))
    print(f"   machine-readable trace: {len(blob)} bytes of JSON, "
          f"all checks passed = {outcome.all_passed}")


def main() -> None:
    stage_hls()
    stage_logic_synthesis()
    stage_power_verification()
    stage_testing()
    stage_pipeline()


if __name__ == "__main__":
    main()
