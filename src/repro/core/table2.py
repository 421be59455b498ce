"""Executable Table II: one working scheme per (design stage, threat).

The paper's Table II surveys which security schemes belong at which EDA
stage.  Here every cell is an executable demo over the shared
substrates, returning a measured metric — running :func:`run_all`
regenerates the table with evidence instead of citations.
Demos are sized to finish in about a second each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List

from .stages import DesignStage
from .threats import ThreatVector


@dataclass
class CellResult:
    """Outcome of one Table II cell demo."""

    stage: DesignStage
    threat: ThreatVector
    scheme: str
    metric: str
    value: float
    detail: str = ""


@dataclass
class CellDemo:
    stage: DesignStage
    threat: ThreatVector
    scheme: str
    run: Callable[[], CellResult]


_DEMOS: List[CellDemo] = []


def _demo(stage: DesignStage, threat: ThreatVector, scheme: str):
    def decorator(fn: Callable[[], CellResult]):
        _DEMOS.append(CellDemo(stage, threat, scheme, fn))
        return fn
    return decorator


def _result(stage, threat, scheme, metric, value, detail=""):
    return CellResult(stage, threat, scheme, metric, float(value), detail)


# ----------------------------------------------------------------------
# Row 1: high-level synthesis
# ----------------------------------------------------------------------

@_demo(DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.SIDE_CHANNEL,
       "IFT [14] + masking [5] + register flushing")
def hls_sca() -> CellResult:
    from ..hls import (aes_first_round_dfg, flushed_exposure,
                       insert_register_flushes, list_schedule,
                       mask_sbox_kernel, taint_analysis)
    resources = {"alu": 1, "sbox": 1, "mul": 1, "rng": 1}
    plain = aes_first_round_dfg()
    masked = mask_sbox_kernel()
    tainted_plain = len(taint_analysis(plain).tainted_outputs)
    tainted_masked = len(taint_analysis(masked).tainted_outputs)
    labels = taint_analysis(masked).labels
    before = flushed_exposure(list_schedule(masked, resources), labels)
    flushed, _ = insert_register_flushes(masked, labels)
    after = flushed_exposure(list_schedule(flushed, resources), labels)
    return _result(
        DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.SIDE_CHANNEL,
        "IFT+masking+flushing", "secret_exposure_cycles_saved",
        before - after,
        f"tainted outputs {tainted_plain}->{tainted_masked} after "
        f"masking; exposure {before}->{after} cycles after flushing")


@_demo(DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.FAULT_INJECTION,
       "error-detecting architectures [10] / infective [18]")
def hls_fia() -> CellResult:
    from ..fia import DfaAttacker, InfectiveAES, dfa_on_unprotected
    key = [random.Random(7).randrange(256) for _ in range(16)]
    bare = dfa_on_unprotected(key, seed=1, max_faults_per_byte=6)
    infective = InfectiveAES(key, seed=2)
    attacker = DfaAttacker(
        infective.encrypt,
        lambda pt, b, f: infective.encrypt_with_fault(pt, b, f), seed=3)
    protected = attacker.attack(max_faults_per_byte=4)
    return _result(
        DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.FAULT_INJECTION,
        "infective countermeasure", "dfa_blocked",
        1.0 if (bare.success and not protected.success) else 0.0,
        f"bare AES: key recovered with {bare.faults_used} faults; "
        f"infective: attack failed after {protected.faults_used} faults")


@_demo(DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.IP_PIRACY,
       "metering IP incl. PUFs [19]")
def hls_piracy() -> CellResult:
    from ..ip import MeteringAuthority, overbuild_attack
    authority = MeteringAuthority()
    chips = authority.fabricate(3, seed=11)
    legit = authority.activate(chips[0])
    pirated = overbuild_attack(authority, chips[0], chips[1])
    return _result(
        DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.IP_PIRACY,
        "active metering", "overbuild_blocked",
        1.0 if (legit and not pirated) else 0.0,
        "legit chip activates; replayed sequence fails on overbuilt chip")


@_demo(DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.TROJAN,
       "self-authentication / BISA [20]")
def hls_trojan() -> CellResult:
    from ..netlist import random_circuit
    from ..physical import annealing_placement
    from ..trojan import bisa_fill, insertion_feasibility
    netlist = random_circuit(10, 80, 4, seed=3)
    placement = annealing_placement(netlist, iterations=2000, seed=3).placement
    before = insertion_feasibility(
        placement, bisa_fill(placement, 0.0), trojan_sites_needed=4)
    fill = bisa_fill(placement, 1.0)
    after = insertion_feasibility(placement, fill, trojan_sites_needed=4)
    return _result(
        DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.TROJAN,
        "BISA fill", "insertion_space_closed",
        1.0 if (before and not after) else 0.0,
        f"free sites {fill.free_sites_before}->{fill.free_sites_after}")


# ----------------------------------------------------------------------
# Row 2: logic synthesis
# ----------------------------------------------------------------------

@_demo(DesignStage.LOGIC_SYNTHESIS, ThreatVector.SIDE_CHANNEL,
       "gate-level protections (WDDL) [21] + leaking-gate identification")
def synth_sca() -> CellResult:
    from ..crypto import present_sbox_netlist
    from ..netlist import encode_int, simulate
    from ..sca import dual_rail_stimulus, leakage_traces, tvla, wddl_transform
    sbox = present_sbox_netlist()
    xs = [f"x{i}" for i in range(4)]
    rng = random.Random(5)
    fixed = [encode_int(0xB, xs) for _ in range(1200)]
    rand = [encode_int(rng.randrange(16), xs) for _ in range(1200)]
    plain_t = tvla(
        leakage_traces(sbox, fixed, noise_sigma=0.6, seed=1),
        leakage_traces(sbox, rand, noise_sigma=0.6, seed=2)).max_abs_t
    dual, _ = wddl_transform(sbox)
    dual_t = tvla(
        leakage_traces(dual, [dual_rail_stimulus(s) for s in fixed],
                       noise_sigma=0.6, seed=3),
        leakage_traces(dual, [dual_rail_stimulus(s) for s in rand],
                       noise_sigma=0.6, seed=4)).max_abs_t
    return _result(
        DesignStage.LOGIC_SYNTHESIS, ThreatVector.SIDE_CHANNEL,
        "WDDL", "tvla_t_reduction", plain_t - dual_t,
        f"plain S-box |t|={plain_t:.1f} (fails); WDDL |t|={dual_t:.1f}")


@_demo(DesignStage.LOGIC_SYNTHESIS, ThreatVector.FAULT_INJECTION,
       "automatic fault analysis [22]")
def synth_fia() -> CellResult:
    from ..fia import Fault, FaultKind, duplicate_and_compare, formal_coverage
    from ..netlist import ripple_carry_adder
    protected = duplicate_and_compare(ripple_carry_adder(4))
    faults = [
        Fault(name, FaultKind.STUCK_AT_0)
        for name in protected.netlist.gates if name.startswith("m_")
    ][:12]
    coverage, missed = formal_coverage(protected.netlist, faults, "alarm")
    return _result(
        DesignStage.LOGIC_SYNTHESIS, ThreatVector.FAULT_INJECTION,
        "formal fault analysis", "proven_coverage", coverage,
        f"{len(faults)} faults formally analyzed, {len(missed)} missed")


@_demo(DesignStage.LOGIC_SYNTHESIS, ThreatVector.IP_PIRACY,
       "camouflaging [23] / logic locking [24]")
def synth_piracy() -> CellResult:
    from ..ip import lock_xor, wrong_key_error_rate
    from ..netlist import random_circuit
    locked = lock_xor(random_circuit(8, 80, 4, seed=9), 16, seed=9)
    error_rate = wrong_key_error_rate(locked, trials=16, vectors=64)
    return _result(
        DesignStage.LOGIC_SYNTHESIS, ThreatVector.IP_PIRACY,
        "EPIC locking", "wrong_key_error_rate", error_rate,
        f"{locked.key_bits} key bits inserted")


@_demo(DesignStage.LOGIC_SYNTHESIS, ThreatVector.TROJAN,
       "automatic insertion of security monitors [25]")
def synth_trojan() -> CellResult:
    from ..formal import CircuitEncoder
    from ..netlist import random_circuit
    from ..trojan import insert_monitors, insert_rare_trigger_trojan
    base = random_circuit(10, 100, 4, seed=21)
    monitored = insert_monitors(base)
    trojan = insert_rare_trigger_trojan(monitored.netlist, trigger_width=2,
                                        seed=2, victim=None)
    # Prove silent corruption is impossible: no input makes a monitored
    # output diverge from the clean design while the alarm stays 0.
    enc = CircuitEncoder()
    clean_vars = enc.encode(base)
    shared = {name: clean_vars[name] for name in base.inputs}
    dirty_vars = enc.encode(trojan.netlist, bind=shared)
    diffs = [enc.xor_of(clean_vars[o], dirty_vars[o])
             for o in base.outputs]
    enc.assert_equal(enc.or_of(diffs), 1)
    enc.assert_equal(dirty_vars["monitor_alarm"], 0)
    silent_corruption_possible = enc.solver.solve()
    caught = 0.0 if silent_corruption_possible else 1.0
    return _result(
        DesignStage.LOGIC_SYNTHESIS, ThreatVector.TROJAN,
        "security monitors (TPAD)", "silent_payload_proven_impossible",
        caught,
        f"monitor overhead {monitored.overhead_cells} cells; SAT proof "
        "over all inputs")


# ----------------------------------------------------------------------
# Row 3: physical synthesis
# ----------------------------------------------------------------------

@_demo(DesignStage.PHYSICAL_SYNTHESIS, ThreatVector.SIDE_CHANNEL,
       "low-level leakage analysis (TVLA) [16]")
def phys_sca() -> CellResult:
    from ..crypto import sbox_with_key_netlist
    from ..netlist import encode_int
    from ..sca import leakage_traces, tvla
    netlist = sbox_with_key_netlist()
    rng = random.Random(2)
    key = 0x5A

    def stim(pt):
        s = encode_int(pt, [f"p{i}" for i in range(8)])
        s.update(encode_int(key, [f"k{i}" for i in range(8)]))
        return s

    fixed = [stim(0x3C) for _ in range(1200)]
    rand = [stim(rng.randrange(256)) for _ in range(1200)]
    result = tvla(
        leakage_traces(netlist, fixed, noise_sigma=1.0, seed=5),
        leakage_traces(netlist, rand, noise_sigma=1.0, seed=6))
    return _result(
        DesignStage.PHYSICAL_SYNTHESIS, ThreatVector.SIDE_CHANNEL,
        "pre-silicon TVLA", "max_abs_t", result.max_abs_t,
        f"unprotected keyed S-box fails TVLA "
        f"(threshold {result.threshold})")


@_demo(DesignStage.PHYSICAL_SYNTHESIS, ThreatVector.FAULT_INJECTION,
       "embedding FIA sensors [9], [26] / shielding [29]")
def phys_fia() -> CellResult:
    from ..fia import greedy_sensor_placement, injection_campaign
    rng = random.Random(4)
    cells = {f"g{i}": (rng.uniform(0, 60), rng.uniform(0, 60))
             for i in range(40)}
    plan = greedy_sensor_placement(cells, radius=15)
    campaign = injection_campaign(plan, list(cells.values()))
    return _result(
        DesignStage.PHYSICAL_SYNTHESIS, ThreatVector.FAULT_INJECTION,
        "sensor placement", "injection_detection_rate",
        campaign["detection_rate"],
        f"{len(plan.sensors)} sensors cover {len(cells)} critical cells")


@_demo(DesignStage.PHYSICAL_SYNTHESIS, ThreatVector.IP_PIRACY,
       "split manufacturing [27] + entropy primitives [30]")
def phys_piracy() -> CellResult:
    from ..ip import build_feol_view, lift_critical_nets, proximity_attack
    from ..ip.split import high_fanout_nets
    from ..netlist import ripple_carry_adder
    from ..physical import annealing_placement
    adder = ripple_carry_adder(8)
    placement = annealing_placement(adder, iterations=4000, seed=2).placement
    naive = proximity_attack(
        build_feol_view(adder, placement, split_layer=1)).ccr
    lifted = lift_critical_nets(adder, high_fanout_nets(adder, 25))
    defended = proximity_attack(
        build_feol_view(adder, placement, split_layer=1,
                        lifted=lifted)).ccr
    return _result(
        DesignStage.PHYSICAL_SYNTHESIS, ThreatVector.IP_PIRACY,
        "split mfg + wire lifting", "ccr_reduction", naive - defended,
        f"proximity attack CCR {naive:.2f} -> {defended:.2f} after lifting")


@_demo(DesignStage.PHYSICAL_SYNTHESIS, ThreatVector.TROJAN,
       "embedding sensors (RO network) [26], [28]")
def phys_trojan() -> CellResult:
    from ..netlist import random_circuit
    from ..physical import annealing_placement
    from ..trojan import (build_ro_network, insert_rare_trigger_trojan,
                          ro_detection)
    base = random_circuit(12, 120, 6, seed=8)
    placement = annealing_placement(base, iterations=2000, seed=8).placement
    trojan = insert_rare_trigger_trojan(base, trigger_width=3, seed=1)
    compromised_placement = placement.copy()
    occupied = set(compromised_placement.positions.values())
    free = sorted(
        (x, y)
        for x in range(compromised_placement.width)
        for y in range(compromised_placement.height)
        if (x, y) not in occupied)
    trojan_cells = [g for g in trojan.netlist.gates if g.startswith("tj_")]
    for cell, site in zip(trojan_cells, free):
        compromised_placement.positions[cell] = site
    network = build_ro_network(placement)
    detected, max_z = ro_detection(
        network, base, placement, trojan.netlist, compromised_placement,
        trojan_cells)
    return _result(
        DesignStage.PHYSICAL_SYNTHESIS, ThreatVector.TROJAN,
        "RO sensor network", "trojan_detected", 1.0 if detected else 0.0,
        f"max |z| = {max_z:.1f} across the RO grid")


# ----------------------------------------------------------------------
# Row 4: functional validation
# ----------------------------------------------------------------------

@_demo(DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.SIDE_CHANNEL,
       "identification of architectural covert channels [31]")
def validation_sca() -> CellResult:
    from ..crypto import sbox_with_key_netlist
    from ..formal import check_equivalence
    # UPEC-style 2-copy check: does any output depend on the secret?
    netlist = sbox_with_key_netlist()
    result = check_equivalence(
        netlist, netlist,
        left_fixed={f"k{i}": 0 for i in range(8)},
        right_fixed={f"k{i}": (0xA5 >> i) & 1 for i in range(8)})
    found = 0.0 if result.equivalent else 1.0
    return _result(
        DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.SIDE_CHANNEL,
        "2-copy information-flow check", "secret_dependence_found", found,
        "two-key miter SAT: outputs depend on the key "
        "(a channel the checker must report)")


@_demo(DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.FAULT_INJECTION,
       "validation of error-detection properties [32]")
def validation_fia() -> CellResult:
    from ..fia import Fault, FaultKind, formal_coverage, parity_protect
    from ..netlist import ripple_carry_adder
    protected = parity_protect(ripple_carry_adder(3))
    faults = [
        Fault(name, FaultKind.STUCK_AT_1)
        for name in protected.netlist.gates if name.startswith("m_")
    ][:10]
    proven, missed = formal_coverage(protected.netlist, faults, "alarm")
    return _result(
        DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.FAULT_INJECTION,
        "bounded robustness proof", "parity_proven_fraction", proven,
        "formal analysis exposes parity's even-weight blind spot "
        f"({len(missed)}/{len(faults)} faults escape)")


@_demo(DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.IP_PIRACY,
       "locked-logic correctness + de-obfuscation attacks [33]")
def validation_piracy() -> CellResult:
    from ..formal import check_equivalence
    from ..ip import apply_key, attack_locked_circuit, lock_xor
    from ..netlist import random_circuit
    base = random_circuit(8, 60, 3, seed=13)
    locked = lock_xor(base, 12, seed=13)
    correct = check_equivalence(apply_key(locked), base).equivalent
    attack = attack_locked_circuit(locked)
    return _result(
        DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.IP_PIRACY,
        "verification as attacker", "sat_attack_dips",
        attack.iterations,
        f"correct-key equivalence {'holds' if correct else 'FAILS'}; "
        f"SAT attack recovers the key in {attack.iterations} DIPs")


@_demo(DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.TROJAN,
       "proof-carrying hardware [34]")
def validation_trojan() -> CellResult:
    from ..formal import prove_output_constant
    from ..netlist import random_circuit
    from ..trojan import insert_monitors, insert_rare_trigger_trojan
    base = random_circuit(10, 100, 4, seed=17)
    clean = insert_monitors(base)
    clean_proof = prove_output_constant(clean.netlist, "monitor_alarm", 0)
    trojaned = insert_rare_trigger_trojan(
        insert_monitors(base).netlist, trigger_width=2, seed=5)
    dirty_proof = prove_output_constant(
        trojaned.netlist, "monitor_alarm", 0)
    value = 1.0 if (clean_proof.holds and not dirty_proof.holds) else 0.0
    return _result(
        DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.TROJAN,
        "embedded property proof", "trojan_violates_carried_proof", value,
        "clean design proves 'alarm always 0'; Trojaned design yields a "
        "SAT witness (the trigger input)")


# ----------------------------------------------------------------------
# Row 5: timing and power verification
# ----------------------------------------------------------------------

@_demo(DesignStage.TIMING_POWER_VERIFICATION, ThreatVector.SIDE_CHANNEL,
       "pre-silicon power/timing simulation [36], [37] (glitches [55])")
def timing_sca() -> CellResult:
    from ..netlist import parity_tree
    from ..sca import glitch_simulate
    chain = parity_tree(8, balanced=False)
    balanced = parity_tree(8, balanced=True)
    before = {f"x{i}": 0 for i in range(8)}
    after = {f"x{i}": 1 for i in range(8)}
    chain_glitches = glitch_simulate(chain, before, after).glitch_count()
    balanced_glitches = glitch_simulate(balanced, before,
                                        after).glitch_count()
    return _result(
        DesignStage.TIMING_POWER_VERIFICATION, ThreatVector.SIDE_CHANNEL,
        "glitch-aware simulation", "chain_glitches",
        chain_glitches,
        f"unbalanced XOR chain glitches {chain_glitches}x vs "
        f"{balanced_glitches}x balanced — extra data-dependent activity")


@_demo(DesignStage.TIMING_POWER_VERIFICATION, ThreatVector.FAULT_INJECTION,
       "detailed modeling of fault injections [38]")
def timing_fia() -> CellResult:
    from ..netlist import ripple_carry_adder, encode_int, simulate
    from ..physical import annealing_placement, arrival_times_placed
    adder = ripple_carry_adder(8)
    placement = annealing_placement(adder, iterations=2000, seed=6).placement
    arrivals = arrival_times_placed(adder, placement)
    critical = max(arrivals[o] for o in adder.outputs)
    # A clock glitch shrinking the period below an output's arrival
    # captures a wrong value there: count vulnerable outputs per period.
    glitch_period = 0.7 * critical
    vulnerable = sum(
        1 for o in adder.outputs if arrivals[o] > glitch_period)
    return _result(
        DesignStage.TIMING_POWER_VERIFICATION, ThreatVector.FAULT_INJECTION,
        "electrical fault modeling", "outputs_vulnerable_to_clock_glitch",
        vulnerable,
        f"clock glitch at 70% of T_crit ({critical:.0f} ps) corrupts "
        f"{vulnerable}/{len(adder.outputs)} outputs")


@_demo(DesignStage.TIMING_POWER_VERIFICATION, ThreatVector.IP_PIRACY,
       "validation of low-level PUF properties")
def timing_piracy() -> CellResult:
    from ..ip import evaluate_arbiter_population
    metrics = evaluate_arbiter_population(
        n_chips=10, n_challenges=150, n_repeats=5)
    score = (1.0 - abs(metrics.uniformity - 0.5)
             ) * metrics.reliability * (1.0 - abs(metrics.uniqueness - 0.5))
    return _result(
        DesignStage.TIMING_POWER_VERIFICATION, ThreatVector.IP_PIRACY,
        "PUF characterization", "quality_score", score,
        f"uniformity {metrics.uniformity:.2f}, reliability "
        f"{metrics.reliability:.3f}, uniqueness {metrics.uniqueness:.2f}")


@_demo(DesignStage.TIMING_POWER_VERIFICATION, ThreatVector.TROJAN,
       "path-delay fingerprinting [35]")
def timing_trojan() -> CellResult:
    from ..netlist import random_circuit
    from ..trojan import (build_fingerprint, insert_rare_trigger_trojan,
                          screen_population)
    base = random_circuit(12, 120, 6, seed=19)
    trojan = insert_rare_trigger_trojan(base, trigger_width=3, seed=19)
    fingerprint = build_fingerprint(base, n_chips=25, seed=19)
    fpr, detection = screen_population(
        fingerprint, base, trojan.netlist, n_chips=12)
    return _result(
        DesignStage.TIMING_POWER_VERIFICATION, ThreatVector.TROJAN,
        "delay fingerprint", "detection_rate", detection,
        f"false-positive rate {fpr:.2f} on golden chips")


# ----------------------------------------------------------------------
# Row 6: testing
# ----------------------------------------------------------------------

@_demo(DesignStage.TESTING, ThreatVector.SIDE_CHANNEL,
       "securing DFT against read-out (scan attacks [39])")
def testing_sca() -> CellResult:
    from ..dft import ScanChipModel, scan_attack, test_access_still_works
    key = [random.Random(23).randrange(256) for _ in range(16)]
    insecure = scan_attack(ScanChipModel(key, secure=False))
    secure_chip = ScanChipModel(key, secure=True)
    secure = scan_attack(secure_chip)
    value = 1.0 if (insecure.success and not secure.success
                    and test_access_still_works(secure_chip)) else 0.0
    return _result(
        DesignStage.TESTING, ThreatVector.SIDE_CHANNEL,
        "secure scan", "readout_blocked_test_preserved", value,
        "plain scan leaks the full key in one capture; secure scan "
        "wipes state on mode switch, testability retained")


@_demo(DesignStage.TESTING, ThreatVector.FAULT_INJECTION,
       "DFX handling malicious vs natural failures [59]")
def testing_fia() -> CellResult:
    from ..dft import ChipState, DfxController
    from ..fia import attack_fault_stream, natural_fault_stream
    controller = DfxController()
    controller.provision_key(0x1234)
    for event in natural_fault_stream(3, 100_000, ["u1", "u2"], seed=1):
        controller.handle_alarm(event)
    survived_natural = controller.state is ChipState.MISSION
    for event in attack_fault_stream(8, 0, "crypto"):
        controller.handle_alarm(event)
    reacted = controller.key_epoch > 0 or not controller.operational
    return _result(
        DesignStage.TESTING, ThreatVector.FAULT_INJECTION,
        "security-aware DFX", "discrimination_correct",
        1.0 if (survived_natural and reacted) else 0.0,
        f"natural faults: resume; attack: epoch {controller.key_epoch}, "
        f"state {controller.state.value}")


@_demo(DesignStage.TESTING, ThreatVector.IP_PIRACY,
       "IP protection integrated into DFX")
def testing_piracy() -> CellResult:
    from ..dft import DfxController
    from ..fia import attack_fault_stream
    controller = DfxController()
    controller.provision_key(0xC0FFEE)
    key_before = controller.unlock_key(0)
    for event in attack_fault_stream(4, 0, "keyvault"):
        controller.handle_alarm(event)
    old_epoch_dead = controller.unlock_key(0) is None
    new_epoch_live = (controller.operational
                      and controller.unlock_key(controller.key_epoch)
                      is not None)
    value = 1.0 if (key_before is not None and old_epoch_dead) else 0.0
    return _result(
        DesignStage.TESTING, ThreatVector.IP_PIRACY,
        "DFX key management", "stale_key_revoked", value,
        f"epoch advanced to {controller.key_epoch}; old-epoch unlock "
        f"refused; current epoch "
        f"{'live' if new_epoch_live else 'disabled'}")


@_demo(DesignStage.TESTING, ThreatVector.TROJAN,
       "pattern generation for Trojan detection (MERO) [40]")
def testing_trojan() -> CellResult:
    from ..netlist import random_circuit
    from ..trojan import (generate_mero_tests, pair_trigger_coverage,
                          random_test_set)
    base = random_circuit(12, 150, 6, seed=8)
    mero = generate_mero_tests(base, n_detect=10, n_initial=200, seed=3)
    budget = max(1, len(mero.vectors))
    mero_cov = pair_trigger_coverage(base, mero.vectors)
    random_cov = pair_trigger_coverage(
        base, random_test_set(base, budget, seed=4))
    return _result(
        DesignStage.TESTING, ThreatVector.TROJAN,
        "MERO N-detect tests", "pair_coverage_gain", mero_cov - random_cov,
        f"rare-pair coverage {mero_cov:.2f} (MERO) vs {random_cov:.2f} "
        f"(random) at {budget} vectors")


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------

def all_demos() -> List[CellDemo]:
    """All registered Table II cell demos, in table order."""
    return list(_DEMOS)


def run_cell(stage: DesignStage, threat: ThreatVector) -> CellResult:
    """Execute the demo of one (stage, threat) cell."""
    for demo in _DEMOS:
        if demo.stage is stage and demo.threat is threat:
            return demo.run()
    raise KeyError(f"no demo for ({stage.value}, {threat.value})")


def run_all() -> List[CellResult]:
    """Execute every Table II cell; returns results in table order."""
    return [demo.run() for demo in _DEMOS]


def render_table(results: List[CellResult]) -> str:
    """Text rendering of the executed Table II."""
    lines = ["=== Table II, executed ==="]
    current_stage = None
    for r in results:
        if r.stage is not current_stage:
            current_stage = r.stage
            lines.append(f"\n[{r.stage.value}]")
        lines.append(
            f"  {r.threat.value:<32} {r.scheme:<28} "
            f"{r.metric} = {r.value:.3f}")
        if r.detail:
            lines.append(f"      {r.detail}")
    return "\n".join(lines)
