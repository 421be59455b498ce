"""Cross-module integration tests: full attack/defense storylines."""

import random

import pytest

from repro.crypto import AES128, SBOX, aes_sbox_netlist, \
    sbox_with_key_netlist
from repro.flow import PassManager, SynthesisStagePass, netlist_design
from repro.formal import check_equivalence
from repro.ip import (
    apply_key,
    attack_locked_circuit,
    lock_xor,
    verify_recovered_key,
)
from repro.netlist import encode_int, random_circuit, simulate
from repro.physical import annealing_placement
from repro.sca import cpa_attack, leakage_traces, tvla

from key_oracle import key_is_correct


def synthesized(netlist):
    """A copy of ``netlist`` after the ``synthesis`` pass, unmapped."""
    design = netlist_design(netlist.copy())
    passes = [SynthesisStagePass(map_library=False)]
    return PassManager().run(design, passes).design.netlist


class TestFig2Storyline:
    """The paper's motivational example, end to end at netlist level."""

    def setup_method(self):
        from repro.sca import isw_and_netlist
        self.gadget = isw_and_netlist()

    def collect(self, netlist, fixed, n, seed):
        from repro.sca import random_share_stimulus
        rng = random.Random(seed)
        stims = []
        for _ in range(n):
            if fixed:
                a, b = 1, 1
            else:
                a, b = rng.randint(0, 1), rng.randint(0, 1)
            stims.append(random_share_stimulus(a, b, 3, rng))
        return leakage_traces(netlist, stims, noise_sigma=0.25, seed=seed)

    def test_secure_then_optimized_then_leaky(self):
        from repro.synth import reassociate_for_timing
        # 1. security-aware netlist passes TVLA
        secure = self.gadget
        t_secure = tvla(self.collect(secure, True, 4000, 1),
                        self.collect(secure, False, 4000, 2)).max_abs_t
        assert t_secure < 4.5
        # 2. the PPA optimizer re-associates (function preserved!)
        optimized = secure.copy()
        late = {f"r_{i}_{j}": 1e5 for i in range(3)
                for j in range(i + 1, 3)}
        reassociate_for_timing(optimized, input_arrivals=late)
        rng = random.Random(3)
        from repro.sca import random_share_stimulus
        for _ in range(30):
            a, b = rng.randint(0, 1), rng.randint(0, 1)
            stim = random_share_stimulus(a, b, 3, rng)
            v = simulate(optimized, stim)
            assert v["c0"] ^ v["c1"] ^ v["c2"] == (a & b)
        # 3. and the result now fails TVLA
        t_broken = tvla(self.collect(optimized, True, 4000, 4),
                        self.collect(optimized, False, 4000, 5)).max_abs_t
        assert t_broken > 4.5
        assert t_broken > 3 * t_secure


class TestLockAndAttackStoryline:
    """Lock a real S-box, verify with the right key, break via oracle."""

    def test_full_cycle(self):
        sbox = aes_sbox_netlist()
        locked = lock_xor(sbox, 12, seed=2)
        # designer verification: correct key restores function
        assert check_equivalence(apply_key(locked), sbox).equivalent
        # foundry attacker with oracle access breaks it
        result = attack_locked_circuit(locked)
        assert result.success
        assert verify_recovered_key(locked, result.recovered_key)
        assert key_is_correct(locked, result.recovered_key)
        # stolen netlist now equals the original everywhere
        stolen = apply_key(locked, result.recovered_key)
        assert check_equivalence(stolen, sbox).equivalent


class TestCpaAfterSynthesis:
    """SCA evaluation survives the synthesis flow: the optimized keyed
    S-box leaks exactly like the original."""

    def test_cpa_key_recovery_pre_and_post_synthesis(self):
        target = sbox_with_key_netlist()
        optimized = synthesized(target)
        assert check_equivalence(target, optimized).equivalent
        true_key = 0x7E
        rng = random.Random(4)
        pts = [rng.randrange(256) for _ in range(700)]

        def traces_for(netlist, seed):
            stims = []
            for pt in pts:
                s = encode_int(pt, [f"p{i}" for i in range(8)])
                s.update(encode_int(true_key,
                                    [f"k{i}" for i in range(8)]))
                stims.append(s)
            return leakage_traces(netlist, stims, noise_sigma=2.0,
                                  seed=seed)

        for netlist, seed in ((target, 5), (optimized, 6)):
            result = cpa_attack(traces_for(netlist, seed), pts)
            assert result.best_key == true_key


class TestScanAttackVsAes:
    """Scan attack recovers a key that decrypts real AES traffic."""

    def test_recovered_key_decrypts(self):
        from repro.dft import ScanChipModel, scan_attack
        key = [random.Random(11).randrange(256) for _ in range(16)]
        chip = ScanChipModel(key, secure=False)
        recovered = scan_attack(chip).recovered_key
        assert recovered == key
        aes = AES128(recovered)
        pt = list(range(16))
        assert AES128(key).decrypt(aes.encrypt(pt)) == pt


class TestDfaVsCountermeasureMatrix:
    """DFA outcome across protection levels, as a flow would report."""

    def test_matrix(self):
        from repro.fia import (DetectAndSuppressAES, DfaAttacker,
                               InfectiveAES, dfa_on_unprotected)
        key = [random.Random(12).randrange(256) for _ in range(16)]
        outcomes = {}
        outcomes["bare"] = dfa_on_unprotected(
            key, seed=1, max_faults_per_byte=6).success
        suppress = DetectAndSuppressAES(key)
        outcomes["suppress"] = DfaAttacker(
            suppress.encrypt,
            lambda pt, b, f: suppress.encrypt_with_fault(pt, b, f),
            seed=2).attack(max_faults_per_byte=3).success
        infective = InfectiveAES(key, seed=3)
        outcomes["infective"] = DfaAttacker(
            infective.encrypt,
            lambda pt, b, f: infective.encrypt_with_fault(pt, b, f),
            seed=4).attack(max_faults_per_byte=3).success
        assert outcomes == {
            "bare": True, "suppress": False, "infective": False,
        }


class TestTrojanLifecycle:
    """Insert at design time, evade random test, get caught by the
    post-silicon screens."""

    def test_lifecycle(self):
        from repro.trojan import (apply_test_set, build_fingerprint,
                                  insert_rare_trigger_trojan,
                                  random_test_set, screen_population)
        host = random_circuit(12, 150, 6, seed=8)
        trojan = insert_rare_trigger_trojan(host, trigger_width=3, seed=1)
        # sneaks past a small random functional test
        outcome = apply_test_set(trojan, random_test_set(host, 30, seed=2))
        # (not guaranteed to sneak past, but overwhelmingly likely for
        # width-3 triggers; accept either but require the screen below)
        fingerprint = build_fingerprint(host, n_chips=25, seed=3)
        _, detection = screen_population(fingerprint, host,
                                         trojan.netlist, n_chips=10)
        assert detection > 0.8


class TestSynthesisDoesNotBreakLocking:
    """Re-synthesizing a locked netlist (as a foundry would before
    mask generation) must preserve the locked function per key."""

    def test_resynthesis_key_semantics(self):
        base = random_circuit(8, 60, 3, seed=15)
        locked = lock_xor(base, 8, seed=15)
        resynth = synthesized(locked.netlist)
        # Synthesis changes structure but not the locked function...
        assert check_equivalence(locked.netlist, resynth).equivalent
        # ...so key semantics must hold exactly:
        for key in (locked.key,
                    {k: 1 - v for k, v in locked.key.items()}):
            left = apply_key(locked, key)
            from repro.ip import LockedCircuit
            right = apply_key(LockedCircuit(resynth, locked.key), key)
            assert check_equivalence(left, right).equivalent
