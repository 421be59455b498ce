"""Differential fault analysis (DFA) on AES-128.

The archetypal fault *attack* of the paper's threat model (Sec. II-A.2):
inject a fault into the state just before the final SubBytes, observe
the ciphertext pair (correct, faulty), and solve the last-round key
byte-by-byte.  With a restricted fault model (e.g. single-bit flips)
each injection leaves only a handful of key candidates; intersecting a
few injections isolates the key uniquely.  The recovered round-10 key
is inverted to the master key via the key schedule.

This module is used both as the red-team evaluation (how many faults
until key loss?) and as the adversary against which the countermeasures
of :mod:`repro.fia.codes` / :mod:`repro.fia.infective` are scored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..crypto import AES128, INV_SBOX, SHIFT_ROWS, recover_master_key

#: Single-bit fault model: the fault XORs one bit into the state byte.
BIT_FAULTS = tuple(1 << b for b in range(8))


def last_round_candidates(correct_byte: int, faulty_byte: int) -> Set[int]:
    """Key-byte candidates from one (correct, faulty) ciphertext byte.

    A fault ``delta`` before the last SubBytes satisfies
    ``INV_SBOX[c ^ k] ^ INV_SBOX[c* ^ k] = delta``; every key guess
    consistent with some single-bit ``delta`` (:data:`BIT_FAULTS`)
    survives.
    """
    candidates: Set[int] = set()
    for k in range(256):
        delta = INV_SBOX[correct_byte ^ k] ^ INV_SBOX[faulty_byte ^ k]
        if delta in BIT_FAULTS:
            candidates.add(k)
    return candidates


@dataclass
class DfaResult:
    """Outcome of a DFA campaign against one AES instance."""

    recovered_round_key: Optional[List[int]]
    recovered_master_key: Optional[List[int]]
    faults_used: int
    candidates_per_byte: List[int]   # surviving candidates after attack

    @property
    def success(self) -> bool:
        return self.recovered_master_key is not None


class DfaAttacker:
    """Oracle-driven DFA: asks for faulty encryptions, solves the key.

    The oracle is any callable ``(plaintext, byte_index, fault_value) ->
    ciphertext`` (normally ``AES128.encrypt_with_fault`` bound to round
    10); countermeasures replace the oracle with a protected
    implementation that suppresses or infects faulty outputs.  Each
    injected fault value is a single-bit flip from :data:`BIT_FAULTS`.

    ``batch_oracle``, if given, is a callable taking a list of
    ``(plaintext, byte_index, fault_value)`` queries and returning the
    faulty ciphertexts (or ``None`` entries) in order — e.g.
    :func:`repro.crypto.run_aes_datapath_batch` against a gate-level
    datapath.  The attack then asks for all its faulty encryptions in
    one call instead of one oracle round trip per injection; the
    recovered key, survivor counts, and fault budget accounting are
    identical to the per-query path.
    """

    def __init__(self, encrypt, encrypt_with_fault,
                 seed: int = 0, batch_oracle=None) -> None:
        self.encrypt = encrypt
        self.encrypt_with_fault = encrypt_with_fault
        self.rng = random.Random(seed)
        self.batch_oracle = batch_oracle

    def attack(self, max_faults_per_byte: int = 8) -> DfaResult:
        """Run the campaign; returns the recovered keys (or failure)."""
        faults_used = 0
        round_key: List[Optional[int]] = [None] * 16
        survivors: List[int] = [256] * 16
        # Every injection is drawn up front, in byte order, so the rng
        # stream does not depend on how many attempts each byte ends up
        # consuming — the contract that lets the serial and batched
        # oracle paths return bit-identical results.
        attempts = [
            [([self.rng.randrange(256) for _ in range(16)],
              self.rng.choice(BIT_FAULTS))
             for _ in range(max_faults_per_byte)]
            for _ in range(16)
        ]
        faulty: Optional[List[List[Optional[List[int]]]]] = None
        if self.batch_oracle is not None:
            queries = [
                (pt, state_byte, fault_value)
                for state_byte in range(16)
                for pt, fault_value in attempts[state_byte]
            ]
            answers = iter(self.batch_oracle(queries))
            faulty = [[next(answers) for _ in attempts[state_byte]]
                      for state_byte in range(16)]
        for state_byte in range(16):
            ct_pos = SHIFT_ROWS.index(state_byte)
            candidates: Optional[Set[int]] = None
            for attempt, (pt, fault_value) in enumerate(
                    attempts[state_byte]):
                good = self.encrypt(pt)
                if faulty is not None:
                    bad = faulty[state_byte][attempt]
                else:
                    bad = self.encrypt_with_fault(pt, state_byte,
                                                  fault_value)
                faults_used += 1
                if bad is None or bad == good:
                    continue  # countermeasure suppressed the fault
                if bad[ct_pos] == good[ct_pos]:
                    continue  # fault did not reach this byte (infected?)
                new = last_round_candidates(good[ct_pos], bad[ct_pos])
                candidates = new if candidates is None else candidates & new
                if candidates is not None and len(candidates) <= 1:
                    break
            if candidates and len(candidates) == 1:
                round_key[state_byte] = next(iter(candidates))
            survivors[state_byte] = (len(candidates)
                                     if candidates is not None else 256)
        if any(k is None for k in round_key):
            return DfaResult(None, None, faults_used, survivors)
        # Round key bytes were indexed by pre-ShiftRows state position;
        # ciphertext position ct_pos carries state byte, and AddRoundKey
        # XORs K10 in ciphertext order — so reorder accordingly.
        k10 = [0] * 16
        for state_byte in range(16):
            ct_pos = SHIFT_ROWS.index(state_byte)
            k10[ct_pos] = round_key[state_byte]
        master = recover_master_key(k10)
        return DfaResult(k10, master, faults_used, survivors)


def dfa_on_unprotected(key: Sequence[int], seed: int = 0,
                       max_faults_per_byte: int = 8) -> DfaResult:
    """Convenience: full DFA against a bare AES-128 implementation."""
    aes = AES128(key)

    def faulty(pt, byte_index, fault_value):
        return aes.encrypt_with_fault(
            pt, round_index=10, byte_index=byte_index,
            fault_value=fault_value)

    attacker = DfaAttacker(aes.encrypt, faulty, seed=seed)
    return attacker.attack(max_faults_per_byte=max_faults_per_byte)
