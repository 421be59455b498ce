"""Active hardware metering [19].

HLS-stage anti-piracy from Table II: every fabricated chip boots into a
locked FSM state determined by its unique PUF identifier; only the IP
owner, knowing the FSM's transition secrets, can compute the chip-
specific unlock sequence.  The foundry can overproduce silicon but not
activate it — a per-chip pay-per-device scheme.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .puf import ArbiterPuf


@dataclass
class MeteredChip:
    """One fabricated instance: a PUF identity plus a locked FSM.

    The FSM sits in a locked state chain; each correct unlock word
    advances one step, any wrong word resets.  Words are derived from
    the chip ID and the owner's secret, so sequences do not transfer
    between chips.
    """

    chip_index: int
    puf: ArbiterPuf
    sequence_length: int = 4
    _owner_secret: bytes = b""
    _state: int = 0
    unlocked: bool = False
    failed_attempts: int = 0

    def chip_id(self) -> int:
        """Self-identification: PUF responses to 64 public challenges."""
        rng = np.random.default_rng(12345)  # public, fixed challenges
        challenges = rng.integers(0, 2, (64, self.puf.n_stages))
        bits = self.puf.respond(challenges)
        value = 0
        for i, b in enumerate(bits):
            value |= int(b) << i
        return value

    def try_unlock_word(self, word: int) -> bool:
        """Feed one unlock word; returns True once fully unlocked."""
        expected = _unlock_word(self.chip_id(), self._owner_secret,
                                self._state)
        if word == expected:
            self._state += 1
            if self._state >= self.sequence_length:
                self.unlocked = True
        else:
            self._state = 0
            self.failed_attempts += 1
        return self.unlocked

    def compute(self, x: int) -> Optional[int]:
        """The metered payload function; None while locked."""
        if not self.unlocked:
            return None
        return (x * 2654435761) & 0xFFFFFFFF


def _unlock_word(chip_id: int, owner_secret: bytes, step: int) -> int:
    material = owner_secret + chip_id.to_bytes(8, "little") + bytes([step])
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "little")


class MeteringAuthority:
    """The IP owner: fabricates chips and issues unlock sequences of
    four words."""

    def __init__(self) -> None:
        self.owner_secret = b"ip-owner-secret"
        self.sequence_length = 4
        self.activated: List[int] = []

    def fabricate(self, n_chips: int, seed: int = 0) -> List[MeteredChip]:
        """Model the (untrusted) foundry producing chips; each gets a
        unique PUF by process variation, not by design."""
        return [
            MeteredChip(i, ArbiterPuf(64, seed=seed + i),
                        sequence_length=self.sequence_length,
                        _owner_secret=self.owner_secret)
            for i in range(n_chips)
        ]

    def unlock_sequence(self, chip_id: int) -> List[int]:
        """Compute the chip-specific activation sequence."""
        return [
            _unlock_word(chip_id, self.owner_secret, step)
            for step in range(self.sequence_length)
        ]

    def activate(self, chip: MeteredChip) -> bool:
        """Run the activation protocol against a physical chip."""
        for word in self.unlock_sequence(chip.chip_id()):
            chip.try_unlock_word(word)
        if chip.unlocked:
            self.activated.append(chip.chip_index)
        return chip.unlocked


def overbuild_attack(authority: MeteringAuthority, legit_chip: MeteredChip,
                     pirate_chip: MeteredChip) -> bool:
    """Replay a legitimate chip's unlock sequence on an overbuilt chip.

    Returns True if the pirate chip activates (it should not: its PUF
    identity differs, so the replayed words are wrong for it).
    """
    for word in authority.unlock_sequence(legit_chip.chip_id()):
        pirate_chip.try_unlock_word(word)
    return pirate_chip.unlocked
