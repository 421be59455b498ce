"""MERO: statistical N-detect test generation for Trojan detection [40].

Random functional tests almost never satisfy a rare-trigger Trojan's
full conjunction.  MERO's observation: if every *individual* rare node
is driven to its rare value at least N times across the test set, the
joint probability that some test also fires a (small) conjunction of
them rises sharply — without knowing the actual trigger.

Algorithm (following Chakraborty et al., CHES'09): start from random
patterns, then hill-climb over input bits, keeping flips that push more
under-quota rare nodes to their rare values.  Coverage is scored two
ways: full-Trojan detection (:func:`detection_rate`) and pairwise
rare-combination coverage (:func:`pair_trigger_coverage`), the
fine-grained metric where the MERO-vs-random gap is sharpest.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..netlist import Netlist, get_compiled, pack_patterns, simulate
from .insert import TrojanInstance, rare_nodes

#: The rare band MERO targets: nets whose rare-value probability lies
#: in [``MIN_RARENESS``, ``RARE_THRESHOLD``] — reachable but stealthy.
RARE_THRESHOLD = 0.15
MIN_RARENESS = 0.005


@dataclass
class MeroTestSet:
    """Generated vectors plus achievement statistics."""

    vectors: List[Dict[str, int]]
    rare_targets: List[Tuple[str, int, float]]
    detect_counts: Dict[Tuple[str, int], int]
    n_detect: int

    @property
    def quota_fraction(self) -> float:
        """Fraction of rare targets hitting the N-detect quota."""
        if not self.rare_targets:
            return 1.0
        met = sum(
            1 for net, value, _ in self.rare_targets
            if self.detect_counts.get((net, value), 0) >= self.n_detect
        )
        return met / len(self.rare_targets)


def generate_mero_tests(netlist: Netlist,
                        n_detect: int = 10,
                        n_initial: int = 300,
                        seed: int = 0) -> MeroTestSet:
    """Generate an N-detect test set for the rare nodes of ``netlist``.

    Targets are nets with rare-value probability in
    [:data:`MIN_RARENESS`, :data:`RARE_THRESHOLD`] — exactly the band an
    attacker uses for reachable-but-stealthy triggers.
    """
    rng = random.Random(seed)
    targets = [
        t for t in rare_nodes(netlist, RARE_THRESHOLD, seed=seed)
        if t[2] >= MIN_RARENESS
    ]
    inputs = netlist.inputs
    compiled = get_compiled(netlist)
    target_indices = [
        (compiled.index[net], net, rare_value)
        for net, rare_value, _ in targets
    ]
    detect_counts: Dict[Tuple[str, int], int] = {}
    kept_vectors: List[Dict[str, int]] = []

    def rare_hits(vector: Mapping[str, int]) -> Set[Tuple[str, int]]:
        values = simulate(netlist, vector)
        return {
            (net, rare_value) for net, rare_value, _ in targets
            if values[net] == rare_value
        }

    def flip_batch_hits(vector: Dict[str, int],
                        flip_bits: Sequence[str],
                        ) -> List[Set[Tuple[str, int]]]:
        """Hit set of every one-bit-flip neighbor in one packed pass."""
        neighbors = []
        for bit in flip_bits:
            neighbor = dict(vector)
            neighbor[bit] ^= 1
            neighbors.append(neighbor)
        width = len(neighbors)
        stimulus = pack_patterns(neighbors, compiled.input_names)
        words = compiled.eval_words(stimulus, width)
        full = (1 << width) - 1
        hit_sets: List[Set[Tuple[str, int]]] = [set() for _ in neighbors]
        for index, net, rare_value in target_indices:
            word = words[index]
            if not rare_value:
                word = ~word & full
            while word:
                low = word & -word
                hit_sets[low.bit_length() - 1].add((net, rare_value))
                word ^= low
        return hit_sets

    def quota_gain(hits: Set[Tuple[str, int]]) -> int:
        return sum(
            1 for key in hits if detect_counts.get(key, 0) < n_detect
        )

    for _ in range(n_initial):
        vector = {name: rng.randint(0, 1) for name in inputs}
        hits = rare_hits(vector)
        gain = quota_gain(hits)
        improved = True
        while improved:
            improved = False
            # One packed evaluation scores every remaining single-bit
            # neighbor; on acceptance the later neighbors are stale
            # (they were flipped off the pre-acceptance vector), so the
            # walk resumes from the next bit with a fresh batch.  The
            # accept/reject decisions are exactly the serial
            # flip-evaluate-revert loop's.
            order = rng.sample(inputs, len(inputs))
            pos = 0
            while pos < len(order):
                batch = order[pos:]
                hit_sets = flip_batch_hits(vector, batch)
                accepted = None
                for k, new_hits in enumerate(hit_sets):
                    new_gain = quota_gain(new_hits)
                    if new_gain > gain:
                        accepted = k
                        gain, hits = new_gain, new_hits
                        break
                if accepted is None:
                    break
                vector[batch[accepted]] ^= 1
                improved = True
                pos += accepted + 1
        if gain > 0:
            kept_vectors.append(dict(vector))
            for key in hits:
                detect_counts[key] = detect_counts.get(key, 0) + 1
    return MeroTestSet(kept_vectors, targets, detect_counts, n_detect)


@dataclass
class DetectionOutcome:
    """Did a test set expose a specific Trojan?"""

    triggered: bool
    triggering_vector: Optional[Dict[str, int]]
    vectors_applied: int


def apply_test_set(trojan: TrojanInstance,
                   vectors: Sequence[Mapping[str, int]]) -> DetectionOutcome:
    """Run vectors against a compromised design; stop at first trigger.

    All vectors are simulated in one bit-parallel pass; the first set
    bit of the trigger net's packed word is the first firing vector, so
    the early-exit semantics of the sequential loop are preserved.
    """
    if not vectors:
        return DetectionOutcome(False, None, 0)
    compiled = get_compiled(trojan.netlist)
    width = len(vectors)
    stimulus = pack_patterns(list(vectors), compiled.input_names)
    word = compiled.eval_words(stimulus, width)[
        compiled.index[trojan.trigger_net]]
    if word:
        index = (word & -word).bit_length() - 1  # lowest set bit
        return DetectionOutcome(True, dict(vectors[index]), index + 1)
    return DetectionOutcome(False, None, len(vectors))


def random_test_set(netlist: Netlist, count: int,
                    seed: int = 0) -> List[Dict[str, int]]:
    """Baseline: plain random vectors of the same budget."""
    rng = random.Random(seed)
    return [
        {name: rng.randint(0, 1) for name in netlist.inputs}
        for _ in range(count)
    ]


def detection_rate(netlist: Netlist, vectors: Sequence[Mapping[str, int]],
                   n_trojans: int = 20, trigger_width: int = 2,
                   seed: int = 0) -> float:
    """Fraction of randomly sampled Trojans, triggered in the rare
    band, that a test set exposes."""
    from .insert import insert_rare_trigger_trojan

    detected = 0
    built = 0
    for i in range(n_trojans):
        try:
            trojan = insert_rare_trigger_trojan(
                netlist, trigger_width=trigger_width,
                rare_threshold=RARE_THRESHOLD,
                min_rareness=MIN_RARENESS, seed=seed + i)
        except ValueError:
            continue
        built += 1
        if apply_test_set(trojan, vectors).triggered:
            detected += 1
    return detected / built if built else 0.0


def pair_trigger_coverage(netlist: Netlist,
                          vectors: Sequence[Mapping[str, int]],
                          seed: int = 0) -> float:
    """Fraction of rare-node *pairs* co-activated by some vector.

    Every width-2 conjunction of rare-band nets is a potential trigger;
    this counts how many the test set would fire (over at most 400
    sampled pairs) — the fine-grained MERO quality metric (higher =
    fewer places for a Trojan to hide).
    """
    rng = random.Random(seed)
    targets = [
        t for t in rare_nodes(netlist, RARE_THRESHOLD, seed=seed)
        if t[2] >= MIN_RARENESS
    ]
    pairs = list(itertools.combinations(range(len(targets)), 2))
    if len(pairs) > 400:
        pairs = rng.sample(pairs, 400)
    if not pairs:
        return 1.0
    # One packed simulation covers the whole vector set; a pair is
    # covered iff some bit position holds both rare values at once.
    compiled = get_compiled(netlist)
    width = len(vectors)
    mask = (1 << width) - 1
    stimulus = pack_patterns(list(vectors), compiled.input_names)
    words = compiled.eval_words(stimulus, width)
    rare_word = [
        words[compiled.index[net]] if value else
        ~words[compiled.index[net]] & mask
        for net, value, _ in targets
    ]
    covered = 0
    for ia, ib in pairs:
        if rare_word[ia] & rare_word[ib]:
            covered += 1
    return covered / len(pairs)
