"""Leakage simulation for sequential designs (register-dominated power).

Synchronous designs leak predominantly through register switching: each
clock edge, the power sample is proportional to the Hamming distance of
the state registers (plus a value-weight term and noise).  This module
produces per-cycle traces for multi-cycle stimuli, enabling CPA/TVLA
against real datapaths like the gate-level AES of
:mod:`repro.crypto.aes_netlist` — the pre-silicon equivalent of probing
a crypto core's VDD pin.

Trace batches are simulated *bit-parallel across runs*: all N runs of a
campaign advance together through one packed sequential simulation
(run r lives in bit position r), so a 300-trace AES campaign costs 11
netlist evaluations instead of 3,300.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..netlist import Netlist, get_compiled, pack_patterns
from .power_model import PACK_CHUNK, _words_to_bit_matrix


def _batched_traces(netlist: Netlist,
                    runs: Sequence[Sequence[Mapping[str, int]]],
                    hd_weight: float, hw_weight: float) -> np.ndarray:
    """Noise-free trace matrix with all runs packed into one word.

    Each cycle's stimulus is one :func:`~repro.netlist.pack_patterns`
    call (the low bit of each value; a missing input reads 0, and a
    finished run idles at zero inputs).
    """
    compiled = get_compiled(netlist)
    input_names = compiled.input_names
    n_runs = len(runs)
    n_cycles = max(len(run) for run in runs)
    lengths = np.array([len(run) for run in runs])
    matrix = np.zeros((n_runs, n_cycles))
    state = [0] * len(compiled.flop_names)
    for cycle in range(n_cycles):
        packed = pack_patterns(
            [run[cycle] if cycle < len(run) else {} for run in runs],
            input_names)
        _, next_state = compiled.step_words(
            [packed[name] for name in input_names], state, n_runs)
        if next_state:
            hd_bits = _words_to_bit_matrix(
                [old ^ new for old, new in zip(state, next_state)], n_runs)
            hw_bits = _words_to_bit_matrix(next_state, n_runs)
            matrix[:, cycle] = (hd_weight * hd_bits.sum(axis=0)
                                + hw_weight * hw_bits.sum(axis=0))
        state = next_state
    # Samples past a run's own length stay 0, like the per-run path.
    matrix[lengths[:, None] <= np.arange(n_cycles)[None, :]] = 0.0
    return matrix


def sequential_leakage_traces(netlist: Netlist,
                              runs: Sequence[Sequence[Mapping[str, int]]],
                              noise_sigma: float = 1.0,
                              seed: int = 0,
                              hd_weight: float = 1.0,
                              hw_weight: float = 0.2) -> np.ndarray:
    """Trace matrix (n_runs, n_cycles) for a batch of input sequences.

    Runs are simulated bit-parallel (run r occupies pattern bit r of
    one packed sequential simulation); campaigns wider than
    :data:`~repro.sca.power_model.PACK_CHUNK` runs are split into
    chunks.  Sample ``t`` covers the clock edge ending cycle ``t``:
    ``hd_weight * HD(state_t, state_{t+1}) + hw_weight * HW(state_{t+1})``.
    """
    if not runs:
        return np.zeros((0, 0))
    n_cycles = max(len(run) for run in runs)
    matrix = np.zeros((len(runs), n_cycles))
    for start in range(0, len(runs), PACK_CHUNK):
        batch = runs[start:start + PACK_CHUNK]
        sub = _batched_traces(netlist, batch, hd_weight, hw_weight)
        matrix[start:start + len(batch), :sub.shape[1]] = sub
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        matrix = matrix + rng.normal(0.0, noise_sigma, matrix.shape)
    return matrix
