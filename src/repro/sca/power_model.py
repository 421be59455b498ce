"""Pre-silicon power-leakage simulation.

The paper (Sec. III-E) argues for identifying side-channel leakage via
pre-silicon simulation instead of measuring finished silicon.  This
module is that simulator: a gate-level power model over the netlist IR,
with logic *levels* acting as time samples — level ``L``'s sample
aggregates the switching/value activity of all nets at depth ``L``,
mirroring how activity ripples through combinational logic within a
clock cycle.

Two classical CMOS leakage models are provided:

- ``value`` — sample ~ sum of net values (Hamming-weight model),
- ``toggle`` — sample ~ number of nets toggling between two stimuli
  (Hamming-distance / dynamic-power model).

Gaussian measurement noise is added on top, so TVLA/CPA operate under
realistic trace statistics.

Trace generation is fully vectorized.  A trace set is one packed
column per input (bit ``p`` = trace ``p``), the form a
:class:`~repro.core.composition.Design` draws it in;
:func:`family_net_bit_matrix` simulates it on the compiled engine
(:mod:`repro.netlist.engine`), unpacks one ``(nets, traces)``
bit-matrix, and :func:`bits_to_traces` aggregates per-level samples
with a single matrix product.  Wide sets are split into cache-friendly
chunks of :data:`PACK_CHUNK` traces so the packed words stay small.
Callers holding per-trace dicts go through :func:`leakage_traces`,
which packs them once.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..netlist import (Netlist, NetlistError, VariantFamily, VariantSpec,
                       get_compiled, pack_patterns)
from ..netlist.engine import FAMILY_CHUNK_BITS

#: Hamming-weight lookup for bytes.
HW8 = np.array([x.bit_count() for x in range(256)], dtype=np.int64)

#: Patterns per packed simulation chunk.  Bounds a one-variant call's
#: Python-int words at ``PACK_CHUNK`` bits so bigint ops stay in the
#: small, cache-friendly regime even for multi-thousand-trace campaigns.
#: Families use the wider :data:`~repro.netlist.engine.FAMILY_CHUNK_BITS`,
#: so families of 16 or more variants run in the large-word regime.
PACK_CHUNK = 2048


def _words_to_bit_matrix(words: Sequence[int], width: int) -> np.ndarray:
    """Unpack packed words into a ``(len(words), width)`` 0/1 uint8 matrix.

    One ``bytes`` concatenation plus one ``unpackbits`` call for the
    whole net set — this replaces a per-net Python unpacking loop.
    """
    n_bytes = (width + 7) // 8
    buffer = b"".join(w.to_bytes(n_bytes, "little") for w in words)
    raw = np.frombuffer(buffer, dtype=np.uint8).reshape(len(words), n_bytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :width]


def net_bit_matrix(netlist: Netlist, columns: Mapping[str, int],
                   n_traces: int) -> np.ndarray:
    """Value of every net for every trace as a ``(nets, traces)`` matrix.

    ``columns`` maps each primary input to an ``n_traces``-bit word
    whose bit ``p`` is trace ``p``.  Rows follow the compiled
    topological order (``get_compiled(netlist).names``).  The
    one-variant call of :func:`family_net_bit_matrix`.
    """
    return family_net_bit_matrix(
        VariantFamily(netlist, [VariantSpec()]), columns, n_traces)[0]


def leakage_traces(netlist: Netlist,
                   stimuli: Sequence[Mapping[str, int]],
                   model: str = "value",
                   noise_sigma: float = 1.0,
                   seed: int = 0,
                   weights: Optional[Mapping[str, float]] = None,
                   ) -> np.ndarray:
    """Simulate power traces for a batch of single-bit stimulus dicts.

    The dicts are packed once (:func:`~repro.netlist.pack_patterns`,
    which reads a missing input as 0) and simulated by
    :func:`family_net_bit_matrix`.  Returns an array of shape
    ``(len(stimuli), depth+1)``: one trace per stimulus, one sample per
    logic level.  ``weights`` optionally scales each net's contribution
    (e.g. per-cell switching energy); default 1.

    For ``model="toggle"``, each trace covers the transition from the
    previous stimulus to the current one (the first trace uses an
    all-zero predecessor).  The one-variant call of
    :func:`family_leakage_traces`.
    """
    return family_leakage_traces(VariantFamily(netlist, [VariantSpec()]),
                                 stimuli, model, noise_sigma, seed,
                                 weights)[0]


def _level_scatter(compiled, weights: Optional[Mapping[str, float]]
                   ) -> np.ndarray:
    """``(nets, levels)`` scatter matrix: one matmul aggregates levels.

    Unweighted contributions are small integers (exact well below
    2**24), so float32 operands give a bit-identical result at half
    the memory traffic; arbitrary weights keep the float64 path.
    """
    dtype = np.float32 if weights is None else np.float64
    if weights is None:
        per_net = np.ones(len(compiled.names), dtype=dtype)
    else:
        per_net = np.array([float(weights.get(net, 1.0))
                            for net in compiled.names])
    scatter = np.zeros((len(compiled.names), compiled.depth + 1),
                       dtype=dtype)
    scatter[np.arange(len(compiled.names)), np.asarray(compiled.levels)] \
        = per_net
    return scatter


def bits_to_traces(compiled, bits: np.ndarray, noise_sigma: float = 1.0,
                   seed: int = 0,
                   weights: Optional[Mapping[str, float]] = None
                   ) -> np.ndarray:
    """Per-level traces from net bit matrices: the one aggregation step.

    ``bits`` is one ``(nets, traces)`` matrix (rows in
    ``compiled.names`` order) or a ``(variants, nets, traces)`` stack;
    the result is ``(traces, depth+1)`` or ``(variants, traces,
    depth+1)``.  Plane ``v`` gets Gaussian noise from a fresh
    ``default_rng(seed + v)``, so a cached bit matrix turned into
    traces here is bit-identical to :func:`leakage_traces` on the
    stimuli it was simulated from.
    """
    scatter = _level_scatter(compiled, weights)
    planes = bits.reshape((-1,) + bits.shape[-2:])
    out = np.empty((len(planes), bits.shape[-1], compiled.depth + 1))
    for v, plane in enumerate(planes):
        samples = (plane.T.astype(scatter.dtype) @ scatter) \
            .astype(np.float64)
        if noise_sigma > 0:
            rng = np.random.default_rng(seed + v)
            samples = samples + rng.normal(0.0, noise_sigma, samples.shape)
        out[v] = samples
    return out.reshape(bits.shape[:-2] + out.shape[1:])


def _stimulus_inputs(family: VariantFamily) -> List[str]:
    """Inputs a trace set must drive: all but those every variant
    overrides."""
    n_variants = len(family.variants)
    return [name for name in get_compiled(family.netlist).input_names
            if len(family._input_over.get(name, ())) < n_variants]


def family_net_bit_matrix(family: VariantFamily,
                          columns: Mapping[str, int],
                          n_traces: int) -> np.ndarray:
    """Every net's value per variant as ``(variants, nets, traces)``.

    The one simulation of a trace set.  ``columns`` maps each input to
    an ``n_traces``-bit word (bit ``p`` = trace ``p``); an input that
    every variant overrides needs none, and any other missing input
    raises :class:`~repro.netlist.NetlistError`.  The whole family is
    simulated in one packed pass per chunk of ``min(PACK_CHUNK,
    FAMILY_CHUNK_BITS // variants)`` traces, sliced out of the
    columns; the full ``variants * chunk``-bit words are unpacked with
    a single ``unpackbits`` and reshaped, so no per-variant slicing
    happens in Python.  Variant ``v``'s plane is bit-identical to
    :func:`net_bit_matrix` on that variant alone.
    """
    compiled = get_compiled(family.netlist)
    n_variants = len(family.variants)
    names = _stimulus_inputs(family)
    missing = [name for name in names if name not in columns]
    if missing:
        raise NetlistError(f"missing stimulus for input {missing[0]!r}")
    chunk = max(1, min(PACK_CHUNK, FAMILY_CHUNK_BITS // n_variants))
    bits = np.empty((n_variants, len(compiled.names), n_traces),
                    dtype=np.uint8)
    for start in range(0, n_traces, chunk):
        t = min(chunk, n_traces - start)
        mask = (1 << t) - 1
        words = family.eval_words(
            {name: (columns[name] >> start) & mask for name in names}, t)
        flat = _words_to_bit_matrix(words, n_variants * t)
        bits[:, :, start:start + t] = \
            flat.reshape(len(words), n_variants, t).transpose(1, 0, 2)
    return bits


def family_leakage_traces(family: VariantFamily,
                          stimuli: Sequence[Mapping[str, int]],
                          model: str = "value",
                          noise_sigma: float = 1.0,
                          seed: int = 0,
                          weights: Optional[Mapping[str, float]] = None,
                          ) -> np.ndarray:
    """Leakage traces for every variant in one batched simulation pass.

    ``stimuli`` are per-trace dicts, packed once into columns for
    :func:`family_net_bit_matrix`.  Returns ``(variants, len(stimuli),
    depth+1)``.  Variant ``v``'s plane is bit-identical to
    :func:`leakage_traces` on that variant alone with ``seed + v`` —
    noise is drawn from a fresh ``default_rng(seed + v)`` per variant —
    so a serial per-variant sweep and one batched call produce
    byte-equal traces (and hence identical TVLA verdicts).
    """
    if model not in ("value", "toggle"):
        raise ValueError(f"unknown leakage model {model!r}")
    if len(stimuli) == 0:
        return np.zeros((len(family.variants), 0, 0))
    bits = family_net_bit_matrix(
        family, pack_patterns(stimuli, _stimulus_inputs(family)),
        len(stimuli))
    if model == "toggle":
        toggled = bits.copy()
        toggled[:, :, 1:] = bits[:, :, 1:] ^ bits[:, :, :-1]
        bits = toggled
    return bits_to_traces(get_compiled(family.netlist), bits, noise_sigma,
                          seed, weights)
