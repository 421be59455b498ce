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

Trace generation is fully vectorized: the whole stimulus batch is
simulated as packed words on the compiled engine
(:mod:`repro.netlist.engine`), unpacked into one ``(nets, traces)``
bit-matrix, and aggregated into per-level samples with a single matrix
product.  Wide batches are split into cache-friendly chunks of
:data:`PACK_CHUNK` patterns so the packed words stay small.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..netlist import Netlist, VariantFamily, VariantSpec, get_compiled

#: Hamming-weight lookup for bytes.
HW8 = np.array([x.bit_count() for x in range(256)], dtype=np.int64)

#: Patterns per packed simulation chunk.  Bounds a one-variant call's
#: Python-int words at ``PACK_CHUNK`` bits so bigint ops stay in the
#: small, cache-friendly regime even for multi-thousand-trace campaigns.
PACK_CHUNK = 2048

#: Total word width (variants x patterns-per-chunk) for wide families.
#: Wider than :data:`PACK_CHUNK`: the batched win comes from amortizing
#: per-statement dispatch over more patterns per word, so families of
#: 16 or more variants deliberately run in the large-word regime.
FAMILY_CHUNK_BITS = 1 << 15


def hamming_weight(value: int) -> int:
    """Population count of an arbitrary-width integer."""
    return int(value).bit_count()


def popcounts(words: Sequence[int], width: Optional[int] = None) -> np.ndarray:
    """Population count of each word, vectorized over byte planes.

    Bit-exact replacement for ``[hamming_weight(w) for w in words]`` on
    non-negative words: the words are laid out as a bytes matrix and
    counted with one vectorized pass instead of per-word Python calls.
    """
    values = [int(w) for w in words]
    if not values:
        return np.zeros(0, dtype=np.int64)
    if min(values) < 0:
        # Popcount of a negative int is ill-defined byte-wise; keep the
        # exact Python semantics for this (unused in hot paths) case.
        return np.array([hamming_weight(w) for w in values], dtype=np.int64)
    if width is None:
        width = max(1, max(w.bit_length() for w in values))
    n_bytes = (width + 7) // 8
    buffer = b"".join(w.to_bytes(n_bytes, "little") for w in values)
    raw = np.frombuffer(buffer, dtype=np.uint8).reshape(len(values), n_bytes)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(raw).sum(axis=1, dtype=np.int64)
    return HW8[raw].sum(axis=1)


def _word_to_bits(word: int, width: int) -> np.ndarray:
    """Unpack a packed simulation word into a width-length 0/1 array."""
    n_bytes = (width + 7) // 8
    raw = np.frombuffer(word.to_bytes(n_bytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(np.int64)


def _words_to_bit_matrix(words: Sequence[int], width: int) -> np.ndarray:
    """Unpack packed words into a ``(len(words), width)`` 0/1 uint8 matrix.

    One ``bytes`` concatenation plus one ``unpackbits`` call for the
    whole net set — this replaces a per-net Python unpacking loop.
    """
    n_bytes = (width + 7) // 8
    buffer = b"".join(w.to_bytes(n_bytes, "little") for w in words)
    raw = np.frombuffer(buffer, dtype=np.uint8).reshape(len(words), n_bytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :width]


def _pack_stimuli(stimuli: Sequence[Mapping[str, int]],
                  input_names: Sequence[str]) -> Dict[str, int]:
    """Pack single-bit stimulus dicts into bit-parallel words.

    Bits are gathered into a ``(traces, inputs)`` matrix and packed per
    input with one :func:`numpy.packbits` call — building each word
    bit-by-bit with bigint ORs is quadratic in the pattern count.
    """
    if not input_names:
        return {}
    try:
        # C-speed gather when every stimulus provides every input (the
        # overwhelmingly common case); missing keys or oversized values
        # fall back to the generic path.
        getter = operator.itemgetter(*input_names)
        if len(input_names) == 1:
            rows = [(getter(stim),) for stim in stimuli]
        else:
            rows = [getter(stim) for stim in stimuli]
        matrix = (np.array(rows, dtype=np.int64) & 1).astype(np.uint8)
    except (KeyError, OverflowError):
        matrix = np.array(
            [[stim.get(name, 0) & 1 for name in input_names]
             for stim in stimuli], dtype=np.uint8)
    return {
        name: int.from_bytes(
            np.packbits(matrix[:, col], bitorder="little").tobytes(),
            "little")
        for col, name in enumerate(input_names)
    }


def net_bit_matrix(netlist: Netlist,
                   stimuli: Sequence[Mapping[str, int]]) -> np.ndarray:
    """Value of every net for every stimulus as a ``(nets, traces)`` matrix.

    Rows follow the compiled topological order
    (``get_compiled(netlist).names``).  The one-variant call of
    :func:`family_net_bit_matrix`.
    """
    return family_net_bit_matrix(
        VariantFamily(netlist, [VariantSpec()]), stimuli)[0]


def leakage_traces(netlist: Netlist,
                   stimuli: Sequence[Mapping[str, int]],
                   model: str = "value",
                   noise_sigma: float = 1.0,
                   seed: int = 0,
                   weights: Optional[Mapping[str, float]] = None,
                   ) -> np.ndarray:
    """Simulate power traces for a batch of single-bit stimulus dicts.

    Returns an array of shape ``(len(stimuli), depth+1)``: one trace per
    stimulus, one sample per logic level.  ``weights`` optionally scales
    each net's contribution (e.g. per-cell switching energy); default 1.

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


def family_net_bit_matrix(family: VariantFamily,
                          stimuli: Sequence[Mapping[str, int]]
                          ) -> np.ndarray:
    """Every net's value per variant as ``(variants, nets, traces)``.

    The whole family is simulated in one packed pass per chunk of
    ``min(PACK_CHUNK, FAMILY_CHUNK_BITS // variants)`` patterns; the
    full ``variants * chunk``-bit words are unpacked with a single
    ``unpackbits`` and reshaped, so no per-variant slicing happens in
    Python.  Variant ``v``'s plane is bit-identical to
    :func:`net_bit_matrix` on that variant alone.
    """
    compiled = get_compiled(family.netlist)
    n_variants = len(family.variants)
    n_traces = len(stimuli)
    # Inputs overridden by *every* variant need no shared stimulus.
    shared_names = [
        name for name in compiled.input_names
        if len(family._input_over.get(name, ())) < n_variants
    ]
    chunk = max(1, min(PACK_CHUNK, FAMILY_CHUNK_BITS // n_variants))
    bits = np.empty((n_variants, len(compiled.names), n_traces),
                    dtype=np.uint8)
    for start in range(0, n_traces, chunk):
        batch = stimuli[start:start + chunk]
        packed = _pack_stimuli(batch, shared_names)
        words = family.eval_words(packed, len(batch))
        t = len(batch)
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

    Returns ``(variants, len(stimuli), depth+1)``.  Variant ``v``'s
    plane is bit-identical to :func:`leakage_traces` on that variant
    alone with ``seed + v`` — noise is drawn from a fresh
    ``default_rng(seed + v)`` per variant — so a serial per-variant
    sweep and one batched call produce byte-equal traces (and hence
    identical TVLA verdicts).
    """
    if model not in ("value", "toggle"):
        raise ValueError(f"unknown leakage model {model!r}")
    if len(stimuli) == 0:
        return np.zeros((len(family.variants), 0, 0))
    bits = family_net_bit_matrix(family, stimuli)
    if model == "toggle":
        toggled = bits.copy()
        toggled[:, :, 1:] = bits[:, :, 1:] ^ bits[:, :, :-1]
        bits = toggled
    return bits_to_traces(get_compiled(family.netlist), bits, noise_sigma,
                          seed, weights)


def intermediate_value_trace(values: Sequence[int],
                             noise_sigma: float = 0.0,
                             rng: Optional[np.random.Generator] = None,
                             ) -> np.ndarray:
    """Leakage trace of a *software-modeled* computation.

    Each intermediate value contributes one sample equal to its Hamming
    weight — the standard model for the paper's private-circuit example
    where the order of evaluation determines which intermediates exist.
    """
    trace = popcounts(values).astype(float)
    if noise_sigma > 0:
        rng = rng or np.random.default_rng()
        trace = trace + rng.normal(0.0, noise_sigma, trace.shape)
    return trace


def hd_model(before: int, after: int) -> int:
    """Hamming-distance leakage between two register states."""
    return int(before ^ after).bit_count()


def signal_to_noise_ratio(traces: np.ndarray,
                          labels: np.ndarray) -> np.ndarray:
    """Per-sample SNR: Var_groups(mean) / mean_groups(Var).

    ``labels`` assigns each trace to a group (e.g. an intermediate
    value); high SNR samples are exploitable leakage points.  A sample
    with no noise scores inf if its group means differ, else 0.
    """
    groups = np.unique(labels)
    means = np.stack([traces[labels == g].mean(axis=0) for g in groups])
    variances = np.stack([traces[labels == g].var(axis=0) for g in groups])
    noise = variances.mean(axis=0)
    signal = means.var(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(noise > 0, signal / noise,
                       np.where(signal > 0, np.inf, 0.0))
    return snr
