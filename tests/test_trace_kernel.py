"""The column kernel is the dict path it replaced.

A trace set is packed columns (input -> word, bit ``p`` = trace ``p``)
and ``family_net_bit_matrix`` is its one simulation.  Callers holding
per-trace dicts (``leakage_traces``, ``family_leakage_traces``) pack
them once at the edge.  The reference below is the dict path as it ran
before: one ``pack_patterns`` per chunk of the dict list.  Every size
around the chunk edges (``PACK_CHUNK`` = 2048), both leakage models,
per-net weights and a two-variant family must give bit-identical
traces.
"""

import random

import numpy as np
import pytest

from repro.netlist import (
    NetlistError,
    VariantFamily,
    VariantSpec,
    c17,
    get_compiled,
    pack_patterns,
)
from repro.netlist.engine import FAMILY_CHUNK_BITS
from repro.sca import (
    bits_to_traces,
    family_leakage_traces,
    leakage_traces,
    mask_netlist,
)
from repro.sca.power_model import (
    PACK_CHUNK,
    _words_to_bit_matrix,
    net_bit_matrix,
)

SIZES = [1, 2000, 2048, 2049, 4097]


def dict_path_bits(family, stimuli):
    """``family_net_bit_matrix`` over per-trace dicts, as it was."""
    compiled = get_compiled(family.netlist)
    n_variants = len(family.variants)
    n_traces = len(stimuli)
    shared_names = [
        name for name in compiled.input_names
        if len(family._input_over.get(name, ())) < n_variants
    ]
    chunk = max(1, min(PACK_CHUNK, FAMILY_CHUNK_BITS // n_variants))
    bits = np.empty((n_variants, len(compiled.names), n_traces),
                    dtype=np.uint8)
    for start in range(0, n_traces, chunk):
        batch = stimuli[start:start + chunk]
        packed = pack_patterns(batch, shared_names)
        words = family.eval_words(packed, len(batch))
        t = len(batch)
        flat = _words_to_bit_matrix(words, n_variants * t)
        bits[:, :, start:start + t] = \
            flat.reshape(len(words), n_variants, t).transpose(1, 0, 2)
    return bits


def dict_path_traces(family, stimuli, model="value", noise_sigma=1.0,
                     seed=0, weights=None):
    """``family_leakage_traces`` as it was."""
    bits = dict_path_bits(family, stimuli)
    if model == "toggle":
        toggled = bits.copy()
        toggled[:, :, 1:] = bits[:, :, 1:] ^ bits[:, :, :-1]
        bits = toggled
    return bits_to_traces(get_compiled(family.netlist), bits, noise_sigma,
                          seed, weights)


@pytest.fixture(scope="module")
def masked():
    return mask_netlist(c17())


@pytest.fixture(scope="module")
def stimuli(masked):
    """4097 masked per-trace dicts; every 7th omits one share, which
    the edge reads as 0."""
    rng = random.Random(11)
    out = []
    for p in range(max(SIZES)):
        plain = {name: rng.randint(0, 1) for name in masked.input_shares}
        stimulus = masked.stimulus(plain, rng)
        if p % 7 == 3:
            del stimulus[masked.input_shares["G1"][1]]
        out.append(stimulus)
    return out


@pytest.mark.parametrize("model", ["value", "toggle"])
@pytest.mark.parametrize("n", SIZES)
def test_leakage_traces_is_the_dict_path(masked, stimuli, n, model):
    family = VariantFamily(masked.netlist, [VariantSpec()])
    got = leakage_traces(masked.netlist, stimuli[:n], model=model,
                         noise_sigma=0.5, seed=n)
    want = dict_path_traces(family, stimuli[:n], model, 0.5, n)[0]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2049, 4097])
def test_weighted_traces_are_the_dict_path(masked, stimuli, n):
    compiled = get_compiled(masked.netlist)
    weights = {net: 0.25 + (i % 5) for i, net in enumerate(compiled.names)}
    family = VariantFamily(masked.netlist, [VariantSpec()])
    got = leakage_traces(masked.netlist, stimuli[:n], noise_sigma=0.0,
                         weights=weights)
    want = dict_path_traces(family, stimuli[:n], noise_sigma=0.0,
                            weights=weights)[0]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", ["value", "toggle"])
@pytest.mark.parametrize("n", [1, 2049, 4097])
def test_two_variant_family_is_the_dict_path(masked, stimuli, n, model):
    compiled = get_compiled(masked.netlist)
    gate = next(name for name in compiled.names
                if name not in masked.netlist.inputs)
    rnd = masked.random_inputs[0]
    family = VariantFamily(masked.netlist, [
        VariantSpec(flips=[gate]),
        VariantSpec(forces={gate: 1}, inputs={rnd: 0}),
    ])
    got = family_leakage_traces(family, stimuli[:n], model=model,
                                noise_sigma=0.5, seed=3)
    want = dict_path_traces(family, stimuli[:n], model, 0.5, 3)
    assert got.tobytes() == want.tobytes()


def test_columns_missing_an_input_raise(masked, stimuli):
    columns = pack_patterns(stimuli[:64], masked.netlist.inputs)
    assert net_bit_matrix(masked.netlist, columns, 64).shape[1] == 64
    dropped = masked.random_inputs[-1]
    del columns[dropped]
    with pytest.raises(NetlistError, match=dropped):
        net_bit_matrix(masked.netlist, columns, 64)
