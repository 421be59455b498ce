"""Property tests for batched multi-variant evaluation.

A :class:`~repro.netlist.VariantFamily` lowers the base netlist once
and scores every variant in one packed pass; the contract is that each
variant's slice is **bit-identical** to evaluating that variant alone.
The executable specification here is a dict-based reference
interpreter, written independently of the engine, that applies one
variant's deltas (input overrides, stuck-at forces, bit flips, patched
opcodes) while walking the netlist in topological order.

The same bit-exactness is asserted one level up for the ported
consumers: fault campaigns (both strategies vs one injected copy per
fault under the reference simulator), leakage traces / TVLA verdicts
(family vs per-variant simulation), and the service layer's
per-variant artifact-cache keys.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import aes_sbox_netlist
from repro.dft import run_atpg
from repro.fia import FaultKind, enumerate_faults, fault_campaign, inject_fault
from repro.fia.analysis import _BATCH_THRESHOLD
from repro.netlist import (
    GateType,
    Netlist,
    NetlistError,
    VariantFamily,
    VariantSpec,
    engine_cache,
    get_compiled,
    random_stimulus,
    reset_engine_cache,
    simulate_reference,
)
from repro.netlist.engine import CompiledNetlist
from repro.netlist.generators import c17, random_circuit, ripple_carry_adder
from repro.sca import family_leakage_traces, leakage_traces, tvla

_VARIADIC = (
    GateType.AND, GateType.NAND, GateType.OR,
    GateType.NOR, GateType.XOR, GateType.XNOR,
)
_UNARY = (GateType.BUF, GateType.NOT)
_NULLARY = (GateType.CONST0, GateType.CONST1)


# ----------------------------------------------------------------------
# Reference semantics
# ----------------------------------------------------------------------

def _reference_gate(kind: GateType, fan, mask: int) -> int:
    """Packed value of one gate under the documented op semantics."""
    if kind is GateType.CONST0:
        return 0
    if kind is GateType.CONST1:
        return mask
    if kind is GateType.BUF:
        return fan[0]
    if kind is GateType.NOT:
        return ~fan[0] & mask
    if kind is GateType.MUX:
        s, d0, d1 = fan
        return (~s & d0) | (s & d1)
    word = fan[0]
    if kind in (GateType.AND, GateType.NAND):
        for f in fan[1:]:
            word &= f
    elif kind in (GateType.OR, GateType.NOR):
        for f in fan[1:]:
            word |= f
    else:  # XOR / XNOR
        for f in fan[1:]:
            word ^= f
    if kind in (GateType.NAND, GateType.NOR, GateType.XNOR):
        word = ~word & mask
    return word


def reference_eval(netlist: Netlist, spec: VariantSpec, stimulus,
                   width: int, state=None):
    """Serial single-variant evaluation: the executable specification.

    Delta order at a site is opcode-select, then flip, then force
    (force wins) — matching the engine's documented lowering.
    """
    mask = (1 << width) - 1
    state = state or {}
    values = {}
    for name in netlist.topological_order():
        gate = netlist.gates[name]
        if gate.gate_type is GateType.INPUT:
            word = int(spec.inputs.get(name, stimulus[name])) & mask
        elif gate.gate_type is GateType.DFF:
            word = state.get(name, 0) & mask
        else:
            kind = spec.opcodes.get(name, gate.gate_type)
            fan = [values[f] for f in gate.fanins]
            word = _reference_gate(kind, fan, mask)
        if name in spec.flips:
            word ^= mask
        if name in spec.forces:
            word = mask if spec.forces[name] else 0
        values[name] = word
    return values


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def combinational_netlists(draw) -> Netlist:
    """Random combinational DAG over every gate type (incl. MUX/CONST)."""
    n_inputs = draw(st.integers(min_value=1, max_value=5))
    n = Netlist("variant_comb")
    nets = [n.add_input(f"in{i}") for i in range(n_inputs)]
    n_gates = draw(st.integers(min_value=1, max_value=25))
    for k in range(n_gates):
        kind = draw(st.sampled_from(
            _VARIADIC + _UNARY + _NULLARY + (GateType.MUX,)))
        if kind in _NULLARY:
            fanins = []
        elif kind in _UNARY:
            fanins = [draw(st.sampled_from(nets))]
        elif kind is GateType.MUX:
            fanins = [draw(st.sampled_from(nets)) for _ in range(3)]
        else:
            arity = draw(st.integers(min_value=2, max_value=4))
            fanins = [draw(st.sampled_from(nets)) for _ in range(arity)]
        nets.append(n.add_gate(f"g{k}", kind, fanins))
    n.add_output(nets[-1])
    return n


@st.composite
def sequential_netlists(draw) -> Netlist:
    """Random netlist with DFFs feeding back into the logic."""
    n = draw(combinational_netlists())
    gate_nets = list(n.gates)
    n_flops = draw(st.integers(min_value=1, max_value=3))
    flop_outputs = []
    for k in range(n_flops):
        flop_outputs.append(n.add_gate(f"ff{k}", GateType.DFF, [f"d{k}"]))
    for k, ff in enumerate(flop_outputs):
        other = draw(st.sampled_from(gate_nets))
        mixed = n.add_gate(f"mix{k}", GateType.XOR, [ff, other])
        n.add_gate(f"d{k}", GateType.BUF,
                   [draw(st.sampled_from(gate_nets + [mixed]))])
        n.add_output(mixed)
    return n


def _draw_spec(draw, netlist: Netlist, width: int) -> VariantSpec:
    """One random variant delta legal for ``netlist``."""
    names = list(netlist.gates)
    inputs = {}
    for name in draw(st.lists(st.sampled_from(netlist.inputs),
                              max_size=2, unique=True)):
        inputs[name] = draw(st.integers(0, (1 << width) - 1))
    forces = {}
    for name in draw(st.lists(st.sampled_from(names),
                              max_size=2, unique=True)):
        forces[name] = draw(st.integers(0, 1))
    flips = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    opcodes = {}
    patchable = [
        name for name in names
        if netlist.gates[name].gate_type not in (GateType.INPUT,
                                                 GateType.DFF)
    ]
    if patchable:
        for name in draw(st.lists(st.sampled_from(patchable),
                                  max_size=2, unique=True)):
            arity = len(netlist.gates[name].fanins)
            candidates = list(_NULLARY)
            if arity >= 1:
                candidates += list(_UNARY) + list(_VARIADIC)
            if arity == 3:
                candidates.append(GateType.MUX)
            opcodes[name] = draw(st.sampled_from(candidates))
    return VariantSpec(inputs=inputs, forces=forces, flips=flips,
                       opcodes=opcodes)


def _stimulus(draw, names, width):
    return {
        name: draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        for name in names
    }


# ----------------------------------------------------------------------
# Engine-level bit-exactness
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_family_matches_reference_combinational(data):
    netlist = data.draw(combinational_netlists())
    width = data.draw(st.integers(min_value=1, max_value=48))
    n_variants = data.draw(st.integers(min_value=1, max_value=5))
    specs = [VariantSpec()] + [
        _draw_spec(data.draw, netlist, width) for _ in range(n_variants - 1)
    ]
    stimulus = _stimulus(data.draw, netlist.inputs, width)
    family = VariantFamily(netlist, specs)
    # Both execution strategies: first call interprets, second runs the
    # generated program; each must match the reference slice-for-slice.
    for _ in range(2):
        words = family.eval_words(stimulus, width)
        for v, spec in enumerate(specs):
            want = reference_eval(netlist, spec, stimulus, width)
            for name, index in get_compiled(netlist).index.items():
                got = family.split_word(words[index], width)[v]
                assert got == want[name], (
                    f"variant {v}, net {name}: {got:#x} != {want[name]:#x}")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_family_matches_reference_sequential(data):
    netlist = data.draw(sequential_netlists())
    width = data.draw(st.integers(min_value=1, max_value=32))
    n_variants = data.draw(st.integers(min_value=1, max_value=4))
    specs = [_draw_spec(data.draw, netlist, width)
             for _ in range(n_variants)]
    stimulus = _stimulus(data.draw, netlist.inputs, width)
    state = _stimulus(data.draw, netlist.flops, width)
    family = VariantFamily(netlist, specs)
    words = family.eval_words(stimulus, width, state=state)
    compiled = get_compiled(netlist)
    for v, spec in enumerate(specs):
        want = reference_eval(netlist, spec, stimulus, width, state=state)
        for name in netlist.outputs:
            got = family.split_word(words[compiled.index[name]], width)[v]
            assert got == want[name]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_variant_identity_family_equals_plain_eval(data):
    """The degenerate single-identity family IS the base evaluation."""
    netlist = data.draw(combinational_netlists())
    width = data.draw(st.integers(min_value=1, max_value=64))
    stimulus = _stimulus(data.draw, netlist.inputs, width)
    family = VariantFamily(netlist, [VariantSpec()])
    base = get_compiled(netlist).eval_words(stimulus, width)
    for _ in range(2):  # interpreted, then generated
        assert family.eval_words(stimulus, width) == base


def test_spec_round_trip_and_validation():
    netlist = c17()
    spec = VariantSpec(inputs={"G1": 5}, forces={"G10": 2},
                       flips=["G22", "G16"],
                       opcodes={"G10": "AND", "G22": GateType.CONST1})
    assert spec.forces["G10"] == 1       # normalized to 0/1
    assert VariantSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
    assert VariantSpec().is_identity() and not spec.is_identity()
    with pytest.raises(Exception):
        VariantFamily(netlist, [])       # empty family
    with pytest.raises(Exception):       # INPUT sites are not patchable
        VariantFamily(netlist, [VariantSpec(opcodes={"G1": "AND"})])
    with pytest.raises(NetlistError, match="'flip'"):   # misspelled delta
        VariantSpec.from_dict({"flip": ["G10"]})
    with pytest.raises(NetlistError, match="'flip'"):
        VariantFamily(netlist, [{"flip": ["G10"]}])


@pytest.mark.parametrize("traces", [3, 8])
@pytest.mark.parametrize("columns, match", [
    ({"G1": [1]}, "1 words for 2 variants"),            # short list
    ({"G1": [1, 1, 1]}, "3 words for 2 variants"),      # long list
    ({"nope": [1, 1]}, "'nope' is not an input"),       # unknown name
])
def test_per_variant_inputs_checked_at_every_width(traces, columns, match):
    netlist = c17()
    family = VariantFamily(netlist, [VariantSpec(), VariantSpec()])
    stimulus = {name: 0b101 for name in netlist.inputs}
    with pytest.raises(NetlistError, match=match):
        family.eval_words(stimulus, traces, per_variant_inputs=columns)


def test_plain_family_reuses_the_plain_program():
    """The identity family is the plain netlist: no second program."""
    reset_engine_cache()
    netlist = c17()
    stimulus = {name: 0b1011 for name in netlist.inputs}
    compiled = get_compiled(netlist)
    compiled.eval_words(stimulus, 4)          # interpreted
    want = compiled.eval_words(stimulus, 4)   # compiles the program
    before = engine_cache().stats()
    family = VariantFamily(netlist, [VariantSpec()])
    for _ in range(3):
        assert family.eval_words(stimulus, 4) == want
    after = engine_cache().stats()
    assert after["programs"] == before["programs"]
    assert after["misses"] == before["misses"]
    reset_engine_cache()


def test_one_shot_layouts_stay_bounded_and_keep_the_plain_program(
        monkeypatch):
    netlist = c17()
    stimulus = {name: 0b1011 for name in netlist.inputs}
    compiled = get_compiled(netlist)
    compiled.eval_words(stimulus, 4)
    want = compiled.eval_words(stimulus, 4)
    faults = enumerate_faults(netlist, kinds=(
        FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1, FaultKind.BIT_FLIP))
    # At 2**15 vectors every batched family holds one fault, so each
    # site brings its own layout: more than the memo may keep.
    layouts = {(f.net, f.kind is FaultKind.BIT_FLIP) for f in faults}
    assert len(layouts) > CompiledNetlist._PROGRAMS_MAX
    fault_campaign(netlist, faults, n_vectors=1 << 15, seed=1)
    assert get_compiled(netlist) is compiled
    assert len(compiled._programs) <= CompiledNetlist._PROGRAMS_MAX

    def not_compiled(self, *args):
        raise AssertionError("the plain program was dropped")

    # Neither interpreted nor regenerated: the compiled program runs.
    monkeypatch.setattr(CompiledNetlist, "_codegen", not_compiled)
    monkeypatch.setattr(CompiledNetlist, "_interpret", not_compiled)
    before = engine_cache().stats()
    assert compiled.eval_words(stimulus, 4) == want
    assert engine_cache().stats() == before


def test_one_fault_families_stay_bounded_and_keep_the_plain_program():
    """The memo bound under one layout per fault site, driven through
    VariantFamily directly: a 2**15-vector campaign runs serially and
    builds no families."""
    netlist = c17()
    stimulus = {name: 0b1011 for name in netlist.inputs}
    compiled = get_compiled(netlist)
    want = compiled.eval_words(stimulus, 4)
    specs = [spec for net in netlist.gates
             for spec in (VariantSpec(forces={net: 1}),
                          VariantSpec(flips=[net]))]
    assert len(specs) > CompiledNetlist._PROGRAMS_MAX
    for spec in specs:
        family = VariantFamily(netlist, [VariantSpec(), spec])
        for _ in range(2):      # the second use compiles the layout
            family.eval_words(stimulus, 4)
    assert get_compiled(netlist) is compiled
    assert len(compiled._programs) <= CompiledNetlist._PROGRAMS_MAX
    assert compiled.eval_words(stimulus, 4) == want


# ----------------------------------------------------------------------
# Ported consumers
# ----------------------------------------------------------------------

def reference_campaign(netlist: Netlist, faults, n_vectors: int,
                       seed: int, alarm=None):
    """``inject_fault`` then ``simulate_reference``, one copy per fault.

    The formulation :func:`fault_campaign` documents, evaluated with
    neither its event-driven nor its batched machinery; the stimulus
    is the campaign's own seeded draw.
    """
    mask = (1 << n_vectors) - 1
    stimulus = random_stimulus(netlist.inputs, n_vectors,
                               random.Random(seed))
    golden = simulate_reference(netlist, stimulus, n_vectors)
    outputs = [o for o in netlist.outputs if o != alarm]
    rows = []
    for fault in faults:
        faulty = simulate_reference(inject_fault(netlist, fault), stimulus,
                                    n_vectors)
        corrupt = 0
        for o in outputs:
            corrupt |= golden[o] ^ faulty[o]
        propagated = corrupt != 0
        if alarm is None:
            detected, silent = False, propagated
        else:
            undetected = corrupt & ~faulty[alarm] & mask
            detected, silent = propagated and undetected == 0, undetected != 0
        rows.append((fault.net, fault.kind, propagated, detected, silent))
    return rows


def _campaign_rows(report):
    return [(o.fault.net, o.fault.kind, o.propagated, o.detected,
             o.silent_corruption) for o in report.outcomes]


def _check_campaign(netlist: Netlist, n_vectors: int, seed: int,
                    alarm=None) -> None:
    """Both strategies vs the oracle on every fault.

    The full list runs batched from 2 to 128 patterns (a one-pattern
    block always runs serially); windows shorter than the threshold
    run serially.
    """
    faults = enumerate_faults(
        netlist, kinds=(FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1,
                        FaultKind.BIT_FLIP))
    want = reference_campaign(netlist, faults, n_vectors, seed, alarm)
    got = fault_campaign(netlist, faults, n_vectors=n_vectors, alarm=alarm,
                         seed=seed)
    assert _campaign_rows(got) == want
    step = _BATCH_THRESHOLD - 1
    for start in range(0, len(faults), step):
        window = faults[start:start + step]
        got = fault_campaign(netlist, window, n_vectors=n_vectors,
                             alarm=alarm, seed=seed)
        assert _campaign_rows(got) == want[start:start + step]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fault_campaign_matches_inject_then_simulate(data):
    netlist = data.draw(combinational_netlists())
    alarm = None
    if data.draw(st.booleans()):
        alarm = data.draw(st.sampled_from(
            [g for g in netlist.gates if g not in netlist.outputs]))
        netlist.add_output(alarm)
    _check_campaign(netlist,
                    n_vectors=data.draw(st.sampled_from([1, 2, 7, 32])),
                    seed=data.draw(st.integers(min_value=0, max_value=2**16)),
                    alarm=alarm)


@pytest.mark.parametrize("build", [
    c17, lambda: ripple_carry_adder(4), lambda: random_circuit(6, 30, 3, 5),
], ids=["c17", "rca4", "random"])
@pytest.mark.parametrize("with_alarm", [False, True])
def test_fault_campaign_both_strategies_match_oracle(build, with_alarm):
    netlist = build()
    assert len(enumerate_faults(netlist)) >= _BATCH_THRESHOLD
    alarm = None
    if with_alarm:
        # An internal net that also drives the payload: a flip on it
        # corrupts outputs while the alarm's own name reads healthy.
        fanout = netlist.fanout_map()
        alarm = next(g for g in netlist.topological_order()
                     if netlist.gates[g].gate_type is not GateType.INPUT
                     and fanout[g])
        netlist.add_output(alarm)
    for n_vectors, seed in ((1, 0), (1, 1), (2, 0), (2, 1), (48, 2)):
        _check_campaign(netlist, n_vectors, seed, alarm)


@pytest.mark.parametrize("n_vectors, batched", [(64, True), (1024, False)])
def test_fault_campaign_strategy_follows_faults_per_word(
        monkeypatch, n_vectors, batched):
    """Narrow words hold many faults each and batch; 1024-vector words
    hold 32 and run serially."""
    import repro.fia.analysis as analysis

    families = []

    def spy(*args, **kwargs):
        families.append(args)
        return VariantFamily(*args, **kwargs)

    monkeypatch.setattr(analysis, "VariantFamily", spy)
    netlist = ripple_carry_adder(8)
    faults = enumerate_faults(netlist)
    report = fault_campaign(netlist, faults, n_vectors=n_vectors, seed=3)
    assert bool(families) is batched
    assert (_campaign_rows(report)
            == reference_campaign(netlist, faults, n_vectors, 3))


def test_atpg_batches_its_random_block_but_not_its_drop_calls(monkeypatch):
    """The kernel's strategy rule seen through ``run_atpg`` on the AES
    S-box: the 32-pattern random block grades every fault in one
    family, and each one-pattern drop call after a SAT test runs
    serially, however many faults it grades."""
    import repro.dft.atpg as atpg
    import repro.fia.analysis as analysis

    families = []

    def spy(*args, **kwargs):
        families.append(args)
        return VariantFamily(*args, **kwargs)

    drops = []
    detected_by_vectors = atpg.detected_by_vectors

    def drop_spy(netlist, vectors, faults):
        drops.append((len(vectors), len(faults)))
        return detected_by_vectors(netlist, vectors, faults)

    monkeypatch.setattr(analysis, "VariantFamily", spy)
    monkeypatch.setattr(atpg, "detected_by_vectors", drop_spy)
    netlist = aes_sbox_netlist()
    run_atpg(netlist, random_budget=32, seed=0)
    assert len(families) == 1
    assert len(enumerate_faults(netlist)) >= _BATCH_THRESHOLD
    assert drops and all(width == 1 for width, _ in drops)
    assert max(n for _, n in drops) >= _BATCH_THRESHOLD


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_family_leakage_traces_match_serial_sweep(data):
    """Batched traces — and hence TVLA verdicts — are byte-equal."""
    netlist = data.draw(combinational_netlists())
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    n_traces = 24
    stimuli = [
        {name: int(rng.integers(0, 2)) for name in netlist.inputs}
        for _ in range(n_traces)
    ]
    # Variants flip a subset of inputs: the serial equivalent is the
    # same sweep on inverted stimulus bits.
    subsets = [[]] + [
        data.draw(st.lists(st.sampled_from(netlist.inputs),
                           min_size=1, max_size=3, unique=True))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
    ]
    family = VariantFamily(
        netlist, [VariantSpec(flips=subset) for subset in subsets])
    batched = family_leakage_traces(family, stimuli, noise_sigma=0.8,
                                    seed=seed)
    for v, subset in enumerate(subsets):
        flipped = [
            {name: value ^ (1 if name in subset else 0)
             for name, value in stim.items()}
            for stim in stimuli
        ]
        serial = leakage_traces(netlist, flipped, noise_sigma=0.8,
                                seed=seed + v)
        assert np.array_equal(batched[v], serial)
        half = n_traces // 2
        got = tvla(batched[v][:half], batched[v][half:])
        want = tvla(serial[:half], serial[half:])
        assert got.max_abs_t == want.max_abs_t
        assert got.leaking_sample == want.leaking_sample


def test_service_variant_hashes_and_cache_hits(tmp_path):
    """A ``variant-batch`` job's rows equal the one-variant kernel, and
    each is published under its ``variant-eval`` spec hash, so a
    per-variant resubmission is served from the cache."""
    from repro.service import (
        ArtifactStore,
        JobSpec,
        Scheduler,
        SUCCEEDED,
        evaluate_variants,
    )

    netlist = c17()
    variants = [VariantSpec.from_dict(v).to_dict() for v in (
        {"flips": ["G10"]},
        {"forces": {"G16": 1}},
        {"inputs": {"G1": 3}},
        {},
    )]
    store = ArtifactStore(str(tmp_path / "store"))
    digest = store.put_netlist(netlist)
    scheduler = Scheduler(workers=0, store=store)
    batch_id = scheduler.submit(JobSpec(
        "variant-batch", params={"netlist": digest, "variants": variants,
                                 "n_vectors": 16}, seed=3))
    batch = scheduler.run()[batch_id]
    assert batch.status == SUCCEEDED
    eval_specs = [
        JobSpec("variant-eval", params={"netlist": digest,
                                        "variant": variant,
                                        "n_vectors": 16}, seed=3)
        for variant in variants]
    assert batch.result["variant_hashes"] == \
        [spec.spec_hash for spec in eval_specs]
    for variant, row in zip(variants, batch.result["results"]):
        assert row == evaluate_variants(netlist, [variant], n_vectors=16,
                                        seed=3)[0]
    # Resubmitting each variant alone runs nothing: every per-variant
    # spec hash is already in the store.
    again = Scheduler(workers=0, store=store)
    ids = [again.submit(spec) for spec in eval_specs]
    jobs = again.run()
    assert all(jobs[i].cache_hit for i in ids)
    assert [jobs[i].result for i in ids] == batch.result["results"]
