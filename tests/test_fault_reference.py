"""ATPG and formal fault coverage against the frozen two-miter references.

``reference_faults.py`` keeps the ATPG engine that read the faulty
netlist's output ports and the proof that encoded two full copies per
fault.  Both jobs now run on :class:`repro.fia.FaultMiter`.  These
tests check that, on netlists where no input is also an output, the
one miter gives the same ATPG results field by field, and, on
combinational designs, the same formal verdicts, with every witness a
real silent corruption under simulation.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_faults as ref
from repro.crypto import aes_sbox_netlist, present_sbox_netlist
from repro.dft import run_atpg
from repro.fia import (
    FaultKind,
    duplicate_and_compare,
    enumerate_faults,
    formal_coverage,
    inject_fault,
    parity_protect,
    residue_protect_adder,
    tmr_protect,
)
from repro.netlist import (
    GateType,
    array_multiplier,
    c17,
    ripple_carry_adder,
    simulate_reference,
)
from repro.sca import mask_netlist
from test_engine import combinational_netlists

ALL_KINDS = (FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1, FaultKind.BIT_FLIP)

ATPG_DESIGNS = {
    "c17": c17,
    "rca8": lambda: ripple_carry_adder(8),
    "mult4": lambda: array_multiplier(4),
    "aes-sbox": aes_sbox_netlist,
    "present-sbox": present_sbox_netlist,
    "masked-present": lambda: mask_netlist(present_sbox_netlist()).netlist,
}

PROTECTED = {
    "dup-rca2": lambda: duplicate_and_compare(ripple_carry_adder(2)),
    "dup-rca3": lambda: duplicate_and_compare(ripple_carry_adder(3)),
    "dup-rca4": lambda: duplicate_and_compare(ripple_carry_adder(4)),
    "parity-rca2": lambda: parity_protect(ripple_carry_adder(2)),
    "parity-rca3": lambda: parity_protect(ripple_carry_adder(3)),
    "parity-rca4": lambda: parity_protect(ripple_carry_adder(4)),
    "tmr-rca3": lambda: tmr_protect(ripple_carry_adder(3)),
    "residue-adder4": lambda: residue_protect_adder(4),
}


def _fields(result):
    return (result.vectors, result.detected, result.untestable,
            result.aborted)


@pytest.mark.parametrize("budget", [1, 4, 16])
@pytest.mark.parametrize("name", list(ATPG_DESIGNS))
def test_run_atpg_matches_reference(name, budget):
    netlist = ATPG_DESIGNS[name]()
    assert (_fields(run_atpg(netlist, random_budget=budget, seed=3))
            == _fields(ref.run_atpg(netlist, random_budget=budget, seed=3)))


def _check_formal(netlist, alarm):
    """Same coverage and same missed faults as the two-copy proof, and
    each witness corrupts a payload output (read by name) with the
    alarm low."""
    faults = enumerate_faults(netlist, kinds=ALL_KINDS)
    coverage, missed = formal_coverage(netlist, faults, alarm)
    want_coverage, want_missed = ref.formal_coverage(netlist, faults, alarm)
    assert coverage == want_coverage
    assert [m.fault for m in missed] == [m.fault for m in want_missed]
    outputs = [o for o in netlist.outputs if o != alarm]
    for m in missed:
        good = simulate_reference(netlist, m.witness)
        bad = simulate_reference(inject_fault(netlist, m.fault), m.witness)
        assert any(good[o] != bad[o] for o in outputs), m.fault
        assert bad[alarm] == 0, m.fault


@pytest.mark.parametrize("name", list(PROTECTED))
def test_formal_coverage_matches_reference(name):
    _check_formal(PROTECTED[name]().netlist, "alarm")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_formal_coverage_matches_reference_on_drawn_netlists(data):
    netlist = data.draw(combinational_netlists())
    candidates = [g for g in netlist.gates if g not in netlist.outputs
                  and netlist.gates[g].gate_type is not GateType.INPUT]
    assume(candidates)
    alarm = data.draw(st.sampled_from(candidates))
    netlist.add_output(alarm)
    _check_formal(netlist, alarm)
