"""Oracles for the structurally hashed CNF encoder.

* soundness — in every model, every net's variable takes the net's
  ``simulate_reference`` value, in two copies encoded over shared inputs
  with random constant binds (the shape of the SAT attack's per-DIP
  copies), on random circuits and their EPIC, SFLL and Anti-SAT locks;
* sharing and folding — CEC of a correctly keyed EPIC lock against the
  original needs no search, and a copy with every data input bound to a
  constant allocates variables only inside the keys' fanout cone.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.formal import CircuitEncoder, check_equivalence, lit
from repro.ip import antisat_lock, apply_key, lock_xor, sfll_hd_lock
from repro.netlist import random_circuit, simulate_reference

from test_engine import combinational_netlists


def _locks(seed):
    """A random circuit and its three locks, as LockedCircuits."""
    base = random_circuit(7, 50, 3, seed=seed)
    return base, {
        "epic": lock_xor(base, 8, seed=seed),
        "sfll": sfll_hd_lock(base, base.outputs[0], h=0, n_protect_bits=5,
                             seed=seed).locked,
        "antisat": antisat_lock(base, width=3, seed=seed),
    }


def _check_two_copies(netlist, rng, samples=6):
    """Two copies over shared inputs, each pinning a random input subset
    to constants; every net of both must match the reference."""
    enc = CircuitEncoder()
    inputs = netlist.inputs
    shared = {name: enc.fresh_var() for name in inputs}
    copies = []
    for _ in range(2):
        pinned = {name: rng.randrange(2) for name in inputs
                  if rng.random() < 0.4}
        bind = {name: enc.const_var(pinned[name]) if name in pinned else var
                for name, var in shared.items()}
        copies.append((pinned, enc.encode(netlist, bind=bind)))
    solver = enc.solver
    for _ in range(samples):
        x = {name: rng.randrange(2) for name in inputs}
        assumptions = [lit(shared[name], negative=not x[name])
                       for name in inputs]
        assert solver.solve(assumptions=assumptions) is True
        for pinned, varmap in copies:
            want = simulate_reference(netlist, {**x, **pinned})
            got = {net: solver.model_value(v) for net, v in varmap.items()}
            assert got == want


@pytest.mark.parametrize("seed", range(4))
def test_locked_copies_match_reference(seed):
    base, locks = _locks(seed)
    rng = random.Random(seed)
    _check_two_copies(base, rng)
    for locked in locks.values():
        _check_two_copies(locked.netlist, rng)


@settings(max_examples=60, deadline=None)
@given(netlist=combinational_netlists(), seed=st.integers(0, 2 ** 16))
def test_every_gate_type_matches_reference(netlist, seed):
    """Repeated fanins, constants, wide XORs and MUXes included."""
    _check_two_copies(netlist, random.Random(seed))


@pytest.mark.parametrize("seed", range(6))
def test_cec_of_correct_key_needs_no_search(seed):
    base = random_circuit(8, 60, 4, seed=seed)
    locked = lock_xor(base, 10, seed=seed)
    result = check_equivalence(apply_key(locked), base)
    assert result.equivalent
    assert result.solver_stats["conflicts"] == 0
    assert result.solver_stats["decisions"] == 0


@pytest.mark.parametrize("kind", ["epic", "sfll", "antisat"])
@pytest.mark.parametrize("seed", range(3))
def test_dip_constant_copy_encodes_only_the_key_cone(kind, seed):
    locked = _locks(seed)[1][kind]
    netlist, keys = locked.netlist, locked.key_inputs
    cone = netlist.transitive_fanout(keys) - set(keys)
    enc = CircuitEncoder()
    constants = {enc.const_var(0), enc.const_var(1)}
    rng = random.Random(seed)
    bind = {name: enc.const_var(rng.randrange(2))
            for name in netlist.inputs if name not in keys}
    bind.update((key, enc.fresh_var()) for key in keys)
    before = enc.solver.num_vars
    varmap = enc.encode(netlist, bind=bind)
    assert all(varmap[net] in constants
               for net in netlist.gates if net not in cone | set(keys))
    # At most one variable per cone gate, or one per XOR chain link.
    budget = sum(max(1, len(netlist.gates[net].fanins) - 1) for net in cone)
    assert enc.solver.num_vars - before <= budget
