"""Golden digests of the flow, synthesis and re-association rows.

Each row is one named, seeded computation whose result must not move
unless a change means it to:

* ``closure/*``: security closures, trace included;
* ``secure/*``: SecureFlow runs on the masked AND gadget;
* ``place/*``: the three placements of the ``signoff`` workload;
* ``route/rca16``: ``benchmarks/bench_closure.py``'s routed adder;
* ``synth/<netlist>/<pass>``: each synthesis rewrite pass alone and all
  six chained, with the result's transport hash and mutation epoch
  (``pass-pipeline`` job results carry epochs);
* ``fig1/aes-sbox``: the Fig. 1 pipeline's trace;
* ``reassoc/<function>/<netlist>``: timing-driven and balanced XOR
  re-association, every gate (name, type, fanins, in order) and the
  outputs.  The mutation epoch is left out: it counts sweeps, not
  structure.

A row's golden is the SHA-256 of its canonical JSON, hashed as
:func:`test_job_goldens.digest` hashes a job result: wall times
dropped, floats at 10 significant digits.  A moved row fails with its
name.  Regenerate only the rows a change moves on purpose, and record
each one in CHANGES.md with its reason::

    PYTHONPATH=src python tests/test_parity_goldens.py ROW [ROW ...]

rewrites the named rows in ``parity_goldens.json``; with no row named
it rewrites every row.
"""

import json
import sys
from pathlib import Path

import pytest

from test_job_goldens import digest

from repro.core import (SecureFlow, masked_and_design,
                        no_leaky_net_requirement, tvla_requirement)
from repro.crypto import aes_sbox_netlist, present_sbox_netlist
from repro.flow import (DuplicationDetectPass, ParityDetectPass,
                        PassManager, classical_pipeline, create_pass,
                        netlist_design, strip_wall_times)
from repro.netlist import (array_multiplier, c17, random_circuit,
                           ripple_carry_adder, transport_hash)
from repro.physical import annealing_placement, maze_route, \
    security_closure
from repro.sca import isw_and_netlist, mask_netlist
from repro.synth import balance_trees, reassociate_for_timing

GOLDENS = Path(__file__).with_name("parity_goldens.json")


def _closure(make, **kwargs):
    doc = security_closure(make(), **kwargs).to_dict()
    doc["trace"] = strip_wall_times(doc["trace"])
    return doc


def _secure(requirement, countermeasure):
    result = SecureFlow([requirement(n_traces=2500)],
                        transforms=[countermeasure()],
                        placement_iterations=500).run(masked_and_design())
    return strip_wall_times(result.trace.to_dict())


def _synthesized_aes_sbox():
    return PassManager(seed=0).run(netlist_design(aes_sbox_netlist()),
                                   [create_pass("synthesis")]
                                   ).design.netlist


def _placement(make, iterations, seed):
    result = annealing_placement(make(), iterations=iterations, seed=seed)
    return {"positions": [[c, *p] for c, p in
                          result.placement.positions.items()],
            "hpwl": [result.initial_hpwl, result.final_hpwl],
            "moves_accepted": result.moves_accepted}


def _route_rca16():
    rca16 = ripple_carry_adder(16)
    placement = annealing_placement(rca16, seed=2,
                                    iterations=3000).placement
    return maze_route(rca16, placement).to_dict()


SYNTH_NETLISTS = {
    "c17": c17,
    "rca8": lambda: ripple_carry_adder(8),
    "mult4": lambda: array_multiplier(4),
    "aes-sbox": aes_sbox_netlist,
    "present-sbox": present_sbox_netlist,
    "masked-present": lambda: mask_netlist(present_sbox_netlist()).netlist,
    **{f"random{s}": (lambda s=s: random_circuit(7, 60, 3, seed=s))
       for s in range(4)},
}
SYNTH_PASSES = ("constprop", "strash", "inv2", "bufsweep", "sweep",
                "synthesis")


def _synth(make, names):
    result = PassManager(seed=1).run(netlist_design(make(), seed=1),
                                     [create_pass(name) for name in names])
    netlist = result.design.netlist
    return {"transport_hash": transport_hash(netlist),
            "mutation_epoch": netlist.mutation_epoch,
            "trace": strip_wall_times(result.trace.to_dict())}


def _fig1():
    result = PassManager(seed=0).run(
        netlist_design(aes_sbox_netlist()),
        classical_pipeline(placement_iterations=500))
    return strip_wall_times(result.trace.to_dict())


def _masked_present():
    """Masked PRESENT S-box and its late RNG inputs (Fig. 2)."""
    masked = mask_netlist(present_sbox_netlist())
    return masked.netlist, {r: 1e5 for r in masked.random_inputs}


def _isw_and():
    """The ISW AND gadget and its late RNG inputs (Fig. 2)."""
    return isw_and_netlist(), {f"r_{i}_{j}": 1e5 for i in range(3)
                               for j in range(i + 1, 3)}


def _random_circuit():
    return random_circuit(7, 60, 3, seed=0), {"in0": 50.0}


def _reassociated(make, rebuild, runs):
    """``runs`` re-associations of one netlist object, then every gate
    and the outputs."""
    netlist, late = make()
    rebuilt = [rebuild(netlist, late) for _ in range(runs)]
    return {"rebuilt": rebuilt,
            "gates": [[g.name, g.gate_type.value, list(g.fanins)]
                      for g in netlist.gates.values()],
            "outputs": list(netlist.outputs)}


REASSOCIATIONS = {
    "timing": lambda netlist, late: reassociate_for_timing(
        netlist, input_arrivals=late),
    "balance": lambda netlist, late: balance_trees(netlist),
}
REASSOC_NETLISTS = {
    "masked-present": (_masked_present, 1),
    "masked-present-twice": (_masked_present, 2),
    "isw-and": (_isw_and, 1),
    "random0": (_random_circuit, 1),
}


def _rows():
    rows = {}
    for name, make, kwargs in [
            ("c17", c17, {"seed": 2}),
            ("rca8", lambda: ripple_carry_adder(8), {"seed": 2}),
            ("present", present_sbox_netlist, {"seed": 2}),
            ("rca8-3layers", lambda: ripple_carry_adder(8),
             {"num_layers": 3, "seed": 0})]:   # bury+shield+filler run
        rows[f"closure/{name}"] = (
            lambda make=make, kwargs=kwargs: _closure(make, **kwargs))
    for name, requirement, countermeasure in [
            ("parity", tvla_requirement, ParityDetectPass),
            ("dup", tvla_requirement, DuplicationDetectPass),
            ("leaky", no_leaky_net_requirement, ParityDetectPass)]:
        rows[f"secure/{name}"] = (
            lambda r=requirement, c=countermeasure: _secure(r, c))
    for name, make, iterations, seed in [
            ("aes-sbox-synthesized", _synthesized_aes_sbox, 1000, 0),
            ("present", present_sbox_netlist, 2000, 2),
            ("masked-and", lambda: masked_and_design().netlist, 1500, 0)]:
        rows[f"place/{name}"] = (
            lambda make=make, i=iterations, s=seed: _placement(make, i, s))
    rows["route/rca16"] = _route_rca16
    for label, make in SYNTH_NETLISTS.items():
        for name in SYNTH_PASSES:
            rows[f"synth/{label}/{name}"] = (
                lambda make=make, name=name: _synth(make, [name]))
        rows[f"synth/{label}/chained"] = (
            lambda make=make: _synth(make, SYNTH_PASSES))
    rows["fig1/aes-sbox"] = _fig1
    for function, rebuild in REASSOCIATIONS.items():
        for label, (make, runs) in REASSOC_NETLISTS.items():
            rows[f"reassoc/{function}/{label}"] = (
                lambda make=make, rebuild=rebuild, runs=runs:
                _reassociated(make, rebuild, runs))
    return rows


ROWS = _rows()


def test_every_row_has_a_golden():
    assert sorted(json.loads(GOLDENS.read_text())) == sorted(ROWS)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_row_matches_golden(row):
    golden = json.loads(GOLDENS.read_text()).get(row)
    assert digest(ROWS[row]()) == golden, f"{row}: the row moved"


if __name__ == "__main__":
    named = sys.argv[1:] or sorted(ROWS)
    unknown = sorted(set(named) - set(ROWS))
    if unknown:
        sys.exit(f"unknown rows: {', '.join(unknown)}")
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    goldens.update((row, digest(ROWS[row]())) for row in named)
    GOLDENS.write_text(json.dumps(
        {row: goldens[row] for row in sorted(ROWS)}, indent=1) + "\n")
