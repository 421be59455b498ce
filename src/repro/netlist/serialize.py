"""Canonical netlist serialization and content hashing.

The flow-execution service (:mod:`repro.service`) caches every flow
result on disk keyed by *what was computed on what*: a stable hash of
the input netlist, a stable hash of the pipeline/job parameters, and a
seed.  :func:`netlist_to_dict` / :func:`netlist_from_dict` preserve
everything observable, including gate *insertion order* (which fixes
``inputs`` order, candidate-site enumeration in transforms like
``lock_xor``, and therefore the exact bits any seeded downstream
computation produces), and :func:`transport_hash` addresses that form.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from .gates import GateType
from .netlist import Netlist

#: JSON scalar types admitted in canonical spec hashing.
_SCALARS = (str, int, float, bool, type(None))


def canonical_json(obj: object) -> str:
    """Deterministic JSON encoding of a JSON-able object.

    Dict keys are sorted recursively, so two dicts with the same
    mapping but different insertion histories encode identically.
    Raises :class:`TypeError` on values JSON cannot represent — specs
    meant for hashing must be built from scalars, lists, and dicts.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def stable_hash(obj: object) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def netlist_to_dict(netlist: Netlist) -> Dict[str, object]:
    """Transport form: everything needed to rebuild the netlist exactly.

    Gates are listed in insertion order — that order is observable
    (``inputs``, transform site enumeration) and must survive the
    round trip bit-for-bit.
    """
    return {
        "name": netlist.name,
        "gates": [[g.name, g.gate_type.value, list(g.fanins)]
                  for g in netlist.gates.values()],
        "outputs": list(netlist.outputs),
    }


def netlist_from_dict(data: Dict[str, object]) -> Netlist:
    """Rebuild a :class:`Netlist` from :func:`netlist_to_dict` output.

    ``add_gate`` tolerates forward references in fanins, so gates are
    replayed in their stored (insertion) order directly, and the result
    is then validated: an undriven fanin, a bad arity or a
    combinational cycle raises :class:`~repro.netlist.NetlistError`.
    The topological order that check computes is the one the engine
    compiles from, so a valid netlist pays for it once.
    """
    netlist = Netlist(str(data["name"]))
    for name, type_value, fanins in data["gates"]:
        netlist.add_gate(name, GateType(type_value), list(fanins))
    for net in data["outputs"]:
        netlist.add_output(net)
    netlist.validate()
    return netlist


def transport_hash(netlist: Netlist) -> str:
    """SHA-256 digest of the order-preserving transport form.

    The artifact-store address of a *stored* netlist.  Gate insertion
    order is part of the digest, because the stored form preserves it
    and it is observable: seeded site enumeration walks it, so two
    structurally identical netlists built in different orders are
    different transport artifacts — a job addressing one can never be
    computed (or cache-served) against the other's ordering.  The
    netlist name is excluded: renaming a design does not change what
    any flow computes on it.
    """
    data = netlist_to_dict(netlist)
    return stable_hash({"gates": data["gates"],
                        "outputs": data["outputs"]})
