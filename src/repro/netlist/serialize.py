"""Canonical netlist serialization and content hashing.

The flow-execution service (:mod:`repro.service`) caches every flow
result on disk keyed by *what was computed on what*: a stable hash of
the input netlist, a stable hash of the pipeline/job parameters, and a
seed.  Two requirements drive this module:

* **round-trip fidelity** — :func:`netlist_to_dict` /
  :func:`netlist_from_dict` preserve everything observable, including
  gate *insertion order* (which fixes ``inputs`` order, candidate-site
  enumeration in transforms like ``lock_xor``, and therefore the exact
  bits any seeded downstream computation produces);
* **structural stability** — :func:`netlist_hash` must assign the
  *same* digest to two structurally identical netlists even if their
  gates were inserted in different orders, so a cache populated by one
  construction path is hit by another.

Those pull in opposite directions, which is why the canonical *hash*
form (gates sorted by net name) is distinct from the *transport* form
(gates in insertion order).
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


def netlist_from_dict(data: Dict[str, object],
                      validate: bool = False) -> Netlist:
    """Rebuild a :class:`Netlist` from :func:`netlist_to_dict` output.

    ``add_gate`` tolerates forward references in fanins, so gates are
    replayed in their stored (insertion) order directly.  Pass
    ``validate=True`` to re-run full structural validation on data
    from outside the artifact store.
    """
    netlist = Netlist(str(data["name"]))
    for name, type_value, fanins in data["gates"]:
        netlist.add_gate(name, GateType(type_value), list(fanins))
    for net in data["outputs"]:
        netlist.add_output(net)
    if validate:
        netlist.validate()
    return netlist


def canonical_form(netlist: Netlist) -> Dict[str, object]:
    """Structural identity of a netlist, insertion-order independent.

    Gates are sorted by the net they drive (unique by the single-driver
    discipline).  The output list keeps its order — it is semantic
    (word decoding, miter construction).  The netlist *name* is
    excluded: renaming a design does not change what any flow computes
    on it.
    """
    return {
        "gates": sorted(
            [g.name, g.gate_type.value, list(g.fanins)]
            for g in netlist.gates.values()
        ),
        "outputs": list(netlist.outputs),
    }


def netlist_hash(netlist: Netlist) -> str:
    """SHA-256 digest of the structural :func:`canonical_form`.

    Two structurally identical netlists hash equal regardless of the
    order their gates were inserted in; any change to a gate type, a
    fanin, or the output list changes the digest.
    """
    return stable_hash(canonical_form(netlist))


def transport_hash(netlist: Netlist) -> str:
    """SHA-256 digest of the order-preserving transport form.

    The artifact-store address of a *stored* netlist.  Unlike
    :func:`netlist_hash`, gate insertion order is part of the digest,
    because the stored form preserves it and it is observable: seeded
    site enumeration walks it, so two structurally identical netlists
    built in different orders are different transport artifacts — a
    job addressing one can never be computed (or cache-served) against
    the other's ordering.  The netlist name is excluded, as in
    :func:`netlist_hash`.
    """
    data = netlist_to_dict(netlist)
    return stable_hash({"gates": data["gates"],
                        "outputs": data["outputs"]})
