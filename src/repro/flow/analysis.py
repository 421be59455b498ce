"""Epoch-keyed analysis cache for the pass manager.

Every expensive derived view of a netlist — topological order,
levelization, PPA, the compiled simulation program, the simulated net
bits of a TVLA class and the leakage statistics computed from them —
is an *analysis*.  :class:`AnalysisCache` stores one entry per
``(analysis name, extra key)`` pair, validated against the identity of
the netlist it was computed from **and** the netlist's
:attr:`~repro.netlist.Netlist.mutation_epoch` at computation time.
Any structural mutation bumps the epoch (see ``Netlist.invalidate``),
so stale entries can never be served; passes that merely *read* the
netlist (placement, sign-off, re-verification of preserved properties)
get their analyses back for free.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..netlist import Netlist, ppa_report
from ..netlist.engine import get_compiled


class AnalysisCache:
    """Memoized netlist analyses, invalidated by mutation epoch."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Tuple[Any, int, Netlist, Any]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: str, netlist: Netlist, build: Callable[[], Any],
            key: Tuple = ()) -> Any:
        """Cached ``build()`` result for ``(name, key)`` on ``netlist``.

        ``key`` disambiguates parameterized analyses (e.g. leakage
        traces at different budgets); entries additionally pin the exact
        anchor object passed in ``key[0]`` (if any) by identity, so a
        recycled ``id()`` can never alias a stale result.
        """
        anchor = key[0] if key else netlist
        full_key = (name,) + tuple(
            k if isinstance(k, (int, float, str, bool, type(None)))
            else id(k) for k in key)
        entry = self._entries.get(full_key)
        if (entry is not None and entry[0] is anchor
                and entry[1] == netlist.mutation_epoch
                and entry[2] is netlist):
            self.hits += 1
            return entry[3]
        self.misses += 1
        value = build()
        self._entries[full_key] = (anchor, netlist.mutation_epoch,
                                   netlist, value)
        return value

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop entries for one analysis name, or everything."""
        if name is None:
            self._entries.clear()
            return
        for full_key in [k for k in self._entries if k[0] == name]:
            del self._entries[full_key]

    def __len__(self) -> int:
        return len(self._entries)

    # -- stock analyses ------------------------------------------------

    def topo_order(self, netlist: Netlist):
        """Cached topological order."""
        return self.get("topo-order", netlist, netlist.topological_order)

    def levels(self, netlist: Netlist):
        """Cached logic levelization."""
        return self.get("levels", netlist, netlist.levels)

    def ppa(self, netlist: Netlist):
        """Cached PPA report."""
        return self.get("ppa", netlist, lambda: ppa_report(netlist))

    def compiled(self, netlist: Netlist):
        """Cached compiled simulation program.

        ``get_compiled`` already keeps one program per netlist keyed on
        topo-list identity; routing it through the cache also counts
        hits/misses into the flow provenance.
        """
        return self.get("compiled-engine", netlist,
                        lambda: get_compiled(netlist))
