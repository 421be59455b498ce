"""Epoch-keyed analysis cache for the pass manager.

Every expensive derived view of a netlist is an *analysis*.
:class:`AnalysisCache` stores one entry per
``(analysis name, extra key)`` pair, validated against the identity of
the netlist it was computed from **and** the netlist's
:attr:`~repro.netlist.Netlist.mutation_epoch` at computation time.
Any structural mutation bumps the epoch (see ``Netlist.invalidate``),
so stale entries can never be served; passes that merely *read* the
netlist (placement, sign-off, re-verification of preserved properties)
get their analyses back for free.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from ..netlist import Netlist


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

