"""Content-addressed on-disk artifact store.

Every expensive flow result — a locking-sweep point, a composition
cross-effect row, a serialized netlist, a :class:`~repro.flow.manager.
FlowTrace` dict — is an *artifact*, addressed by the SHA-256 digest of
what produced it: ``(input netlist hash, pipeline/params hash, seed)``.
Re-running an identical flow in any later process, on any worker, is a
store hit instead of a recomputation.

Layout: artifacts live under ``root/<digest[:2]>/<digest[2:]>.json`` —
sharded by the first byte so no directory grows unboundedly.  Writes
are atomic (``os.replace`` of a same-directory temp file) and
*idempotent*: content addressing means a digest that already exists
needs no second write, so concurrent multi-writer publication is
lock-free — racers either skip (digest present) or replace with
identical bytes.

Lifecycle: artifacts can be **pinned** under named references
(``pin``/``unpin`` — ref-counted via files in ``root/.pins/``, so
pinning is also lock-free and multi-process safe), and the store can
be **garbage-collected** (:meth:`ArtifactStore.gc`): a mark-and-sweep
from the pinned roots, following digest references embedded in
artifact payloads, that removes everything unreachable — except
artifacts younger than a grace window, which protects results that a
live campaign has published but not yet pinned or referenced.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Union

from ..netlist import (
    Netlist,
    netlist_from_dict,
    netlist_to_dict,
    transport_hash,
)


#: Anything that looks like a store digest inside a payload: the JSON
#: scan treats these as references for the garbage collector's mark
#: phase.  SHA-256 hex, the store's native address format.
_DIGEST_RE = re.compile(r"\A[0-9a-f]{64}\Z")


def validate_digest(digest: str) -> str:
    """Return ``digest`` if it is a well-formed store address.

    Digests arrive from untrusted places — CLI arguments, gateway URL
    paths — and are spliced into filesystem paths, so syntax is
    enforced *before* any path construction: exactly 64 lowercase hex
    characters (SHA-256), nothing traversal-shaped can pass.  Raises
    :class:`ValueError` otherwise.
    """
    if not isinstance(digest, str) or not _DIGEST_RE.match(digest):
        shown = digest if isinstance(digest, str) else type(digest)
        raise ValueError(
            f"invalid artifact digest {shown!r}: expected 64 lowercase "
            "hex characters (SHA-256)")
    return digest


@dataclass
class GcReport:
    """Outcome of one :meth:`ArtifactStore.gc` pass."""

    removed: List[str] = field(default_factory=list)
    kept_pinned: int = 0
    kept_referenced: int = 0
    kept_recent: int = 0
    bytes_freed: int = 0
    dry_run: bool = False


class ArtifactStore:
    """Sharded, content-addressed JSON artifact store.

    ``hits`` / ``misses`` count :meth:`get` traffic in this process;
    ``writes`` / ``dedup_skips`` count :meth:`put` traffic (a skip is
    a put whose digest already existed — the idempotent fast path).
    The authoritative cross-process record is the run database.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.dedup_skips = 0

    # -- addressing ----------------------------------------------------

    def _path(self, digest: str) -> Path:
        validate_digest(digest)
        return self.root / digest[:2] / f"{digest[2:]}.json"

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    # -- generic JSON artifacts ----------------------------------------

    def put(self, digest: str, payload: Dict[str, object]) -> Path:
        """Idempotently persist ``payload`` under ``digest``.

        Content addressing makes publication lock-free across any
        number of writers: a digest that already exists is skipped
        (same digest ⇒ same content, so there is nothing to write),
        and racers that miss the existence check atomically
        ``os.replace`` identical bytes.  No writer ever observes a
        half-written artifact.
        """
        path = self._path(digest)
        if path.exists():
            self.dedup_skips += 1
            return path
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.writes += 1
        return path

    def get(self, digest: str) -> Optional[Dict[str, object]]:
        """Payload stored under ``digest``, or ``None`` (counted)."""
        path = self._path(digest)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except json.JSONDecodeError:
            # Publication is atomic, so undecodable content is genuine
            # corruption (a crashed writer on a non-POSIX rename, disk
            # trouble).  Unlink it so the recomputation's put() can
            # repair the slot instead of being dedup-skipped forever.
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    # -- netlists ------------------------------------------------------

    def put_netlist(self, netlist: Netlist) -> str:
        """Persist a netlist; returns its transport digest.

        Content-addressed by :func:`~repro.netlist.transport_hash`,
        which *includes* gate insertion order: the stored payload
        preserves that order (seeded site enumeration walks it), so
        the digest must too — otherwise two structurally identical
        netlists built in different orders would share one artifact
        and the second client's jobs would silently run against the
        first writer's ordering.  Any worker that loads the artifact
        reproduces seeded transforms bit-exactly.
        """
        digest = transport_hash(netlist)
        if digest not in self:
            self.put(digest, netlist_to_dict(netlist))
        return digest

    def get_netlist(self, digest: str,
                    cache: bool = True) -> Optional[Netlist]:
        """Load a netlist artifact back into a :class:`Netlist`.

        The parse validates the netlist
        (:func:`~repro.netlist.netlist_from_dict`), so a malformed
        artifact raises :class:`~repro.netlist.NetlistError` on load,
        not a ``KeyError`` in whatever reads it later.

        Served through the process-local
        :func:`~repro.netlist.engine_cache` by default: a warm worker
        re-loading the design it just evaluated skips the parse *and*
        keeps the compiled simulation program attached to the cached
        instance.  Safe because the key is content-addressed and the
        cache validates the netlist's mutation epoch — a client that
        mutated the shared instance in place merely forces the next
        load to re-parse.  The store is still consulted for existence,
        so a GC'd artifact reads as absent everywhere.
        """
        if cache:
            from ..netlist import engine_cache

            cached = engine_cache().get_netlist("artifact:" + digest)
            if cached is not None and digest in self:
                self.hits += 1
                return cached
        payload = self.get(digest)
        if payload is None:
            return None
        netlist = netlist_from_dict(payload)
        if cache:
            engine_cache().put_netlist("artifact:" + digest, netlist)
        return netlist

    # -- pinning -------------------------------------------------------

    _REF_OK = re.compile(r"\A[A-Za-z0-9._:@-]{1,128}\Z")

    def _pin_dir(self, digest: str) -> Path:
        validate_digest(digest)
        return self.root / ".pins" / digest

    def pin(self, digest: str, ref: str = "default") -> None:
        """Pin ``digest`` under a named reference.

        Pins are plain files (``root/.pins/<digest>/<ref>``), so
        pinning is idempotent per ``(digest, ref)``, ref-counted
        across distinct refs, and safe from any number of processes
        without locks.  A pinned artifact (and everything its payload
        references) is a GC root.
        """
        if not self._REF_OK.match(ref):
            raise ValueError(f"invalid pin ref: {ref!r}")
        pin_dir = self._pin_dir(digest)
        pin_dir.mkdir(parents=True, exist_ok=True)
        (pin_dir / ref).touch()

    def unpin(self, digest: str, ref: str = "default") -> bool:
        """Drop one reference; returns True if it existed."""
        if not self._REF_OK.match(ref):
            raise ValueError(f"invalid pin ref: {ref!r}")
        pin_dir = self._pin_dir(digest)
        try:
            (pin_dir / ref).unlink()
        except FileNotFoundError:
            return False
        try:
            pin_dir.rmdir()     # only succeeds when no refs remain
        except OSError:
            pass
        return True

    def pins(self, digest: str) -> List[str]:
        """Refs currently pinning ``digest`` (sorted)."""
        try:
            return sorted(p.name for p in self._pin_dir(digest).iterdir())
        except FileNotFoundError:
            return []

    def is_pinned(self, digest: str) -> bool:
        return bool(self.pins(digest))

    def pinned_digests(self) -> Set[str]:
        """All digests with at least one pin ref."""
        pins_root = self.root / ".pins"
        if not pins_root.is_dir():
            return set()
        return {d.name for d in pins_root.iterdir()
                if d.is_dir() and any(d.iterdir())}

    # -- garbage collection --------------------------------------------

    @staticmethod
    def _scan_refs(payload: object, out: Set[str]) -> None:
        """Collect digest-shaped strings reachable inside ``payload``."""
        if isinstance(payload, str):
            if _DIGEST_RE.match(payload):
                out.add(payload)
        elif isinstance(payload, dict):
            for key, value in payload.items():
                ArtifactStore._scan_refs(key, out)
                ArtifactStore._scan_refs(value, out)
        elif isinstance(payload, (list, tuple)):
            for value in payload:
                ArtifactStore._scan_refs(value, out)

    def referenced_digests(self, digest: str) -> Set[str]:
        """Digests the artifact under ``digest`` refers to (one hop)."""
        payload = self.get(digest)
        refs: Set[str] = set()
        if payload is not None:
            self._scan_refs(payload, refs)
        refs.discard(digest)
        return refs

    def gc(self, dry_run: bool = False,
           grace_s: float = 300.0) -> GcReport:
        """Mark-and-sweep unreachable artifacts.

        Roots are the pinned digests; the mark phase follows digest
        references embedded in artifact payloads transitively, so a
        pinned campaign result keeps the input netlists it points at.
        Artifacts modified within the last ``grace_s`` seconds are
        never collected — that is the in-flight window protecting
        results a live run has published but not yet pinned (and any
        artifact a racer is just now re-publishing).  ``dry_run``
        reports what a real pass would remove without touching disk.
        Stale ``*.tmp`` droppings older than the grace window are
        swept alongside.
        """
        now = time.time()
        present = set(self.digests())
        pinned = self.pinned_digests()
        marked: Set[str] = set()
        frontier = [d for d in pinned if d in present]
        while frontier:
            digest = frontier.pop()
            if digest in marked:
                continue
            marked.add(digest)
            for ref in self.referenced_digests(digest):
                if ref in present and ref not in marked:
                    frontier.append(ref)
        report = GcReport(dry_run=dry_run)
        for digest in sorted(present):
            if digest in pinned:
                report.kept_pinned += 1
                continue
            if digest in marked:
                report.kept_referenced += 1
                continue
            path = self._path(digest)
            try:
                mtime = path.stat().st_mtime
            except FileNotFoundError:
                continue    # a concurrent GC or client removed it
            if now - mtime < grace_s:
                report.kept_recent += 1
                continue
            report.removed.append(digest)
            try:
                report.bytes_freed += path.stat().st_size
                if not dry_run:
                    path.unlink()
            except OSError:
                pass
        if not dry_run:
            for shard in self.root.iterdir():
                if not shard.is_dir() or len(shard.name) != 2:
                    continue
                for tmp in shard.glob("*.tmp"):
                    try:
                        if now - tmp.stat().st_mtime >= grace_s:
                            tmp.unlink()
                    except OSError:
                        pass
                try:
                    shard.rmdir()   # only if now empty
                except OSError:
                    pass
        return report

    # -- introspection -------------------------------------------------

    def digests(self) -> Iterator[str]:
        """All artifact digests currently in the store."""
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for path in sorted(shard.iterdir()):
                if path.suffix == ".json":
                    yield shard.name + path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def __bool__(self) -> bool:
        # An empty store is still a store: without this, ``__len__``
        # makes ``if store:`` false on first use and optional-store
        # call sites silently skip the cache.
        return True

    def total_bytes(self) -> int:
        """Bytes on disk across all artifacts."""
        return sum(
            self._path(d).stat().st_size for d in self.digests())

    def __repr__(self) -> str:
        return (f"ArtifactStore({str(self.root)!r}, "
                f"artifacts={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")
