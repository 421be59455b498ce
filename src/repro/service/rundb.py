"""Run database: every job outcome, in one indexed SQLite file.

Every job the scheduler finishes — succeeded, cache-served, failed,
timed out, cancelled, or skipped — is recorded here.  The database is
the system of record for campaign forensics: *what ran, where, how
many attempts, how long, and was it computed or served from the
artifact store*.

:class:`RunDatabase` keeps one ``records`` table indexed on
``run_id``, ``spec_hash``, ``status`` and ``job_type``; queries are
pushed down to SQL, so a 10k-record lookup touches an index, not the
whole file.  WAL journaling keeps concurrent readers (CLI
``runs``/``summary`` against a live campaign) off the writer's back.
A path that holds anything but a SQLite database is refused with
:class:`sqlite3.DatabaseError` rather than opened as an empty log.
:func:`migrate_jsonl` moves a legacy JSON-lines log into a SQLite
database losslessly, preserving append order and timestamps.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union


@dataclass
class RunRecord:
    """One job outcome, as logged by the scheduler."""

    run_id: str
    job_id: str
    job_type: str
    spec_hash: str
    status: str                 # "succeeded" | "failed" | "timeout" |
                                # "cancelled" | "skipped"
    attempts: int = 0
    wall_s: float = 0.0
    cache_hit: bool = False
    worker: str = ""
    error: str = ""
    seed: int = 0
    finished_at: float = field(default_factory=time.time)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        known = {f: data[f] for f in cls.__dataclass_fields__
                 if f in data}
        return cls(**known)


_FIELDS = ("run_id", "job_id", "job_type", "spec_hash", "status",
           "attempts", "wall_s", "cache_hit", "worker", "error",
           "seed", "finished_at")

_FINISHED = ("succeeded", "failed", "timeout")


_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id      TEXT NOT NULL,
    job_id      TEXT NOT NULL,
    job_type    TEXT NOT NULL,
    spec_hash   TEXT NOT NULL,
    status      TEXT NOT NULL,
    attempts    INTEGER NOT NULL,
    wall_s      REAL NOT NULL,
    cache_hit   INTEGER NOT NULL,
    worker      TEXT NOT NULL,
    error       TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    finished_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_run_id ON records(run_id);
CREATE INDEX IF NOT EXISTS idx_records_spec_hash ON records(spec_hash);
CREATE INDEX IF NOT EXISTS idx_records_status ON records(status);
CREATE INDEX IF NOT EXISTS idx_records_job_type ON records(job_type);
"""


class RunDatabase:
    """Log of job outcomes: indexed queries, WAL for concurrent readers.

    Safe to share one instance across threads and forks: a single
    re-entrant lock serializes every statement (SQLite connections are
    not concurrency-safe objects even with ``check_same_thread``
    off), and each call pid-checks the connection — a forked child
    that inherited this object gets a *fresh* connection instead of
    reusing the parent's handle (whose file locks and WAL state belong
    to the parent process).  The inherited handle is deliberately
    never closed in the child: closing would run rollback against the
    parent's locks.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._pid = os.getpid()
        self._conn = self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path),
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=5000")
        conn.executescript(_SCHEMA)
        conn.commit()
        return conn

    def _guard(self) -> "threading.RLock":
        """Lock to hold around connection use, after a pid check.

        In a forked child both the connection and the lock were
        inherited from the parent (the lock possibly mid-acquisition
        by a parent thread that does not exist here); replace both.
        Post-fork there is exactly one thread, so the swap is safe.
        """
        if os.getpid() != self._pid:
            self._lock = threading.RLock()
            self._conn = self._connect()
            self._pid = os.getpid()
        return self._lock

    def close(self) -> None:
        """Close this process's connection."""
        with self._guard():
            self._conn.close()

    # -- writing -------------------------------------------------------

    def record(self, rec: RunRecord) -> None:
        """Append one record (committed before returning)."""
        self.record_many([rec])

    def record_many(self, recs: Sequence[RunRecord]) -> None:
        """Bulk append in one transaction."""
        rows = [tuple(
            int(getattr(r, f)) if f == "cache_hit" else getattr(r, f)
            for f in _FIELDS) for r in recs]
        with self._guard(), self._conn:
            self._conn.executemany(
                f"INSERT INTO records ({','.join(_FIELDS)}) "
                f"VALUES ({','.join('?' * len(_FIELDS))})", rows)

    # -- reading -------------------------------------------------------

    @staticmethod
    def _from_row(row: Sequence[object]) -> RunRecord:
        data = dict(zip(_FIELDS, row))
        data["cache_hit"] = bool(data["cache_hit"])
        return RunRecord(**data)

    def _select(self, where: str = "", params: Sequence[object] = ()
                ) -> List[RunRecord]:
        sql = f"SELECT {','.join(_FIELDS)} FROM records"
        if where:
            sql += " WHERE " + where
        sql += " ORDER BY id"
        with self._guard():
            return [self._from_row(row)
                    for row in self._conn.execute(sql, params)]

    def records(self) -> List[RunRecord]:
        """All records in append order."""
        return self._select()

    def query(self, run_id: Optional[str] = None,
              job_type: Optional[str] = None,
              status: Optional[str] = None,
              cache_hit: Optional[bool] = None,
              since: Optional[float] = None,
              spec_hash: Optional[str] = None) -> List[RunRecord]:
        """Filtered view of the log; all filters are conjunctive."""
        clauses, params = [], []
        for column, value in (("run_id", run_id),
                              ("job_type", job_type),
                              ("status", status),
                              ("spec_hash", spec_hash)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if cache_hit is not None:
            clauses.append("cache_hit = ?")
            params.append(int(cache_hit))
        if since is not None:
            clauses.append("finished_at >= ?")
            params.append(since)
        return self._select(" AND ".join(clauses), params)

    def run_ids(self) -> List[str]:
        """Distinct run ids in first-seen order."""
        with self._guard():
            return [row[0] for row in self._conn.execute(
                "SELECT run_id FROM records GROUP BY run_id "
                "ORDER BY MIN(id)")]

    def summary(self, run_id: Optional[str] = None) -> Dict[str, object]:
        """Aggregate view: counts by status, cache traffic, wall time."""
        where, params = ("WHERE run_id = ?", (run_id,)) \
            if run_id is not None else ("", ())
        with self._guard():
            by_status = {
                status: count for status, count in self._conn.execute(
                    "SELECT status, COUNT(*) FROM records "
                    f"{where} GROUP BY status ORDER BY MIN(id)",
                    params)}
            total, hits, attempts, runs = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(cache_hit), 0), "
                "COALESCE(SUM(attempts), 0), COUNT(DISTINCT run_id) "
                f"FROM records {where}", params).fetchone()
            placeholders = ",".join("?" * len(_FINISHED))
            (wall,) = self._conn.execute(
                "SELECT COALESCE(SUM(wall_s), 0.0) FROM records "
                + (where + " AND " if where else "WHERE ")
                + f"status IN ({placeholders})",
                tuple(params) + _FINISHED).fetchone()
        return {
            "records": total,
            "by_status": by_status,
            "cache_hits": hits,
            "cache_hit_rate": (hits / total) if total else 0.0,
            "total_wall_s": wall,
            "total_attempts": attempts,
            "runs": runs,
        }


#: Alias of :class:`RunDatabase` for code that names the SQLite backend.
SqliteRunDatabase = RunDatabase


def migrate_jsonl(src: Union[str, Path],
                  dest: Union[str, Path]) -> int:
    """Copy a legacy JSON-lines run log into a SQLite database.

    The source holds one JSON record per line, as the pre-SQLite
    backend appended them; blank, malformed and incomplete lines (a
    crashed writer's torn tail) are skipped, a missing source is an
    empty log.  Append order, timestamps, and every field survive; the
    source is left untouched.  Returns the number of records
    migrated.  Raises if ``dest`` already holds records (a migration
    is one-shot, not a merge).
    """
    records = []
    try:
        with open(src, "rb") as handle:
            for line in handle:
                try:
                    records.append(RunRecord.from_dict(json.loads(line)))
                except (ValueError, TypeError):
                    continue
    except FileNotFoundError:
        pass
    target = RunDatabase(dest)
    (existing,) = target._conn.execute(
        "SELECT COUNT(*) FROM records").fetchone()
    if existing:
        raise ValueError(
            f"refusing to migrate into non-empty database {dest} "
            f"({existing} records present)")
    target.record_many(records)
    return len(records)


def render_records(records: Iterable[RunRecord]) -> str:
    """Fixed-width table of records for the CLI."""
    rows = list(records)
    if not rows:
        return "(no records)"
    lines = [f"{'job':<26} {'type':<20} {'status':<10} {'att':>3} "
             f"{'wall (s)':>9} {'cache':>5}  {'worker':<8} error"]
    for r in rows:
        lines.append(
            f"{r.job_id:<26.26} {r.job_type:<20.20} {r.status:<10} "
            f"{r.attempts:>3} {r.wall_s:>9.3f} "
            f"{'hit' if r.cache_hit else '-':>5}  {r.worker:<8.8} "
            f"{r.error.splitlines()[0][:40] if r.error else ''}")
    return "\n".join(lines)
