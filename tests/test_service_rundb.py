"""Run database: queries, migration from JSON lines, durability.

The public API (``records``/``query``/``run_ids``/``summary``/
``render_records``) is what the CLI, the gateway and the campaign
clients read; a legacy JSON-lines log moves in through
:func:`migrate_jsonl` and is never opened as a database.
"""

import json
import sqlite3

import pytest

from repro.service import (
    RunDatabase,
    RunRecord,
    migrate_jsonl,
    render_records,
)


def _write_jsonl(path, records):
    """A legacy JSON-lines run log, one record per line."""
    with open(path, "a") as handle:
        for rec in records:
            handle.write(json.dumps(rec.as_dict()) + "\n")


def _make_records():
    """A small, shape-diverse log spanning two runs."""
    return [
        RunRecord("run-a", "j0001-lock", "locking-point", "aa" * 32,
                  "succeeded", attempts=1, wall_s=0.5, cache_hit=False,
                  worker="pid100", seed=1, finished_at=1000.0),
        RunRecord("run-a", "j0002-lock", "locking-point", "bb" * 32,
                  "succeeded", attempts=2, wall_s=1.25, cache_hit=True,
                  worker="cache", seed=2, finished_at=1001.0),
        RunRecord("run-a", "j0003-route", "route", "cc" * 32,
                  "failed", attempts=3, wall_s=2.0, cache_hit=False,
                  worker="pid101", error="Traceback\nboom", seed=3,
                  finished_at=1002.0),
        RunRecord("run-b", "j0001-close", "closure", "dd" * 32,
                  "timeout", attempts=1, wall_s=5.0, cache_hit=False,
                  worker="pid102", error="timeout: exceeded", seed=4,
                  finished_at=1003.5),
        RunRecord("run-b", "j0002-close", "closure", "aa" * 32,
                  "skipped", attempts=0, wall_s=0.0, cache_hit=False,
                  error="dependency failed: j0001-close", seed=5,
                  finished_at=1004.0),
    ]


class TestBackendDispatch:
    def test_sqlite_is_indexed(self, tmp_path):
        db = RunDatabase(tmp_path / "runs.db")
        names = {row[0] for row in db._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'")}
        for column in ("run_id", "spec_hash", "status", "job_type"):
            assert f"idx_records_{column}" in names
        db.close()

    def test_legacy_jsonl_log_is_refused_loudly(self, tmp_path):
        # A pre-SQLite log passed as the database must not open as an
        # empty one (nor be overwritten): it has to be migrated.
        from repro.service.cli import main

        path = tmp_path / "runs.jsonl"
        _write_jsonl(path, _make_records())
        before = path.read_bytes()
        with pytest.raises(sqlite3.DatabaseError):
            RunDatabase(path)
        with pytest.raises(sqlite3.DatabaseError):
            main(["runs", "--db", str(path)])
        assert path.read_bytes() == before


@pytest.fixture(params=["sqlite"])   # test ids name the backend
def db(request, tmp_path):
    return RunDatabase(tmp_path / f"runs.{request.param}")


class TestBackendParity:
    """Every public read path."""

    def test_records_round_trip_in_order(self, db):
        records = _make_records()
        db.record_many(records)
        assert db.records() == records

    def test_query_filters(self, db):
        records = _make_records()
        db.record_many(records)
        assert db.query(run_id="run-a") == records[:3]
        assert db.query(job_type="closure") == records[3:]
        assert db.query(status="succeeded") == records[:2]
        assert db.query(cache_hit=True) == [records[1]]
        assert db.query(since=1002.0) == records[2:]
        assert db.query(spec_hash="aa" * 32) == [records[0], records[4]]
        assert db.query(run_id="run-a", status="failed") == [records[2]]
        assert db.query(run_id="run-z") == []

    def test_run_ids_first_seen_order(self, db):
        db.record_many(_make_records())
        assert db.run_ids() == ["run-a", "run-b"]

    def test_summary(self, db):
        db.record_many(_make_records())
        summary = db.summary()
        assert summary["records"] == 5
        assert summary["by_status"] == {
            "succeeded": 2, "failed": 1, "timeout": 1, "skipped": 1}
        assert summary["cache_hits"] == 1
        assert summary["cache_hit_rate"] == pytest.approx(0.2)
        # Wall time sums only finished work: skipped jobs never ran.
        assert summary["total_wall_s"] == pytest.approx(8.75)
        assert summary["total_attempts"] == 7
        assert summary["runs"] == 2

    def test_summary_scoped_to_run(self, db):
        db.record_many(_make_records())
        summary = db.summary(run_id="run-b")
        assert summary["records"] == 2
        assert summary["by_status"] == {"timeout": 1, "skipped": 1}
        assert summary["runs"] == 1

    def test_empty_database(self, db):
        assert db.records() == []
        assert db.run_ids() == []
        assert db.summary() == {
            "records": 0, "by_status": {}, "cache_hits": 0,
            "cache_hit_rate": 0.0, "total_wall_s": 0.0,
            "total_attempts": 0, "runs": 0}

    def test_render_is_backend_independent(self, db):
        db.record_many(_make_records())
        rendered = render_records(db.records())
        assert "j0001-lock" in rendered
        assert "boom" not in rendered          # only the first line
        assert "Traceback" in rendered


class TestMigration:
    def test_round_trip_is_lossless(self, tmp_path):
        src = tmp_path / "legacy.jsonl"
        dest = tmp_path / "runs.db"
        records = _make_records()
        _write_jsonl(src, records)
        before = src.read_bytes()
        assert migrate_jsonl(src, dest) == len(records)
        migrated = RunDatabase(dest)
        # Every field survives, including timestamps and append order.
        assert migrated.records() == records
        # The source is untouched.
        assert src.read_bytes() == before

    def test_refuses_non_empty_destination(self, tmp_path):
        src = tmp_path / "legacy.jsonl"
        dest = tmp_path / "runs.db"
        _write_jsonl(src, _make_records())
        RunDatabase(dest).record(_make_records()[0])
        with pytest.raises(ValueError, match="refusing"):
            migrate_jsonl(src, dest)

    def test_empty_source_migrates_to_empty_database(self, tmp_path):
        assert migrate_jsonl(tmp_path / "none.jsonl",
                             tmp_path / "runs.db") == 0
        assert RunDatabase(tmp_path / "runs.db").records() == []


class TestJsonlTailCaching:
    """The legacy JSON-lines reader behind :func:`migrate_jsonl`: what a
    crashed writer or a hand edit leaves in the log never reaches the
    database."""

    def test_torn_tail_line_stays_pending(self, tmp_path):
        src = tmp_path / "legacy.jsonl"
        records = _make_records()
        _write_jsonl(src, records[:2])
        # A writer mid-append: no trailing newline yet.
        line = json.dumps(records[2].as_dict())
        with open(src, "a") as handle:
            handle.write(line[:20])
        assert migrate_jsonl(src, tmp_path / "torn.db") == 2
        assert RunDatabase(tmp_path / "torn.db").records() == records[:2]
        # The torn line was skipped, not lost: once the writer
        # completes it, it migrates.
        with open(src, "a") as handle:
            handle.write(line[20:] + "\n")
        assert migrate_jsonl(src, tmp_path / "whole.db") == 3
        assert RunDatabase(tmp_path / "whole.db").records() \
            == records[:3]

    def test_malformed_lines_are_skipped(self, tmp_path):
        src = tmp_path / "legacy.jsonl"
        records = _make_records()
        _write_jsonl(src, records[:1])
        with open(src, "a") as handle:
            handle.write("not json\n\n")
            handle.write('{"run_id": "orphan"}\n')   # missing fields
        _write_jsonl(src, records[1:])
        assert migrate_jsonl(src, tmp_path / "runs.db") == len(records)
        assert RunDatabase(tmp_path / "runs.db").records() == records


class TestSqliteDurability:
    def test_second_connection_sees_committed_writes(self, tmp_path):
        path = tmp_path / "runs.db"
        writer = RunDatabase(path)
        writer.record_many(_make_records())
        reader = RunDatabase(path)
        assert reader.records() == _make_records()
        writer.close()
        reader.close()

    def test_wal_mode_is_active(self, tmp_path):
        db = RunDatabase(tmp_path / "runs.db")
        (mode,) = db._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        db.close()

    def test_corrupt_sqlite_surfaces_loudly(self, tmp_path):
        # Corruption is an error, not silently empty results.
        path = tmp_path / "runs.db"
        path.write_bytes(b"SQLite format 3\x00" + b"\xff" * 64)
        with pytest.raises(sqlite3.DatabaseError):
            RunDatabase(path)


class TestSqliteConcurrency:
    # One RunDatabase instance may be shared by gateway threads
    # and inherited across fork() by pool workers; every statement is
    # serialized behind a lock and connections are pid-checked.

    def test_threads_share_one_instance_without_busy_errors(
            self, tmp_path):
        import threading

        db = RunDatabase(tmp_path / "runs.db")
        errors = []

        def hammer(thread_id):
            try:
                for i in range(25):
                    rec = RunRecord(
                        f"run-t{thread_id}", f"j{i:04d}", "locking-point",
                        "aa" * 32, "succeeded", seed=i)
                    db.record(rec)
                    db.query(run_id=f"run-t{thread_id}")
                    db.summary()
            except Exception as exc:   # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(db.records()) == 4 * 25
        db.close()

    def test_forked_child_gets_fresh_connection(self, tmp_path):
        import multiprocessing
        import os

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        db = RunDatabase(tmp_path / "runs.db")
        db.record(_make_records()[0])
        parent_conn = db._conn

        def child(database):
            # The inherited handle belongs to the parent; the guard
            # must replace it before any statement runs.
            database.record(RunRecord(
                "run-child", "j-child", "locking-point", "bb" * 32,
                "succeeded", seed=7))
            os._exit(0 if database._conn is not None
                     and database._pid == os.getpid() else 1)

        proc = ctx.Process(target=child, args=(db,))
        proc.start()
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
        # Parent keeps its own connection and sees the child's write.
        assert db._conn is parent_conn
        assert [r.run_id for r in db.query(run_id="run-child")] \
            == ["run-child"]
        db.close()
