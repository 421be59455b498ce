"""Content-addressed artifact store and netlist hashing."""

import json
import multiprocessing
import os
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import (
    GateType,
    Netlist,
    NetlistError,
    c17,
    canonical_json,
    netlist_from_dict,
    netlist_to_dict,
    ripple_carry_adder,
    stable_hash,
    simulate,
    transport_hash,
)
from repro.service import ArtifactStore


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_order_invariant(self):
        assert (stable_hash({"x": 1, "y": 2})
                == stable_hash({"y": 2, "x": 1}))

    def test_rejects_non_json(self):
        with pytest.raises(TypeError):
            canonical_json({"fn": lambda: None})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


#: Transport dicts that ``add_gate`` accepts but that are no netlist:
#: a gate reading a net nothing drives, and a two-gate combinational
#: cycle.
MALFORMED_UNDRIVEN = {"name": "x", "gates": [
    ["a", "input", []], ["g", "and", ["a", "ghost"]]], "outputs": ["g"]}
MALFORMED_CYCLE = {"name": "x", "gates": [
    ["a", "input", []], ["c1", "xor", ["c2", "a"]],
    ["c2", "xor", ["c1", "a"]]], "outputs": ["c1"]}


class TestNetlistRoundTrip:
    @pytest.mark.parametrize("make", [c17,
                                      lambda: ripple_carry_adder(4)])
    def test_transport_round_trip_preserves_order(self, make):
        netlist = make()
        clone = netlist_from_dict(netlist_to_dict(netlist))
        # Insertion order is semantic (seeded site enumeration walks
        # it), so the transport form must preserve it exactly.
        assert list(clone.gates) == list(netlist.gates)
        assert clone.outputs == netlist.outputs
        for name, gate in netlist.gates.items():
            assert clone.gates[name].gate_type == gate.gate_type
            assert clone.gates[name].fanins == gate.fanins

    def test_round_trip_simulates_identically(self):
        netlist = ripple_carry_adder(4)
        clone = netlist_from_dict(netlist_to_dict(netlist))
        stim = {name: 0b1010 for name in netlist.inputs}
        assert simulate(clone, stim) == simulate(netlist, stim)

    @pytest.mark.parametrize("data", [MALFORMED_UNDRIVEN, MALFORMED_CYCLE],
                             ids=["undriven-fanin", "cycle"])
    def test_malformed_dict_raises(self, data):
        with pytest.raises(NetlistError):
            netlist_from_dict(data)

    def test_malformed_artifact_raises_on_load(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = stable_hash(MALFORMED_UNDRIVEN)
        store.put(digest, MALFORMED_UNDRIVEN)
        with pytest.raises(NetlistError):
            store.get_netlist(digest, cache=False)


def _permuted_clone(netlist: Netlist, order) -> Netlist:
    """Same structure, gates inserted in a different order."""
    clone = Netlist(netlist.name)
    names = list(netlist.gates)
    for i in order:
        gate = netlist.gates[names[i]]
        clone.add_gate(gate.name, gate.gate_type, list(gate.fanins))
    for out in netlist.outputs:
        clone.add_output(out)
    return clone


class TestTransportHash:
    def test_name_excluded(self):
        a, b = c17(), c17()
        b.name = "other"
        assert transport_hash(a) == transport_hash(b)

    def test_same_order_same_digest(self):
        assert transport_hash(c17()) == transport_hash(c17())

    def test_insertion_order_included(self):
        # Gate order is observable downstream (seeded site
        # enumeration), so the transport digest must distinguish
        # orderings of one structure.
        a = ripple_carry_adder(4)
        b = _permuted_clone(a, list(reversed(range(len(a.gates)))))
        assert sorted(netlist_to_dict(a)["gates"]) == \
            sorted(netlist_to_dict(b)["gates"])
        assert transport_hash(a) != transport_hash(b)


class TestArtifactStore:
    def test_put_get(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("ab" * 32, {"x": 1})
        assert store.get("ab" * 32) == {"x": 1}
        assert store.get("cd" * 32) is None
        assert len(store) == 1

    def test_empty_store_is_truthy(self, tmp_path):
        assert bool(ArtifactStore(tmp_path))

    def test_sharded_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ab" * 32
        store.put(digest, {"x": 1})
        assert (tmp_path / digest[:2] / f"{digest[2:]}.json").exists()

    def test_netlist_round_trip_content_addressed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        netlist = c17()
        digest = store.put_netlist(netlist)
        assert digest == transport_hash(netlist)
        # Re-putting the same content is a no-op, not a new artifact.
        assert store.put_netlist(c17()) == digest
        assert len(store) == 1
        clone = store.get_netlist(digest)
        assert list(clone.gates) == list(netlist.gates)
        assert clone.outputs == netlist.outputs

    def test_distinct_orderings_are_distinct_artifacts(self, tmp_path):
        # Two structurally identical netlists built in different gate
        # orders must not share a store slot: each client's jobs must
        # load back *its own* ordering, or seeded site enumeration in
        # the worker diverges from that client's serial run.
        store = ArtifactStore(tmp_path)
        a = ripple_carry_adder(4)
        b = _permuted_clone(a, list(reversed(range(len(a.gates)))))
        digest_a = store.put_netlist(a)
        digest_b = store.put_netlist(b)
        assert digest_a != digest_b
        assert len(store) == 2
        assert list(store.get_netlist(digest_a).gates) == list(a.gates)
        assert list(store.get_netlist(digest_b).gates) == list(b.gates)

    def test_cross_process_key_stability(self, tmp_path):
        # The same spec computed in another "process" (fresh objects)
        # addresses the same artifact.
        store = ArtifactStore(tmp_path)
        key = stable_hash({"input": transport_hash(c17()), "seed": 3})
        store.put(key, {"result": 42})
        assert stable_hash({"input": transport_hash(c17()), "seed": 3}) \
            == key
        assert ArtifactStore(tmp_path).get(key) == {"result": 42}

    def test_torn_write_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ef" * 32
        shard = tmp_path / digest[:2]
        shard.mkdir()
        (shard / f"{digest[2:]}.json").write_text('{"trunc')
        assert store.get(digest) is None

    def test_hit_miss_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("ab" * 32, {"x": 1})
        store.get("ab" * 32)
        store.get("cd" * 32)
        assert store.hits == 1
        assert store.misses == 1

    def test_concurrent_put_same_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "aa" * 32

        def put():
            for _ in range(20):
                store.put(digest, {"x": 1})

        threads = [threading.Thread(target=put) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.get(digest) == {"x": 1}
        assert len(store) == 1

    def test_put_counters_distinguish_writes_from_skips(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ab" * 32
        store.put(digest, {"x": 1})
        store.put(digest, {"x": 1})     # idempotent fast path
        store.put("cd" * 32, {"y": 2})
        assert store.writes == 2
        assert store.dedup_skips == 1

    def test_corrupt_artifact_is_unlinked_and_repairable(self, tmp_path):
        # With idempotent put, a corrupt file left in place would be
        # dedup-skipped forever; get() must evict it so a recompute
        # can repair the slot.
        store = ArtifactStore(tmp_path)
        digest = "ef" * 32
        shard = tmp_path / digest[:2]
        shard.mkdir()
        (shard / f"{digest[2:]}.json").write_text('{"trunc')
        assert store.get(digest) is None
        store.put(digest, {"x": 1})
        assert store.dedup_skips == 0
        assert store.get(digest) == {"x": 1}


def _expected_payload(digest):
    return {"digest": digest, "blob": digest * 4}


def _stress_writer(root, worker_id, shared, rounds):
    """Child process: republish shared digests and publish own ones."""
    store = ArtifactStore(root)
    for rnd in range(rounds):
        for digest in shared:
            store.put(digest, _expected_payload(digest))
        own = stable_hash({"writer": worker_id, "round": rnd})
        store.put(own, _expected_payload(own))


def _stress_reader(root, shared, deadline_s):
    """Child process: hammer get(); exit non-zero on any torn read."""
    store = ArtifactStore(root)
    end = time.time() + deadline_s
    seen = set()
    while time.time() < end and len(seen) < len(shared):
        for digest in shared:
            payload = store.get(digest)
            if payload is None:
                continue        # not yet published: a miss, never torn
            if payload != _expected_payload(digest):
                os._exit(2)     # torn or wrong content
            seen.add(digest)
    os._exit(0 if len(seen) == len(shared) else 3)


class TestMultiWriterStress:
    def test_processes_racing_on_same_and_distinct_digests(self, tmp_path):
        # Publication is lock-free by design: two writer processes
        # race 50 rounds over the same 8 shared digests (pure dedup
        # contention) while each also publishes 50 distinct ones, and
        # a reader process concurrently asserts it never observes a
        # torn artifact.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        shared = [stable_hash({"shared": i}) for i in range(8)]
        rounds = 50
        writers = [
            ctx.Process(target=_stress_writer,
                        args=(str(tmp_path), w, shared, rounds))
            for w in range(2)]
        reader = ctx.Process(target=_stress_reader,
                             args=(str(tmp_path), shared, 10.0))
        for proc in writers + [reader]:
            proc.start()
        for proc in writers + [reader]:
            proc.join(timeout=30.0)
        assert all(p.exitcode == 0 for p in writers)
        assert reader.exitcode == 0, \
            f"reader exit {reader.exitcode} (2 = torn read)"
        store = ArtifactStore(tmp_path)
        assert len(store) == len(shared) + 2 * rounds
        for digest in shared:
            assert store.get(digest) == _expected_payload(digest)


class TestPinning:
    def test_pin_unpin_is_refcounted_across_refs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ab" * 32
        store.put(digest, {"x": 1})
        store.pin(digest, "run-1")
        store.pin(digest, "run-2")
        assert store.pins(digest) == ["run-1", "run-2"]
        assert store.unpin(digest, "run-1") is True
        assert store.is_pinned(digest)          # run-2 still holds it
        assert store.unpin(digest, "run-2") is True
        assert not store.is_pinned(digest)
        assert store.unpin(digest, "run-2") is False   # already gone

    def test_pin_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ab" * 32
        store.pin(digest, "r")
        store.pin(digest, "r")
        assert store.pins(digest) == ["r"]

    def test_traversal_refs_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("../evil", "a/b", "", "x" * 129):
            with pytest.raises(ValueError):
                store.pin("ab" * 32, bad)
            with pytest.raises(ValueError):
                store.unpin("ab" * 32, bad)

    def test_pins_are_not_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("ab" * 32, {"x": 1})
        store.pin("ab" * 32, "r")
        assert len(store) == 1
        assert store.pinned_digests() == {"ab" * 32}


def _age(path, seconds=1000.0):
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestGarbageCollection:
    def test_sweep_removes_only_unreachable(self, tmp_path):
        store = ArtifactStore(tmp_path)
        child = stable_hash({"c": 1})
        root_digest = stable_hash({"r": 1})
        garbage = stable_hash({"g": 1})
        store.put(child, {"v": 1})
        store.put(root_digest, {"input": child})
        store.put(garbage, {"v": 2})
        store.pin(root_digest, "keep")
        report = store.gc(grace_s=0.0)
        assert report.removed == [garbage]
        assert report.kept_pinned == 1
        assert report.kept_referenced == 1
        assert report.bytes_freed > 0
        assert garbage not in store
        assert child in store and root_digest in store

    def test_references_are_followed_transitively(self, tmp_path):
        store = ArtifactStore(tmp_path)
        c = stable_hash({"n": "c"})
        b = stable_hash({"n": "b"})
        a = stable_hash({"n": "a"})
        store.put(c, {"leaf": True})
        store.put(b, {"next": c})
        store.put(a, {"next": b})
        store.pin(a, "root")
        report = store.gc(grace_s=0.0)
        assert report.removed == []
        assert report.kept_referenced == 2

    def test_grace_window_protects_in_flight_artifacts(self, tmp_path):
        # A live campaign publishes before it pins: a just-written,
        # unpinned artifact must survive a concurrent GC.
        store = ArtifactStore(tmp_path)
        digest = stable_hash({"fresh": 1})
        store.put(digest, {"v": 1})
        report = store.gc(grace_s=300.0)
        assert report.removed == []
        assert report.kept_recent == 1
        assert digest in store

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = stable_hash({"doomed": 1})
        store.put(digest, {"v": 1})
        report = store.gc(dry_run=True, grace_s=0.0)
        assert report.dry_run
        assert report.removed == [digest]
        assert digest in store                   # still there
        assert store.gc(grace_s=0.0).removed == [digest]
        assert digest not in store

    def test_stale_tmp_and_empty_shards_swept(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = stable_hash({"doomed": 2})
        path = store.put(digest, {"v": 1})
        stale = path.parent / "leftover.tmp"
        stale.write_text("half a write")
        _age(stale)
        store.gc(grace_s=0.0)
        assert not stale.exists()
        assert not path.parent.exists()          # shard emptied out

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_gc_removes_exactly_the_unreachable_set(self, data):
        # Property: over random reference graphs and pin sets, GC
        # never collects a pinned or transitively-referenced artifact,
        # and with the grace window open it collects nothing at all
        # (the in-flight guarantee).
        n = data.draw(st.integers(2, 10), label="artifacts")
        digests = [stable_hash({"a": i}) for i in range(n)]
        edges = {
            i: data.draw(st.sets(st.integers(0, n - 1), max_size=3),
                         label=f"refs[{i}]")
            for i in range(n)}
        pinned = data.draw(
            st.sets(st.integers(0, n - 1), max_size=n), label="pinned")
        in_flight = data.draw(st.booleans(), label="in-flight")
        with tempfile.TemporaryDirectory() as root:
            store = ArtifactStore(root)
            for i, digest in enumerate(digests):
                store.put(digest, {
                    "refs": [digests[j] for j in sorted(edges[i])]})
            for i in pinned:
                store.pin(digests[i], "prop")
            reachable = set()
            frontier = list(pinned)
            while frontier:
                i = frontier.pop()
                if i in reachable:
                    continue
                reachable.add(i)
                frontier.extend(edges[i])
            report = store.gc(
                grace_s=300.0 if in_flight else 0.0)
            survivors = set(store.digests())
            assert {digests[i] for i in reachable} <= survivors
            if in_flight:
                assert report.removed == []
                assert survivors == set(digests)
            else:
                assert set(report.removed) == {
                    digests[i] for i in range(n) if i not in reachable}


class TestNetlistCacheIntegration:
    def test_warm_load_serves_the_cached_instance(self, tmp_path):
        from repro.netlist import reset_engine_cache

        reset_engine_cache()
        store = ArtifactStore(tmp_path)
        digest = store.put_netlist(c17())
        first = store.get_netlist(digest)
        assert store.get_netlist(digest) is first
        assert store.get_netlist(digest, cache=False) is not first

    def test_mutated_instance_is_reparsed(self, tmp_path):
        from repro.netlist import reset_engine_cache

        reset_engine_cache()
        store = ArtifactStore(tmp_path)
        original_gates = list(c17().gates)
        digest = store.put_netlist(c17())
        first = store.get_netlist(digest)
        first.add_gate("extra", GateType.NOT, [first.outputs[0]])
        fresh = store.get_netlist(digest)
        assert fresh is not first
        assert list(fresh.gates) == original_gates

    def test_collected_artifact_reads_absent_despite_warm_cache(
            self, tmp_path):
        from repro.netlist import reset_engine_cache

        reset_engine_cache()
        store = ArtifactStore(tmp_path)
        digest = store.put_netlist(c17())
        assert store.get_netlist(digest) is not None   # warm the cache
        report = store.gc(grace_s=0.0)
        assert digest in report.removed
        assert store.get_netlist(digest) is None


class TestDigestValidation:
    # Digests arrive over the network (gateway URL paths) and from the
    # CLI; syntax is enforced before any path construction so nothing
    # traversal-shaped ever reaches the filesystem layer.

    BAD = ["", "ab", "ab" * 31, "ab" * 33, "AB" * 32, "gg" * 32,
           "../" + "ab" * 31 + "x", "..", "../../etc/passwd",
           ("ab" * 32)[:-1] + "/", "ab/" + "cd" * 30 + "ef"]

    def test_validate_digest_accepts_canonical(self):
        from repro.service.store import validate_digest
        digest = stable_hash({"ok": 1})
        assert validate_digest(digest) == digest

    @pytest.mark.parametrize("bad", BAD)
    def test_malformed_digests_rejected_everywhere(self, bad, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.put(bad, {"x": 1})
        with pytest.raises(ValueError):
            store.get(bad)
        with pytest.raises(ValueError):
            store.pin(bad)
        with pytest.raises(ValueError):
            store.unpin(bad)
        with pytest.raises(ValueError):
            bad in store
        # Nothing was created anywhere under (or outside) the root.
        assert len(store) == 0
        assert not (tmp_path / ".pins").exists()

    def test_non_string_digest_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.get(None)

    def test_error_message_is_clean(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="64 lowercase hex"):
            store.get("../escape")
