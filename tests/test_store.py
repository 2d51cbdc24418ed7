"""Unit tests for the crash-safe sharded verdict store.

Covers the on-disk segment format (checksums, torn tails, seals), the
store's full lifecycle (put/get, rolling, sealing, reopen determinism),
recovery from every planned disk fault
(:mod:`repro.chaos.fs`), compaction bit-identity, fsck, and the
atomic-write discipline.
"""

import json

import pytest

from repro.chaos import ChaosFileSystem, FaultPlan
from repro.core.oracle import AdVerdict
from repro.core.persistence import (
    atomic_writer,
    verdict_fingerprint,
    verdict_to_dict,
)
from repro.oracles.features import BehaviourFeatures
from repro.oracles.wepawet import WepawetReport
from repro.store import (
    SegmentError,
    StoreConfig,
    StoreError,
    StoreWriteError,
    VerdictStore,
    decode_record,
    encode_record,
    encode_seal,
    record_checksum,
    scan_segment,
)


def make_verdict(i: int) -> AdVerdict:
    """A small synthetic (but complete) verdict, distinct per ``i``."""
    features = BehaviourFeatures(**{
        name: i + j for j, name in enumerate(BehaviourFeatures.names())})
    report = WepawetReport(
        sample_id=f"sample-{i:04d}",
        features=features,
        suspicious_redirection=bool(i % 2),
        redirection_reasons=(f"reason-{i}",),
        driveby_heuristic=bool(i % 3 == 0),
        heuristic_reasons=(),
        model_detection=False,
        model_score=i / 100.0,
    )
    return AdVerdict(ad_id=f"ad-{i:04d}", wepawet=report)


def content_key(i: int) -> str:
    return f"{i:08d}" + "ab" * 28


@pytest.fixture
def store(tmp_path):
    store = VerdictStore(tmp_path / "vs",
                         StoreConfig(n_shards=2, segment_max_records=4))
    yield store
    store.close()


class TestSegmentFormat:
    def test_record_round_trip(self):
        verdict = verdict_to_dict(make_verdict(1))
        line = encode_record(content_key(1), 7, verdict)
        row = decode_record(line)
        assert row["kind"] == "verdict"
        assert row["seq"] == 7
        assert row["content_hash"] == content_key(1)
        assert row["verdict"] == verdict

    def test_precomputed_checksum_matches(self):
        verdict = verdict_to_dict(make_verdict(2))
        checksum = record_checksum(content_key(2), 0, verdict)
        assert encode_record(content_key(2), 0, verdict) == \
            encode_record(content_key(2), 0, verdict, checksum=checksum)

    def test_single_flipped_byte_is_detected(self):
        line = encode_record(content_key(3), 0,
                             verdict_to_dict(make_verdict(3)))
        middle = len(line) // 2
        garbled = line[:middle] + bytes([line[middle] ^ 1]) + line[middle + 1:]
        with pytest.raises(SegmentError):
            decode_record(garbled)

    def test_unsealed_scan_truncates_at_the_torn_tail(self):
        verdict = verdict_to_dict(make_verdict(4))
        good = encode_record(content_key(4), 0, verdict)
        torn = encode_record(content_key(5), 1, verdict)[:-9]
        scan = scan_segment(good + torn, "seg", sealed=False)
        assert len(scan.records) == 1
        assert scan.torn_at == len(good)
        assert scan.bytes_torn == len(torn)

    def test_sealed_scan_quarantines_and_continues(self):
        verdict = verdict_to_dict(make_verdict(6))
        first = encode_record(content_key(6), 0, verdict)
        second = encode_record(content_key(7), 1, verdict)
        data = first + b'{"broken\n' + second
        scan = scan_segment(data, "seg", sealed=True)
        assert [h for h, _ in scan.records] == [content_key(6),
                                                content_key(7)]
        assert len(scan.corrupt) == 1

    def test_footer_verifies_the_record_checksums(self):
        verdict = verdict_to_dict(make_verdict(8))
        lines = [encode_record(content_key(i), i, verdict) for i in range(3)]
        checksums = [decode_record(line)["checksum"] for line in lines]
        data = b"".join(lines) + encode_seal(checksums)
        scan = scan_segment(data, "seg", sealed=True)
        assert scan.seal_valid
        assert scan.sealed_n_records == 3
        # Drop one record: the footer no longer verifies.
        bad = b"".join(lines[:2]) + encode_seal(checksums)
        assert not scan_segment(bad, "seg", sealed=True).seal_valid


class TestStoreBasics:
    def test_put_get_round_trip(self, store):
        verdicts = {content_key(i): make_verdict(i) for i in range(10)}
        for key, verdict in verdicts.items():
            store.put(key, verdict)
        assert len(store) == 10
        for key, verdict in verdicts.items():
            assert verdict_fingerprint(store.get(key)) == \
                verdict_fingerprint(verdict)
            assert key in store

    def test_never_seen_probe_does_zero_segment_io(self, store):
        for i in range(8):
            store.put(content_key(i), make_verdict(i))
        reads_before = store.segment_reads
        negatives_before = store.bloom_negatives
        for i in range(100, 140):
            assert store.get(content_key(i)) is None
        assert store.segment_reads == reads_before
        assert store.bloom_negatives >= negatives_before + 35  # FPs allowed

    def test_supersede_latest_wins(self, store):
        store.put(content_key(1), make_verdict(1))
        store.put(content_key(1), make_verdict(2))
        assert len(store) == 1
        assert store.superseded == 1
        assert verdict_fingerprint(store.get(content_key(1))) == \
            verdict_fingerprint(make_verdict(2))

    def test_segments_roll_and_seal_at_max_records(self, store):
        for i in range(9):  # max 4/segment, 2 shards
            store.put(content_key(i), make_verdict(i))
        stats = store.stats()
        assert stats["seals"] >= 1
        assert stats["segments"]["sealed"] >= 1

    def test_closed_store_refuses_writes(self, tmp_path):
        store = VerdictStore(tmp_path / "vs")
        store.close()
        with pytest.raises(StoreError):
            store.put(content_key(1), make_verdict(1))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            VerdictStore(tmp_path / "a", StoreConfig(n_shards=0))
        with pytest.raises(ValueError):
            VerdictStore(tmp_path / "b", StoreConfig(segment_max_records=0))
        with pytest.raises(ValueError):
            VerdictStore(tmp_path / "c", StoreConfig(fsync_every=0))

    def test_foreign_manifest_is_refused(self, tmp_path):
        root = tmp_path / "vs"
        root.mkdir()
        (root / "store.json").write_text(
            json.dumps({"version": 1, "kind": "something_else"}))
        with pytest.raises(StoreError, match="not a verdict store"):
            VerdictStore(root)

    def test_manifest_shard_count_beats_config(self, tmp_path):
        VerdictStore(tmp_path / "vs", StoreConfig(n_shards=3)).close()
        store = VerdictStore(tmp_path / "vs", StoreConfig(n_shards=8))
        assert store.stats()["n_shards"] == 3
        store.close()


class TestReopenDeterminism:
    def test_clean_reopen_is_bit_identical(self, tmp_path):
        store = VerdictStore(tmp_path / "vs",
                             StoreConfig(n_shards=2, segment_max_records=3))
        for i in range(11):
            store.put(content_key(i), make_verdict(i))
        fingerprint = store.fingerprint()
        store.close()
        for _ in range(3):  # recovery must be idempotent
            reopened = VerdictStore(tmp_path / "vs")
            assert reopened.fingerprint() == fingerprint
            assert len(reopened) == 11
            assert reopened.recovery.truncated_tails == 0
            reopened.close()

    def test_reopen_without_close_resumes_the_open_segment(self, tmp_path):
        config = StoreConfig(n_shards=1, segment_max_records=100)
        store = VerdictStore(tmp_path / "vs", config)
        for i in range(5):
            store.put(content_key(i), make_verdict(i))
        fingerprint = store.fingerprint()
        # No close(): the segment stays .open; everything was fsynced.
        reopened = VerdictStore(tmp_path / "vs", config)
        assert reopened.fingerprint() == fingerprint
        assert reopened.stats()["segments"]["open"] == 1
        # Appends continue with fresh seqs in the same segment.
        reopened.put(content_key(99), make_verdict(99))
        assert len(reopened) == 6
        reopened.close()
        final = VerdictStore(tmp_path / "vs", config)
        assert len(final) == 6
        final.close()

    def test_sealed_but_unrenamed_segment_is_completed(self, tmp_path):
        config = StoreConfig(n_shards=1, segment_max_records=100)
        store = VerdictStore(tmp_path / "vs", config)
        rows, checksums = [], []
        for i in range(3):
            verdict = verdict_to_dict(make_verdict(i))
            checksum = record_checksum(content_key(i), i, verdict)
            rows.append(encode_record(content_key(i), i, verdict,
                                      checksum=checksum))
            checksums.append(checksum)
        shard = tmp_path / "vs" / "shard-00"
        # A footer landed but the crash beat the rename to .jsonl.
        (shard / "seg-000007.open").write_bytes(
            b"".join(rows) + encode_seal(checksums))
        store.close()
        reopened = VerdictStore(tmp_path / "vs", config)
        assert reopened.recovery.late_seals == 1
        assert (shard / "seg-000007.jsonl").exists()
        assert not (shard / "seg-000007.open").exists()
        assert len(reopened) == 3
        reopened.close()

    def test_stray_compaction_tmp_is_cleaned(self, tmp_path):
        store = VerdictStore(tmp_path / "vs", StoreConfig(n_shards=1))
        store.put(content_key(1), make_verdict(1))
        store.close()
        stray = tmp_path / "vs" / "shard-00" / "seg-000099.jsonl.tmp"
        stray.write_bytes(b"half-written compaction output")
        reopened = VerdictStore(tmp_path / "vs")
        assert reopened.recovery.tmp_cleaned == 1
        assert not stray.exists()
        reopened.close()


class TestCrashRecovery:
    def test_partial_fsync_crash_truncates_only_the_torn_tail(self, tmp_path):
        plan = FaultPlan(seed=12, rate=0.35, kinds=("partial_fsync",))
        fs = ChaosFileSystem(plan)
        store = VerdictStore(tmp_path / "vs",
                             StoreConfig(n_shards=2, segment_max_records=4),
                             fs=fs)
        verdicts = {content_key(i): make_verdict(i) for i in range(20)}
        for key, verdict in verdicts.items():
            store.put(key, verdict)
        lost = fs.simulate_crash()
        assert lost, "the fault plan should have torn something"
        recovered = VerdictStore(tmp_path / "vs")
        report = recovered.recovery
        assert report.truncated_tails + report.quarantined_records > 0
        assert 0 < len(recovered) <= len(verdicts)
        # Every record that survived is bit-correct — never garbled.
        for key in recovered.keys():
            assert verdict_fingerprint(recovered.get(key)) == \
                verdict_fingerprint(verdicts[key])
        # Recovery converged: a second replay finds nothing to repair.
        fingerprint = recovered.fingerprint()
        recovered.close()
        again = VerdictStore(tmp_path / "vs")
        assert again.fingerprint() == fingerprint
        assert again.recovery.truncated_tails == 0
        again.close()

    def test_sealed_segments_survive_crash_with_zero_loss(self, tmp_path):
        # Honest fsyncs + a crash only tears the *open* segment's tail;
        # sealed segments are behind the rename barrier and keep all.
        fs = ChaosFileSystem(FaultPlan(seed=1, rate=0.0))
        config = StoreConfig(n_shards=1, segment_max_records=3)
        store = VerdictStore(tmp_path / "vs", config, fs=fs)
        for i in range(10):  # 3 sealed segments of 3 + 1 open record
            store.put(content_key(i), make_verdict(i))
        sealed_keys = {content_key(i) for i in range(9)}
        fs.simulate_crash()
        recovered = VerdictStore(tmp_path / "vs")
        assert sealed_keys <= set(recovered.keys())
        recovered.close()

    def test_enospc_put_raises_and_leaves_store_consistent(self, tmp_path):
        plan = FaultPlan(seed=3, rate=0.3, kinds=("enospc",))
        store = VerdictStore(tmp_path / "vs",
                             StoreConfig(n_shards=2, segment_max_records=4),
                             fs=ChaosFileSystem(plan))
        succeeded = {}
        failures = 0
        for i in range(20):
            try:
                store.put(content_key(i), make_verdict(i))
                succeeded[content_key(i)] = make_verdict(i)
            except StoreWriteError:
                failures += 1
        assert failures > 0
        assert store.write_errors == failures
        assert len(store) == len(succeeded)
        store.close()
        reopened = VerdictStore(tmp_path / "vs")
        assert set(reopened.keys()) == set(succeeded)
        for key, verdict in succeeded.items():
            assert verdict_fingerprint(reopened.get(key)) == \
                verdict_fingerprint(verdict)
        reopened.close()

    def test_torn_write_repairs_the_partial_prefix(self, tmp_path):
        plan = FaultPlan(seed=5, rate=0.4, kinds=("torn_write",))
        fs = ChaosFileSystem(plan)
        store = VerdictStore(tmp_path / "vs",
                             StoreConfig(n_shards=1, segment_max_records=50),
                             fs=fs)
        good = {}
        for i in range(15):
            try:
                store.put(content_key(i), make_verdict(i))
                good[content_key(i)] = make_verdict(i)
            except StoreWriteError:
                pass
        assert len(good) < 15
        # The torn half-records were truncated away in place: every
        # surviving byte parses and every surviving verdict is correct.
        for key in good:
            assert verdict_fingerprint(store.get(key)) == \
                verdict_fingerprint(good[key])
        store.close()
        reopened = VerdictStore(tmp_path / "vs")
        assert set(reopened.keys()) == set(good)
        reopened.close()

    def test_corrupt_read_counts_and_misses_instead_of_serving_garbage(
            self, tmp_path):
        store = VerdictStore(tmp_path / "vs", StoreConfig(n_shards=1))
        for i in range(6):
            store.put(content_key(i), make_verdict(i))
        store.close()
        plan = FaultPlan(seed=9, rate=0.5, kinds=("corrupt_read",))
        haunted = VerdictStore(tmp_path / "vs", fs=ChaosFileSystem(plan))
        # Rot can also hit the recovery scan itself; keys it ate never
        # reached the index.  For keys that did, a get() either serves
        # the exact original bits or counts a read error — never garbage.
        indexed = [content_key(i) for i in range(6)
                   if content_key(i) in haunted]
        served = errors = 0
        for i in range(6):
            verdict = haunted.get(content_key(i))
            if verdict is not None:
                served += 1
                assert verdict_fingerprint(verdict) == \
                    verdict_fingerprint(make_verdict(i))
        errors = haunted.read_errors
        assert served + errors >= len(indexed)
        assert errors > 0 or served == 6
        haunted.close()

    def test_corrupt_sealed_record_is_quarantined_with_the_rest_kept(
            self, tmp_path):
        config = StoreConfig(n_shards=1, segment_max_records=4)
        store = VerdictStore(tmp_path / "vs", config)
        for i in range(4):  # exactly one sealed segment
            store.put(content_key(i), make_verdict(i))
        store.close()
        sealed = tmp_path / "vs" / "shard-00" / "seg-000000.jsonl"
        lines = sealed.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"version": 1, "kind": "verdict", "garbled": true}\n'
        sealed.write_bytes(b"".join(lines))
        recovered = VerdictStore(tmp_path / "vs", config)
        assert recovered.recovery.quarantined_records == 1
        assert recovered.recovery.invalid_seals == 1
        assert len(recovered) == 3
        quarantine = tmp_path / "vs" / "quarantine.jsonl"
        assert quarantine.exists()
        entry = json.loads(quarantine.read_text().splitlines()[0])
        assert entry["kind"] == "quarantine"
        assert entry["segment"] == str(sealed)
        recovered.close()

    def test_torn_manifest_is_rebuilt_from_the_shard_directories(
            self, tmp_path):
        store = VerdictStore(tmp_path / "vs", StoreConfig(n_shards=3))
        store.put(content_key(1), make_verdict(1))
        store.close()
        manifest = tmp_path / "vs" / "store.json"
        manifest.write_bytes(manifest.read_bytes()[:10])  # torn
        recovered = VerdictStore(tmp_path / "vs")
        assert recovered.recovery.manifest_rebuilt == 1
        assert recovered.stats()["n_shards"] == 3
        assert len(recovered) == 1
        recovered.close()
        # The rebuilt manifest round-trips cleanly now.
        final = VerdictStore(tmp_path / "vs")
        assert final.recovery.manifest_rebuilt == 0
        final.close()


class TestCompaction:
    def populate(self, tmp_path, n=12, resubmit=6):
        config = StoreConfig(n_shards=2, segment_max_records=3)
        store = VerdictStore(tmp_path / "vs", config)
        for i in range(n):
            store.put(content_key(i), make_verdict(i))
        for i in range(resubmit):  # supersede with fresh verdicts
            store.put(content_key(i), make_verdict(100 + i))
        store.close()
        return config

    def test_compaction_preserves_the_fingerprint(self, tmp_path):
        config = self.populate(tmp_path)
        store = VerdictStore(tmp_path / "vs", config)
        before = store.fingerprint()
        segments_before = store.stats()["segments"]["sealed"]
        report = store.compact()
        assert report.superseded_dropped == 6
        assert store.stats()["segments"]["sealed"] < segments_before
        assert store.fingerprint() == before
        # Reads still serve the right bits from the compacted segments.
        assert verdict_fingerprint(store.get(content_key(0))) == \
            verdict_fingerprint(make_verdict(100))
        store.close()
        reopened = VerdictStore(tmp_path / "vs")
        assert reopened.fingerprint() == before
        reopened.close()

    def test_compaction_is_idempotent(self, tmp_path):
        config = self.populate(tmp_path)
        store = VerdictStore(tmp_path / "vs", config)
        store.compact()
        second = store.compact()
        assert second.segments_folded == 0
        assert second.superseded_dropped == 0
        store.close()

    def test_crash_mid_compaction_leaves_harmless_duplicates(
            self, tmp_path, monkeypatch):
        config = self.populate(tmp_path)
        store = VerdictStore(tmp_path / "vs", config)
        before = store.fingerprint()

        # Simulate dying between the new segment's rename and the old
        # segments' removal: every remove fails.
        def refuse_remove(path):
            raise OSError("chaos: crash before cleanup")
        monkeypatch.setattr(store._fs, "remove", refuse_remove)
        report = store.compact()
        assert report.remove_failures > 0
        assert store.fingerprint() == before
        store.close()
        # Reopen sees old and compacted segments side by side; seq-order
        # replay dedups them into the identical index.
        recovered = VerdictStore(tmp_path / "vs")
        assert recovered.recovery.duplicates_skipped > 0
        assert recovered.fingerprint() == before
        # The next compaction (with a healthy disk) cleans up fully.
        recovered.compact()
        assert recovered.fingerprint() == before
        recovered.close()

    def test_open_segment_is_left_alone(self, tmp_path):
        config = StoreConfig(n_shards=1, segment_max_records=3)
        store = VerdictStore(tmp_path / "vs", config)
        for i in range(7):  # 2 sealed + 1 open with one record
            store.put(content_key(i), make_verdict(i))
        before = store.fingerprint()
        store.compact()
        assert store.fingerprint() == before
        assert store.stats()["segments"]["open"] == 1
        store.put(content_key(50), make_verdict(50))  # still appendable
        store.close()


class TestFsck:
    def test_clean_store(self, tmp_path):
        store = VerdictStore(tmp_path / "vs", StoreConfig(n_shards=2))
        for i in range(5):
            store.put(content_key(i), make_verdict(i))
        report = store.fsck()
        assert report.clean
        assert report.records == 5
        assert report.live_records == 5
        store.close()

    def test_damage_is_reported_not_raised(self, tmp_path):
        config = StoreConfig(n_shards=1, segment_max_records=3)
        store = VerdictStore(tmp_path / "vs", config)
        for i in range(3):
            store.put(content_key(i), make_verdict(i))
        store.close()
        sealed = tmp_path / "vs" / "shard-00" / "seg-000000.jsonl"
        with sealed.open("ab") as handle:
            handle.write(b"trailing garbage after the footer")
        store = VerdictStore(tmp_path / "vs", config)
        report = store.fsck()
        assert not report.clean
        assert report.corrupt_records >= 1
        assert any("corrupt record" in p for p in report.problems)
        store.close()


class TestAtomicDiscipline:
    def test_atomic_writer_commits_on_success(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_writer(target) as handle:
            handle.write("payload")
        assert target.read_text() == "payload"
        assert not (tmp_path / "out.txt.tmp").exists()

    def test_atomic_writer_preserves_the_old_file_on_failure(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as handle:
                handle.write("half a new fi")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "previous"
        assert not (tmp_path / "out.txt.tmp").exists()
