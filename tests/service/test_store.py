"""Tests for the persistent RunStore: round-trips, eviction, recovery, tail reads."""

from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings

from repro.dataset.generalized import GeneralizedTable
from repro.engine.cache import CachedRun, ResultCache
from repro.privacy.spec import EntropyLDiversity, FrequencyLDiversity
from repro.engine.registry import AlgorithmOutput, algorithm_registry
from repro.service.store import RunStore, _encode_cell, _encode_run
from tests.strategies import tables_with_partitions


def _cached_run(table, algorithm: str = "TP", l: int = 2) -> CachedRun:
    output = algorithm_registry.get(algorithm).runner(table, l)
    return CachedRun(output=output, anonymize_seconds=0.25, shard_sizes=(len(table),))


def _key(table, algorithm: str = "TP", l: int = 2, **kwargs):
    return ResultCache.key(table.fingerprint(), algorithm, l, **kwargs)


class TestRoundTrip:
    def test_put_get_round_trip(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        run = _cached_run(hospital)
        key = _key(hospital)
        store.put(key, run)
        restored = store.get(key, hospital)
        assert restored is not None
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows
        assert restored.output.generalized.sa_values == run.output.generalized.sa_values
        assert restored.anonymize_seconds == run.anonymize_seconds
        assert restored.shard_sizes == run.shard_sizes
        assert restored.output.phase_reached == run.output.phase_reached

    def test_round_trip_survives_process_restart(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        key = _key(hospital)
        RunStore(path).put(key, run)
        # A fresh instance simulates a fresh process reading the same file.
        fresh = RunStore(path)
        restored = fresh.get(key, hospital)
        assert restored is not None
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows
        assert fresh.stats()["hits"] == 1

    def test_subdomain_cells_round_trip(self, hospital, tmp_path):
        """Frozenset cells (TDS / Mondrian outputs) survive the JSON codec."""
        store = RunStore(tmp_path / "runs.jsonl")
        run = _cached_run(hospital, algorithm="Mondrian")
        key = _key(hospital, algorithm="Mondrian")
        store.put(key, run)
        restored = RunStore(store.path).get(key, hospital)
        assert restored is not None
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows

    def test_miss_counts(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        assert store.get(_key(hospital), hospital) is None
        assert store.stats()["misses"] == 1


class TestEviction:
    def test_max_entries_evicts_oldest(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path, max_entries=2)
        run = _cached_run(hospital)
        keys = [_key(hospital, l=l) for l in (2, 3, 4)]
        for key in keys:
            store.put(key, run)
        assert len(store) == 2
        assert keys[0] not in store
        assert keys[1] in store and keys[2] in store
        # The file was compacted to the live entries.
        with open(path) as handle:
            assert sum(1 for _line in handle) == 2

    def test_reopen_applies_cap(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        big = RunStore(path, max_entries=16)
        run = _cached_run(hospital)
        for l in (2, 3, 4, 5):
            big.put(_key(hospital, l=l), run)
        small = RunStore(path, max_entries=2)
        assert len(small) == 2
        assert small.get(_key(hospital, l=5), hospital) is not None


class TestRecovery:
    def test_corrupt_lines_are_skipped_and_compacted(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        run = _cached_run(hospital)
        store.put(_key(hospital, l=2), run)
        store.put(_key(hospital, l=3), run)
        # Corrupt the file: garbage line + torn (truncated) trailing record.
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json at all")
        lines.append('{"key": ["only", "three", 3]}')
        lines.append(lines[0][: len(lines[0]) // 2])
        path.write_text("\n".join(lines) + "\n")

        recovered = RunStore(path)
        assert len(recovered) == 2
        assert recovered.recovered == 3
        assert recovered.get(_key(hospital, l=2), hospital) is not None
        # Recovery compacts: a subsequent reopen sees only clean records.
        clean = RunStore(path)
        assert clean.recovered == 0
        assert len(clean) == 2

    def test_row_count_mismatch_treated_as_stale(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        key = _key(hospital)
        store.put(key, _cached_run(hospital))
        shrunk = hospital.subset(range(len(hospital) - 1))
        assert store.get(key, shrunk) is None
        assert key not in store  # dropped, not replayed against the wrong table

    def test_empty_and_blank_lines_tolerated(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("\n\n")
        store = RunStore(path)
        assert len(store) == 0
        store.put(_key(hospital), _cached_run(hospital))
        assert RunStore(path).get(_key(hospital), hospital) is not None


class TestReadThroughCache:
    def test_cache_falls_through_to_store(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        key = _key(hospital)
        RunStore(path).put(key, run)

        cache = ResultCache(store=RunStore(path))
        entry, tier = cache.lookup(key, hospital)
        assert entry is not None and tier == "store"
        assert cache.stats()["store_hits"] == 1
        # The hit was promoted: next lookup answers from memory.
        entry, tier = cache.lookup(key, hospital)
        assert tier == "memory"

    def test_cache_writes_through(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        cache = ResultCache(store=RunStore(path))
        key = _key(hospital)
        cache.put(key, _cached_run(hospital))
        assert RunStore(path).get(key, hospital) is not None

    def test_without_table_store_tier_is_skipped(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).put(_key(hospital), _cached_run(hospital))
        cache = ResultCache(store=RunStore(path))
        assert cache.get(_key(hospital)) is None  # no table to rehydrate against


class TestValidation:
    def test_rejects_bad_max_entries(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path / "runs.jsonl", max_entries=0)

    def test_records_are_compact_json(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).put(_key(hospital), _cached_run(hospital))
        record = json.loads(path.read_text().splitlines()[0])
        assert set(record) >= {"key", "n", "group_cells", "group_ids", "anonymize_seconds"}
        assert record["n"] == len(hospital)


class TestHardening:
    def test_incomplete_record_is_dropped_not_crashed(self, hospital, tmp_path):
        """A JSON-valid record missing timing fields must not crash get()."""
        path = tmp_path / "runs.jsonl"
        key = _key(hospital)
        record = {
            "key": list(key),
            "n": len(hospital),
            "group_cells": [[0] * hospital.dimension],
            "group_ids": [0] * len(hospital),
            # anonymize_seconds / shard_sizes / phase_reached missing
        }
        path.write_text(json.dumps(record) + "\n")
        store = RunStore(path)
        assert len(store) == 0  # rejected at parse time
        assert store.get(key, hospital) is None

    def test_undecodable_cell_is_dropped_not_crashed(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        key = _key(hospital)
        record = {
            "key": list(key),
            "n": len(hospital),
            "group_cells": [[None] * hospital.dimension],  # not int/"*"/{"s":[...]}
            "group_ids": [0] * len(hospital),
            "anonymize_seconds": 0.1,
            "shard_sizes": [len(hospital)],
            "phase_reached": 1,
        }
        path.write_text(json.dumps(record) + "\n")
        store = RunStore(path)
        assert store.get(key, hospital) is None
        assert key not in store
        assert store.recovered == 1

    def test_wrong_cell_width_is_dropped(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        key = _key(hospital)
        record = {
            "key": list(key),
            "n": len(hospital),
            "group_cells": [[0]],  # too narrow for the hospital schema
            "group_ids": [0] * len(hospital),
            "anonymize_seconds": 0.1,
            "shard_sizes": [len(hospital)],
            "phase_reached": None,
        }
        path.write_text(json.dumps(record) + "\n")
        assert RunStore(path).get(key, hospital) is None

    def test_compaction_preserves_concurrent_appends(self, hospital, tmp_path):
        """Records appended by another process survive this process's compaction."""
        path = tmp_path / "runs.jsonl"
        ours = RunStore(path, max_entries=3)
        run = _cached_run(hospital)
        ours.put(_key(hospital, l=2), run)
        # Another process appends a record after we loaded the file.
        other = RunStore(path, max_entries=3)
        other.put(_key(hospital, l=3), run)
        # Our next put crosses max_entries and triggers compaction.
        ours.put(_key(hospital, l=4), run)
        ours.put(_key(hospital, l=5), run)
        assert len(ours) == 3
        reread = RunStore(path)
        assert reread.get(_key(hospital, l=3), hospital) is not None  # not clobbered


class TestPrivacyKeyMigration:
    """The cache/store key grew a canonical privacy-spec token (7th element)."""

    def test_default_key_carries_the_frequency_token(self, hospital):
        key = _key(hospital, l=3)
        assert len(key) == 7
        assert key[-1] == FrequencyLDiversity(3).token()

    def test_specs_with_equal_l_never_share_a_record(self, hospital, tmp_path):
        # Regression: pre-migration an entropy-checked rerun could replay a
        # frequency-l record computed without the enforcement pass.
        store = RunStore(tmp_path / "runs.jsonl")
        frequency_key = _key(hospital, l=2)
        entropy_key = _key(hospital, l=2, privacy=EntropyLDiversity(2.0))
        assert frequency_key != entropy_key
        store.put(frequency_key, _cached_run(hospital))
        assert store.get(entropy_key, hospital) is None
        assert store.get(frequency_key, hospital) is not None

    def test_spec_separation_survives_process_restart(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).put(_key(hospital, l=2), _cached_run(hospital))
        fresh = RunStore(path)
        assert fresh.get(_key(hospital, l=2, privacy=EntropyLDiversity(2.0)), hospital) is None
        assert fresh.get(_key(hospital, l=2), hospital) is not None

    def test_legacy_six_element_records_are_dropped_on_load(self, hospital, tmp_path):
        # A store written before the migration holds 6-element keys; they
        # must be treated as unparseable (recovered + compacted away), never
        # replayed under whatever spec happens to share the l value.
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.put(_key(hospital, l=2), _cached_run(hospital))
        record = json.loads(path.read_text().splitlines()[0])
        legacy = dict(record)
        legacy["key"] = record["key"][:6]  # strip the privacy token
        legacy["anonymize_seconds"] = 9.9
        path.write_text(json.dumps(legacy) + "\n")
        fresh = RunStore(path)
        assert fresh.recovered == 1
        assert len(fresh) == 0
        assert fresh.get(_key(hospital, l=2), hospital) is None


def _counting_parse(monkeypatch) -> list[str]:
    """Count the lines :meth:`RunStore._parse` sees from now on."""
    seen: list[str] = []
    parse = RunStore._parse

    def counting(line):
        seen.append(line)
        return parse(line)

    monkeypatch.setattr(RunStore, "_parse", staticmethod(counting))
    return seen


class TestTailRead:
    """A long-lived store stays current by reading only the appended tail."""

    def test_other_instances_appends_visible_after_refresh(
        self, hospital, tmp_path, monkeypatch
    ):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        long_lived = RunStore(path)
        long_lived.put(_key(hospital, l=2), run)
        other = RunStore(path)
        other.put(_key(hospital, l=3), run)
        other.put(_key(hospital, l=4), run)
        assert _key(hospital, l=3) not in long_lived
        parsed = _counting_parse(monkeypatch)
        long_lived.refresh()
        # Our own append plus the other instance's two: nothing older.
        assert len(parsed) == 3
        assert long_lived.get(_key(hospital, l=4), hospital) is not None
        long_lived.refresh()
        assert len(parsed) == 3  # nothing new, nothing parsed

    def test_other_instances_compaction_reloads_and_drops_evicted_keys(
        self, hospital, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        long_lived = RunStore(path, max_entries=3)
        for l in (2, 3):
            long_lived.put(_key(hospital, l=l), run)
        other = RunStore(path, max_entries=2)
        # Opening at a smaller cap evicted l=2 and replaced the file.
        other.put(_key(hospital, l=4), run)
        assert _key(hospital, l=2) in long_lived
        long_lived.refresh()
        assert _key(hospital, l=2) not in long_lived
        assert set(long_lived.keys()) == {_key(hospital, l=3), _key(hospital, l=4)}

    def test_replacement_reusing_the_inode_still_reloads(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        long_lived = RunStore(path)
        long_lived.put(_key(hospital, l=2), run)
        long_lived.refresh()
        # Rewrite in place (same inode), with a different record at least as
        # long as the consumed prefix: only the tail check can tell.
        other = RunStore(tmp_path / "other.jsonl")
        other.put(_key(hospital, l=3), run)
        other.put(_key(hospital, l=4), run)
        path.write_bytes(other.path.read_bytes())
        long_lived.refresh()
        assert set(long_lived.keys()) == {_key(hospital, l=3), _key(hospital, l=4)}

    def test_unterminated_line_waits_for_its_newline(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        writer = RunStore(tmp_path / "source.jsonl")
        writer.put(_key(hospital, l=3), run)
        line = writer.path.read_text()
        long_lived = RunStore(path)
        long_lived.put(_key(hospital, l=2), run)
        long_lived.refresh()
        with open(path, "a") as handle:  # an append caught mid-write
            handle.write(line[: len(line) // 2])
        long_lived.refresh()
        assert long_lived.recovered == 0
        assert _key(hospital, l=3) not in long_lived
        assert path.read_text().endswith(line[: len(line) // 2])  # not compacted away
        with open(path, "a") as handle:
            handle.write(line[len(line) // 2 :])
        long_lived.refresh()
        assert long_lived.recovered == 0
        assert long_lived.get(_key(hospital, l=3), hospital) is not None

    def test_clear_from_another_instance_empties_the_store(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        long_lived = RunStore(path)
        long_lived.put(_key(hospital), _cached_run(hospital))
        RunStore(path).clear()
        long_lived.refresh()
        assert len(long_lived) == 0
        long_lived.put(_key(hospital, l=3), _cached_run(hospital))
        assert RunStore(path).keys() == [_key(hospital, l=3)]

    def test_concurrent_writers_and_tail_readers_converge(self, hospital, tmp_path):
        """More writer threads than cores, each appending and refreshing its
        own store: every store ends with every key and nothing counted
        corrupt (a torn read of an in-progress append would be)."""
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        writers, per_writer = 4, 8
        stores = [RunStore(path) for _ in range(writers)]
        errors: list[BaseException] = []

        def work(index: int) -> None:
            try:
                for l in range(per_writer):
                    stores[index].put(_key(hospital, l=2 + l, seed=index), run)
                    stores[index].refresh()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for store in stores:
            store.refresh()
            assert len(store) == writers * per_writer
            assert store.recovered == 0

    def test_parent_written_file_reads_back_unchanged(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        record = _encode_run_reference(_key(hospital), run)
        path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
        store = RunStore(path)
        assert store.recovered == 0
        restored = store.get(_key(hospital), hospital)
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows


def _encode_run_reference(key, run) -> dict:
    """The historical per-row encoder: the oracle for ``_encode_run``."""
    generalized = run.output.generalized
    dense: dict[int, int] = {}
    group_cells: list[list[object]] = []
    renumbered: list[int] = []
    for row, group_id in enumerate(generalized.group_ids):
        index = dense.get(group_id)
        if index is None:
            index = len(group_cells)
            dense[group_id] = index
            group_cells.append([_encode_cell(cell) for cell in generalized.row_cells(row)])
        renumbered.append(index)
    return {
        "key": list(key),
        "n": len(generalized),
        "group_cells": group_cells,
        "group_ids": renumbered,
        "anonymize_seconds": run.anonymize_seconds,
        "shard_sizes": list(run.shard_sizes),
        "phase_reached": run.output.phase_reached,
        "enforcement_merges": run.enforcement_merges,
    }


def _line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


class TestEncoding:
    """``_encode_run`` writes exactly the bytes of the per-row encoder."""

    @settings(max_examples=60, deadline=None)
    @given(data=tables_with_partitions(max_rows=12, max_dimension=3))
    def test_columnar_encoding_matches_the_row_oracle(self, data):
        table, partition = data
        key = _key(table)
        columnar = GeneralizedTable.from_partition(table, partition)
        assert columnar.columnar_publish() is not None
        rows = GeneralizedTable.from_partition_reference(table, partition)
        assert rows.columnar_publish() is None
        for generalized in (columnar, rows):
            run = CachedRun(output=AlgorithmOutput(generalized), anonymize_seconds=0.5)
            assert _line(_encode_run(key, run)) == _line(_encode_run_reference(key, run))

    @pytest.mark.parametrize("algorithm", ["TP", "TP+", "Mondrian", "TDS"])
    def test_algorithm_outputs_match_the_row_oracle(self, hospital, algorithm):
        run = _cached_run(hospital, algorithm=algorithm)
        key = _key(hospital, algorithm=algorithm)
        assert _line(_encode_run(key, run)) == _line(_encode_run_reference(key, run))

    def test_suppression_hit_carries_the_columnar_form(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        run = _cached_run(hospital, algorithm="TP")
        store.put(_key(hospital), run)
        restored = store.get(_key(hospital), hospital).output.generalized
        assert restored.columnar_publish() is not None
        original = run.output.generalized
        assert restored.cell_rows == original.cell_rows
        assert restored.star_count() == original.star_count()
        assert restored.is_l_diverse(2)

    def test_subdomain_hit_keeps_the_row_form(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.put(_key(hospital, algorithm="Mondrian"), _cached_run(hospital, "Mondrian"))
        restored = store.get(_key(hospital, algorithm="Mondrian"), hospital)
        assert restored.output.generalized.columnar_publish() is None

    def test_out_of_domain_code_is_dropped_not_replayed(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.put(_key(hospital), _cached_run(hospital))
        record = json.loads(path.read_text())
        record["group_cells"][0][0] = hospital.schema.qi[0].size
        path.write_text(_line(record) + "\n")
        store = RunStore(path)
        assert store.get(_key(hospital), hospital) is None
        assert store.recovered == 1
