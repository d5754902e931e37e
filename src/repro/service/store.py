"""Persistent run store: append-only JSONL memoization of anonymization runs.

The :class:`RunStore` supersedes the purely in-process LRU as the durable
tier of result caching: the engine's :class:`~repro.engine.cache.ResultCache`
reads through it, so figure sweeps and repeated CLI invocations reuse
results **across processes**.  Records are keyed exactly like the in-memory
cache — ``(fingerprint, algorithm, l, shards, backend, seed, privacy)``,
where ``privacy`` is the canonical privacy-spec token — and hold the
*encoded* generalization only.

**Key migration note:** the ``privacy`` component was added when the scalar
``l`` grew into the :class:`~repro.privacy.spec.PrivacySpec` hierarchy.
Two different specs with equal ``l`` previously collided on one record, so
a stricter (e.g. entropy-checked) rerun could replay a frequency-l hit.
Legacy six-element records fail :meth:`RunStore._parse`'s key-shape check,
are counted in :attr:`RunStore.recovered` and are dropped by the next
compaction — a store written before the migration simply recomputes on
first use, it never replays under the wrong spec.

Each record holds:

* one generalized cell row per QI-group (rows of a group share their
  representative by construction), with cells encoded as the integer code,
  ``"*"`` for a star, or ``{"s": [codes]}`` for a sub-domain;
* the per-row group ids, densely renumbered in first-occurrence order;
* the original run's anonymize seconds, shard sizes and phase reached.

Schema and sensitive values are *not* stored: a hit is rehydrated against
the caller's freshly-loaded source table, whose fingerprint already proved
it identical to the one the run was computed on.  That keeps records small
and sidesteps schema round-trip fidelity entirely.

The file format is append-only JSONL: one record per line, last write wins,
safe to append from concurrent processes.  Corrupt or stale lines are
counted, survive nothing, and are dropped by the next compaction; eviction
keeps the newest ``max_entries`` records and compacts the file in place
(an atomic replace, so the compacted file is a new inode).

**Tail reads.** A long-lived instance (one per server pool worker) stays
current through :meth:`RunStore.refresh`, which reads only the bytes
appended since its last read — O(new records), not O(store).  Opening a
store is the same read from offset 0.  The instance remembers the file's
``(st_dev, st_ino)`` and the offset it consumed: a replaced file (another
instance's compaction) or a shrunk one is reloaded in full, and a missing
file empties the store (a replacement that happens to reuse the inode
number is caught by re-checking the last line consumed).  Only
newline-terminated lines are consumed: an unterminated trailing line is
another writer's append still in progress, so it is left for the next
refresh rather than counted as corrupt.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.dataset.generalized import STAR, GeneralizedTable
from repro.engine.cache import CachedRun, CacheKey
from repro.engine.registry import AlgorithmOutput

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataset.table import Table

__all__ = ["RunStore", "StoreError"]


class StoreError(Exception):
    """Raised when a run cannot be encoded for persistent storage."""


def _encode_cell(cell) -> object:
    if cell is STAR:
        return "*"
    if isinstance(cell, frozenset):
        return {"s": sorted(cell)}
    if isinstance(cell, (int,)):
        return int(cell)
    raise StoreError(f"cannot encode generalized cell {cell!r}")


def _decode_cell(encoded) -> object:
    if encoded == "*":
        return STAR
    if isinstance(encoded, dict):
        return frozenset(encoded["s"])
    return int(encoded)


def _last_line(data: bytes) -> bytes:
    """The last line of newline-terminated ``data`` (empty for no data)."""
    return data[data.rfind(b"\n", 0, len(data) - 1) + 1 :]


def _parse_lines(data: bytes):
    """Yield :meth:`RunStore._parse` of each non-blank line of ``data``."""
    for line in data.decode("utf-8", errors="replace").split("\n"):
        line = line.strip()
        if line:
            yield RunStore._parse(line)


def _encode_run(key: CacheKey, run: CachedRun) -> dict:
    generalized = run.output.generalized
    # Renumber the groups densely in order of their first row.
    group_ids, first_rows, inverse = np.unique(
        generalized.group_ids_array(), return_index=True, return_inverse=True
    )
    appearance = np.argsort(first_rows)
    rank = np.empty_like(appearance)
    rank[appearance] = np.arange(appearance.size)
    columnar = generalized.columnar_publish()
    if columnar is not None:
        ordered = group_ids[appearance]
        group_cells = [
            ["*" if starred else code for code, starred in zip(codes, flags)]
            for codes, flags in zip(
                columnar[0][ordered].tolist(), columnar[1][ordered].tolist()
            )
        ]
    else:
        group_cells = [
            [_encode_cell(cell) for cell in generalized.row_cells(row)]
            for row in first_rows[appearance].tolist()
        ]
    return {
        "key": list(key),
        "n": len(generalized),
        "group_cells": group_cells,
        "group_ids": rank[inverse].tolist(),
        "anonymize_seconds": run.anonymize_seconds,
        "shard_sizes": list(run.shard_sizes),
        "phase_reached": run.output.phase_reached,
        "enforcement_merges": run.enforcement_merges,
    }


def _decode_generalized(record: dict, table: "Table") -> GeneralizedTable:
    """Rehydrate a record's generalization against its source table."""
    group_cells = record["group_cells"]
    dimension = table.dimension
    if any(len(row) != dimension for row in group_cells):
        raise ValueError("cell row width does not match the table dimension")
    if all(type(cell) is int or cell == "*" for row in group_cells for cell in row):
        # A suppression output: rebuild its columnar group form, so a hit
        # takes the same zero-copy artifact path as a computed run.
        shape = (len(group_cells), dimension)
        rep_star = np.array(
            [[cell == "*" for cell in row] for row in group_cells], dtype=bool
        ).reshape(shape)
        rep_codes = np.array(
            [[0 if cell == "*" else cell for cell in row] for row in group_cells],
            dtype=np.int64,
        ).reshape(shape)
        domain_sizes = np.array([attribute.size for attribute in table.schema.qi])
        if np.any(~rep_star & ((rep_codes < 0) | (rep_codes >= domain_sizes))):
            raise ValueError("cell code outside its attribute domain")
        group_of = np.asarray(record["group_ids"])
        if group_of.size and (group_of.dtype.kind != "i" or int(group_of.min()) < 0):
            raise ValueError("group ids must be non-negative integers")
        return GeneralizedTable._from_columnar(
            table.schema, rep_codes, rep_star, group_of.astype(np.intp), table.sa_array
        )
    decoded_groups = [tuple(_decode_cell(cell) for cell in row) for row in group_cells]
    cells = [decoded_groups[group_id] for group_id in record["group_ids"]]
    return GeneralizedTable._from_trusted(
        table.schema, cells, table.sa_values, list(record["group_ids"])
    )


class RunStore:
    """Append-only JSONL store of memoized anonymization runs."""

    def __init__(self, path: str | Path, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._max_entries = max_entries
        self._records: OrderedDict[CacheKey, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.recovered = 0
        #: ``(st_dev, st_ino)`` of the file last read, the byte offset of
        #: the first line not yet consumed, and the last line consumed
        #: (which a replacement reusing the inode number will not repeat).
        self._identity: tuple[int, int] | None = None
        self._offset = 0
        self._marker = b""
        self.refresh()

    @property
    def path(self) -> Path:
        return self._path

    # --------------------------------------------------------------- file I/O

    def refresh(self) -> None:
        """Bring the records up to date with the file, reading only its tail.

        See *Tail reads* in the module docstring.  Corrupt lines among the
        new ones are counted in :attr:`recovered` and, like an eviction,
        trigger a compaction.
        """
        try:
            handle = open(self._path, "rb")
        except FileNotFoundError:
            self._forget()
            return
        with handle:
            status = os.fstat(handle.fileno())
            identity = (status.st_dev, status.st_ino)
            seen = identity == self._identity and status.st_size >= self._offset
            handle.seek(self._offset - len(self._marker) if seen else 0)
            data = handle.read()
            if seen and not data.startswith(self._marker):
                seen = False
                handle.seek(0)
                data = handle.read()
        if not seen:
            self._forget()
            self._identity = identity
        tail = data[len(self._marker):]
        complete = tail.rfind(b"\n") + 1
        if complete:
            self._offset += complete
            self._marker = _last_line(tail[:complete])
        corrupt = 0
        for record in _parse_lines(tail[:complete]):
            if record is None:
                corrupt += 1
                continue
            key = tuple(record["key"])
            self._records[key] = record
            self._records.move_to_end(key)
        self.recovered += corrupt
        evicted = self._evict()
        if evicted or corrupt:
            self._compact()

    def _forget(self) -> None:
        """Drop the records and the read position (the next read starts over)."""
        self._records.clear()
        self._identity = None
        self._offset = 0
        self._marker = b""

    @staticmethod
    def _parse(line: str) -> dict | None:
        """Parse one JSONL line; ``None`` for corrupt or malformed records."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict):
            return None
        key = record.get("key")
        # Exactly the 7-element (fingerprint, algorithm, l, shards, backend,
        # seed, privacy) shape; legacy 6-element pre-PrivacySpec records are
        # dropped here (see the migration note in the module docstring).
        if not isinstance(key, list) or len(key) != 7:
            return None
        group_cells = record.get("group_cells")
        group_ids = record.get("group_ids")
        if not isinstance(group_cells, list) or not isinstance(group_ids, list):
            return None
        if record.get("n") != len(group_ids):
            return None
        if group_ids and (not group_cells or max(group_ids) >= len(group_cells)):
            return None
        if not isinstance(record.get("anonymize_seconds"), (int, float)):
            return None
        if not isinstance(record.get("shard_sizes"), list):
            return None
        if not (record.get("phase_reached") is None or isinstance(record["phase_reached"], int)):
            return None
        merges = record.get("enforcement_merges", 0)
        if not isinstance(merges, int) or isinstance(merges, bool):
            return None
        return record

    def _evict(self) -> int:
        evicted = 0
        while len(self._records) > self._max_entries:
            self._records.popitem(last=False)
            evicted += 1
        return evicted

    def _compact(self) -> None:
        """Rewrite the file to the live records (atomic replace).

        Another process may have appended records since this instance loaded
        the file; they are re-read and kept — treated as older than our
        in-memory entries, which win for keys both hold — so compaction never
        erases a concurrent writer's work.
        """
        merged: OrderedDict[CacheKey, dict] = OrderedDict()
        if self._path.exists():
            with open(self._path, "rb") as handle:
                for record in _parse_lines(handle.read()):
                    if record is None:
                        continue
                    key = tuple(record["key"])
                    if key not in self._records:
                        merged[key] = record
                        merged.move_to_end(key)
        for key, record in self._records.items():
            merged[key] = record
        while len(merged) > self._max_entries:
            merged.popitem(last=False)
        self._records = merged
        content = "".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in self._records.values()
        ).encode()
        temporary = self._path.with_suffix(".jsonl.tmp")
        with open(temporary, "wb") as handle:
            handle.write(content)
            status = os.fstat(handle.fileno())
        temporary.replace(self._path)
        self._identity = (status.st_dev, status.st_ino)
        self._offset = len(content)
        self._marker = _last_line(content)

    # ------------------------------------------------------------------- API

    def get(self, key: CacheKey, table: "Table") -> CachedRun | None:
        """Rehydrate a stored run against its (fingerprint-identical) table."""
        record = self._records.get(key)
        if record is None:
            self.misses += 1
            return None
        try:
            if record["n"] != len(table):
                raise ValueError("row count mismatch (stale or colliding record)")
            run = CachedRun(
                output=AlgorithmOutput(
                    _decode_generalized(record, table),
                    phase_reached=record["phase_reached"],
                ),
                anonymize_seconds=record["anonymize_seconds"],
                shard_sizes=tuple(record["shard_sizes"]),
                enforcement_merges=record.get("enforcement_merges", 0),
            )
        except (KeyError, ValueError, TypeError, IndexError, OverflowError):
            # A record that passed the line-level checks but cannot be
            # decoded is corrupt: drop it rather than crash the lookup.
            del self._records[key]
            self.recovered += 1
            self.misses += 1
            return None
        self._records.move_to_end(key)
        self.hits += 1
        return run

    def put(self, key: CacheKey, run: CachedRun) -> None:
        """Persist one run (append; eviction compacts when the cap is hit)."""
        try:
            record = _encode_run(key, run)
        except StoreError:
            return  # non-encodable outputs simply stay memory-only
        self._records[key] = record
        self._records.move_to_end(key)
        if self._evict():
            self._compact()
        else:
            with open(self._path, "a") as handle:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def clear(self) -> None:
        self._forget()
        self.hits = 0
        self.misses = 0
        self.recovered = 0
        if self._path.exists():
            self._path.unlink()

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: object) -> bool:
        return key in self._records

    def keys(self) -> list[CacheKey]:
        return list(self._records)

    def stats(self) -> dict[str, object]:
        return {
            "entries": len(self._records),
            "hits": self.hits,
            "misses": self.misses,
            "recovered": self.recovered,
            "path": str(self._path),
        }
