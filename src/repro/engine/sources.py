"""Dataset adapters: one loading interface over CSV, synthetic and in-memory data.

A :class:`DataSource` is a recipe for obtaining an encoded
:class:`~repro.dataset.table.Table`.  The engine, harness and CLI all accept
sources rather than tables or file paths, so the same run plan works for

* :class:`CsvSource` — a CSV file with a header row; the schema (attribute
  domains) is inferred from the observed values unless supplied.  A full
  load reads the file once, inferring the domains and encoding in the same
  pass; streaming it in bounded-size chunks for tables that should not be
  materialized takes two passes when the schema is inferred (one to infer
  the domains, one to encode), because every chunk must carry the final
  schema;
* :class:`SyntheticSource` — the seeded census-like SAL / OCC generators used
  by the experiments;
* :class:`TableSource` — an already-built (possibly columnar) in-memory table.

Chunked reads yield tables that all share one schema object, so their
columnar arrays can be concatenated without re-encoding
(:func:`concat_tables`).
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.dataset.synthetic import CensusConfig, make_occ, make_sal
from repro.dataset.table import Attribute, DomainError, Schema, Table
from repro.errors import DataSourceError

__all__ = [
    "CsvSource",
    "DataSource",
    "SyntheticSource",
    "TableSource",
    "concat_tables",
    "count_csv_records",
    "infer_csv_schema",
    "scan_csv",
]


class DataSource(ABC):
    """A recipe for loading one encoded microdata table."""

    @property
    @abstractmethod
    def label(self) -> str:
        """Short human-readable name used in run records and reports."""

    @abstractmethod
    def load(self) -> Table:
        """Materialize the full table."""

    def iter_chunks(self, chunk_rows: int) -> Iterator[Table]:
        """Yield the table in chunks of at most ``chunk_rows`` rows.

        All chunks share one schema, so they concatenate without re-encoding.
        The default implementation slices the fully-loaded table; file-backed
        sources override it to stream.
        """
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        table = self.load()
        for start in range(0, len(table), chunk_rows):
            yield table.subset(range(start, min(start + chunk_rows, len(table))))


def concat_tables(chunks: Sequence[Table]) -> Table:
    """Concatenate schema-sharing chunks back into one table."""
    if not chunks:
        raise ValueError("cannot concatenate zero chunks")
    schema = chunks[0].schema
    for chunk in chunks[1:]:
        if chunk.schema != schema:
            raise DataSourceError("chunks do not share a schema")
    if len(chunks) == 1:
        return chunks[0]
    return Table.from_arrays(
        schema,
        np.concatenate([chunk.qi_columns for chunk in chunks], axis=0),
        np.concatenate([chunk.sa_array for chunk in chunks]),
    )


#: Records read, transposed and encoded per batch by every CSV read.  Small
#: batches keep their raw records in CPU cache while they are transposed and
#: encoded, and short-lived for the garbage collector: a 10^5-row load takes
#: ~0.25 s in 512-record batches and ~0.47 s in 8,192-record batches.
CSV_BATCH_ROWS = 512


def _csv_columns(
    path: str, names: Sequence[str], delimiter: str, chunk_rows: int
) -> Iterator[tuple[int, list[tuple[str, ...]]]]:
    """Read a CSV file once, yielding ``(rows, columns)`` per chunk of records.

    ``columns`` holds one tuple of the chunk's cells per entry of ``names``.
    This is the one CSV record reader of the package: blank records are
    skipped (as :class:`csv.DictReader` skips them), quoted fields may span
    lines, and a missing column or a record too short to hold every named
    column raises :class:`DataSourceError`.  At most one chunk of raw
    records is alive at a time.
    """
    try:
        handle = open(path, newline="")
    except OSError as error:
        raise DataSourceError(f"cannot load {path}: {error}") from error
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise DataSourceError(f"{path}: empty CSV file (no header row)")
            missing = [name for name in names if name not in header]
            if missing:
                raise DataSourceError(
                    f"{path}: columns {missing} not in header {header}"
                )
            positions = [header.index(name) for name in names]
            width = max(positions) + 1
            records = filter(None, reader)
            while chunk := list(islice(records, chunk_rows)):
                # The transpose stops at the shortest record's last field.
                fields = list(zip(*chunk))
                if len(fields) < width:
                    raise DataSourceError(
                        f"{path}: a record before line {reader.line_num} has "
                        f"fewer than {width} fields"
                    )
                yield len(chunk), [fields[position] for position in positions]
        except OSError as error:
            raise DataSourceError(f"cannot load {path}: {error}") from error


def _schema_from_domains(
    path: str, qi_names: Sequence[str], sa_name: str, domains: Sequence
) -> Schema:
    """The schema whose domains are the sorted observed values, one per column."""
    names = (*qi_names, sa_name)
    for name, values in zip(names, domains):
        if not values:
            raise DataSourceError(
                f"{path}: no data rows to infer the domain of {name!r}"
            )
    attributes = [
        Attribute.from_values(name, values) for name, values in zip(names, domains)
    ]
    return Schema(qi=tuple(attributes[:-1]), sensitive=attributes[-1])


def scan_csv(
    path: str, qi_names: Sequence[str], sa_name: str, delimiter: str = ","
) -> tuple[Schema, int]:
    """Infer attribute domains and count data records in one streaming pass.

    Memory is bounded by one batch of records plus the distinct values.
    """
    domains: list[set[str]] = [set() for _ in range(len(qi_names) + 1)]
    rows = 0
    for size, columns in _csv_columns(
        path, (*qi_names, sa_name), delimiter, CSV_BATCH_ROWS
    ):
        for values, column in zip(domains, columns):
            values.update(column)
        rows += size
    return _schema_from_domains(path, qi_names, sa_name, domains), rows


def count_csv_records(
    path: str, qi_names: Sequence[str], sa_name: str, delimiter: str = ","
) -> int:
    """Count a CSV file's data records as the decoder reads them.

    Blank lines are skipped and a quoted field spanning lines stays one record.
    """
    chunks = _csv_columns(path, (*qi_names, sa_name), delimiter, CSV_BATCH_ROWS)
    return sum(size for size, _columns in chunks)


def infer_csv_schema(
    path: str, qi_names: Sequence[str], sa_name: str, delimiter: str = ","
) -> Schema:
    """Infer attribute domains from one streaming pass over a CSV file."""
    return scan_csv(path, qi_names, sa_name, delimiter)[0]


class _FirstSeenCodes(dict):
    """A value->code dict that gives each unseen value the next code on lookup."""

    def __missing__(self, value: str) -> int:
        code = self[value] = len(self)
        return code


@dataclass(frozen=True)
class CsvSource(DataSource):
    """A CSV file with a header row, encoded against an inferred or given schema.

    Every read goes through one chunk decoder: each chunk of records is
    transposed into columns and each column is mapped through a per-attribute
    value->code dict at C level (``np.fromiter``), so rows never exist as
    per-row Python dicts and no Python loop runs per cell.  With a known
    schema the dict is the attribute's own index, which is also the
    validation: a value outside the domain raises
    :class:`~repro.dataset.table.DomainError`.  :meth:`load` with no schema
    reads the file once, encoding against dicts that grow as values first
    appear, and resolves the domains (the sorted observed values) at the end
    of the file; :meth:`iter_chunks` must yield chunks that already share the
    final schema, so it first runs a bounded-memory inference pass.  The
    resolved schema is cached per source instance.
    """

    path: str
    qi_names: tuple[str, ...]
    sa_name: str
    schema: Schema | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        object.__setattr__(self, "qi_names", tuple(self.qi_names))
        # Cache slot for the lazily-resolved schema (not a dataclass field:
        # it is derived state, invisible to __eq__ / repr).
        object.__setattr__(self, "_resolved", self.schema)

    @property
    def label(self) -> str:
        return self.path

    def resolved_schema(self) -> Schema:
        """The supplied schema, or one inferred (once) from the file's values."""
        resolved = self._resolved  # type: ignore[attr-defined]
        if resolved is None:
            resolved = infer_csv_schema(
                self.path, self.qi_names, self.sa_name, self.delimiter
            )
            object.__setattr__(self, "_resolved", resolved)
        return resolved

    def load(self) -> Table:
        """Materialize the full table in one read of the file.

        With no schema known yet, the file's values are encoded against
        provisional first-seen codes, the domains are built at the end of the
        file (the same sorted-set rule as :func:`infer_csv_schema`), and each
        column's codes are remapped with one gather.  A header-only file
        raises without a schema and loads as an empty table with one.
        """
        names = (*self.qi_names, self.sa_name)
        schema = self._resolved  # type: ignore[attr-defined]
        if schema is None:
            indexes = [_FirstSeenCodes() for _ in names]
        else:
            indexes = self._indexes(schema)
        blocks = list(self._decode(indexes, CSV_BATCH_ROWS))
        codes = (
            np.concatenate(blocks) if blocks else np.empty((0, len(names)), np.int32)
        )
        del blocks
        if schema is None:
            schema = _schema_from_domains(
                self.path, self.qi_names, self.sa_name, indexes
            )
            attributes = (*schema.qi, schema.sensitive)
            for position, (attribute, index) in enumerate(zip(attributes, indexes)):
                final = np.fromiter(
                    map(attribute._index.__getitem__, index),
                    dtype=np.int32,
                    count=len(index),
                )
                codes[:, position] = final[codes[:, position]]
            object.__setattr__(self, "_resolved", schema)
        d = len(self.qi_names)
        return Table.from_arrays(schema, codes[:, :d], codes[:, d], validate=False)

    def iter_chunks(self, chunk_rows: int) -> Iterator[Table]:
        """Stream the file in bounded chunks, all sharing the resolved schema."""
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        schema = self.resolved_schema()
        indexes = self._indexes(schema)
        d = schema.dimension
        for codes in self._decode(indexes, chunk_rows):
            yield Table.from_arrays(schema, codes[:, :d], codes[:, d], validate=False)

    def _indexes(self, schema: Schema) -> list[dict]:
        """Each column's fixed value->code dict under a known schema."""
        try:
            qi = [schema.qi_attribute(name) for name in self.qi_names]
        except KeyError as error:
            raise DataSourceError(f"{self.path}: {error}") from error
        return [attribute._index for attribute in (*qi, schema.sensitive)]

    def _decode(self, indexes: list[dict], chunk_rows: int) -> Iterator[np.ndarray]:
        """Yield the file's ``(rows, d + 1)`` int32 codes (QI columns, then SA)
        in blocks of ``chunk_rows`` rows (the last one may be shorter).

        Records are read and encoded in batches of at most
        ``CSV_BATCH_ROWS`` whatever the block size, so large blocks decode
        as fast as small ones.
        """
        names = (*self.qi_names, self.sa_name)
        batch_rows = min(chunk_rows, CSV_BATCH_ROWS)
        pending: list[np.ndarray] = []
        pending_rows = 0
        for size, columns in _csv_columns(self.path, names, self.delimiter, batch_rows):
            codes = np.empty((size, len(names)), dtype=np.int32)
            for position, (name, index, column) in enumerate(zip(names, indexes, columns)):
                try:
                    codes[:, position] = np.fromiter(
                        map(index.__getitem__, column), dtype=np.int32, count=size
                    )
                except KeyError as error:
                    # Only a known schema's fixed index can miss a value.
                    raise DomainError(
                        f"value {error.args[0]!r} is not in the domain of "
                        f"attribute {name!r}"
                    ) from None
            pending.append(codes)
            pending_rows += size
            # A batch is never larger than a block, so at most one block is
            # complete per batch.
            if pending_rows >= chunk_rows:
                codes = np.concatenate(pending)
                yield codes[:chunk_rows]
                pending = [codes[chunk_rows:]]
                pending_rows -= chunk_rows
        if pending_rows:
            yield np.concatenate(pending)


@dataclass(frozen=True)
class SyntheticSource(DataSource):
    """A seeded synthetic census table (the SAL / OCC generators)."""

    dataset: str = "SAL"
    n: int = 10_000
    seed: int = 7
    config: CensusConfig | None = None
    #: Optional projection onto the first ``dimension`` QI attributes.
    dimension: int | None = None

    def __post_init__(self) -> None:
        if self.dataset.upper() not in ("SAL", "OCC"):
            raise DataSourceError(f"unknown synthetic dataset {self.dataset!r}")

    @property
    def label(self) -> str:
        suffix = f"-{self.dimension}" if self.dimension is not None else ""
        return f"{self.dataset.upper()}{suffix}@{self.n}"

    def load(self) -> Table:
        maker = make_sal if self.dataset.upper() == "SAL" else make_occ
        table = maker(self.n, seed=self.seed, config=self.config or CensusConfig())
        if self.dimension is not None:
            table = table.project(table.schema.qi_names[: self.dimension])
        return table


@dataclass(frozen=True)
class TableSource(DataSource):
    """An in-memory (row-wise or columnar) table, adapted to the source interface."""

    table: Table
    name: str = "memory"

    @property
    def label(self) -> str:
        return self.name

    def load(self) -> Table:
        return self.table
