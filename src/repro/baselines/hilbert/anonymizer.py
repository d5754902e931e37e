"""Suppression-based l-diverse partitioning along the Hilbert curve.

This is the ``Hilbert`` baseline of Section 6.1: the multi-dimensional
algorithm of Ghinita et al. [16] adapted to suppression (the paper does the
same adaptation when comparing against it).  Tuples are sorted by their
Hilbert index over the QI space; the sorted sequence is then scanned once,
greedily closing a QI-group as soon as it is l-eligible.  Curve locality
means consecutive tuples tend to agree on many QI attributes, so the
resulting groups are cheap in stars even though the algorithm is oblivious
to the global structure the TP algorithm exploits.

The same partitioning routine doubles as the residue refiner inside TP+
(:func:`hilbert_refiner`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.backend import vectorized_enabled
from repro.baselines.hilbert.curve import bits_needed, hilbert_index, hilbert_indices_vectorized
from repro.core import kernels
from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.table import Table
from repro.errors import IneligibleTableError

__all__ = [
    "HilbertResult",
    "anonymize",
    "hilbert_order",
    "hilbert_order_reference",
    "hilbert_refiner",
    "partition_rows",
]


@dataclass(frozen=True)
class HilbertResult:
    """Outcome of the Hilbert baseline."""

    table: Table
    l: int
    partition: Partition
    generalized: GeneralizedTable

    @property
    def star_count(self) -> int:
        return self.generalized.star_count()

    @property
    def suppressed_tuple_count(self) -> int:
        return self.generalized.suppressed_tuple_count()


def hilbert_order(table: Table, rows: Sequence[int] | None = None) -> list[int]:
    """Row indices sorted by Hilbert index over the QI space.

    Ties (identical QI vectors) are broken by row index so the order is
    deterministic.
    """
    return _hilbert_order_array(table, rows).tolist()


def _hilbert_order_array(table: Table, rows: Sequence[int] | None) -> np.ndarray:
    """:func:`hilbert_order` as an ``int64`` array."""
    bits = bits_needed([attribute.size for attribute in table.schema.qi])
    if vectorized_enabled() and bits * table.dimension <= 62:
        if rows is None:
            row_index = np.arange(len(table), dtype=np.int64)
            coords = table.qi_columns
        else:
            row_index = np.asarray(rows, dtype=np.int64)
            coords = table.qi_columns[row_index]
        if row_index.size == 0:
            return row_index
        # The Skilling transform is embarrassingly row-parallel and NumPy
        # releases the GIL, so large batches are encoded in chunks across
        # the kernel thread pool.
        keys = kernels.row_chunked(
            lambda chunk: hilbert_indices_vectorized(chunk, bits), coords
        )
        # lexsort sorts by the last key first: primary = Hilbert key,
        # ties broken by ascending row index, as in the reference path.
        return row_index[np.lexsort((row_index, keys))]
    return np.asarray(hilbert_order_reference(table, rows), dtype=np.int64)


def hilbert_order_reference(table: Table, rows: Sequence[int] | None = None) -> list[int]:
    """Pure-Python Hilbert ordering (the oracle for the vectorized path)."""
    if rows is None:
        rows = range(len(table))
    bits = bits_needed([attribute.size for attribute in table.schema.qi])
    keyed = [(hilbert_index(table.qi_row(row), bits), row) for row in rows]
    keyed.sort()
    return [row for _key, row in keyed]


def partition_rows(table: Table, rows: Sequence[int], l: int) -> list[np.ndarray]:
    """Partition ``rows`` into l-eligible QI-groups of curve-adjacent tuples.

    The multiset of sensitive values of ``rows`` must itself be l-eligible;
    otherwise no valid partition exists and
    :class:`~repro.errors.IneligibleTableError` is raised.

    The scan closes the running group as soon as it becomes l-eligible (and
    has at least ``l`` tuples).  Any ineligible tail left at the end of the
    scan is merged backwards into the previously closed groups until the
    union becomes eligible again, which always terminates because the full
    input is eligible (Lemma 1 guarantees merging preserves eligibility of
    the already-closed part).

    The scan runs over plain ints — the SA codes of the Hilbert-ordered rows
    and a list counter indexed by code — and only records where groups
    close.  The groups come back as ``int64`` array slices of the one
    Hilbert order, in curve order.
    """
    index = np.asarray(rows, dtype=np.int64)
    if index.size == 0:
        return []
    sa = table.sa_array
    if int(np.bincount(sa[index]).max()) * l > index.size:
        raise IneligibleTableError(
            "the given rows are not l-eligible; they cannot be partitioned into "
            "l-eligible QI-groups"
        )

    ordered = _hilbert_order_array(table, index)
    codes = sa[ordered].tolist()
    total = len(codes)
    counts = [0] * table.schema.sensitive.size
    # Group ends in scan order.  The pillar height only grows within a
    # running group, so the closure test is O(1) per tuple: the group closes
    # when l * h(G) <= |G|, which (h >= 1) also implies |G| >= l.
    ends: list[int] = []
    start = 0
    height = 0
    for position, value in enumerate(codes):
        count = counts[value] + 1
        counts[value] = count
        if count > height:
            height = count
        if l * height <= position + 1 - start:
            for closed in codes[start : position + 1]:
                counts[closed] = 0
            start = position + 1
            ends.append(start)
            height = 0

    if start < total:
        # Merge the ineligible tail backwards until eligibility is restored;
        # ``counts`` holds the tail's histogram.
        while ends and l * height > total - start:
            ends.pop()
            previous = ends[-1] if ends else 0
            for value in codes[previous:start]:
                count = counts[value] + 1
                counts[value] = count
                if count > height:
                    height = count
            start = previous
        ends.append(total)
    return [ordered[begin:end] for begin, end in zip([0, *ends[:-1]], ends)]


def hilbert_refiner(table: Table, rows: Sequence[int], l: int) -> list[list[int]]:
    """Residue refiner used by TP+ — simply :func:`partition_rows`."""
    return partition_rows(table, rows, l)


def anonymize(table: Table, l: int) -> HilbertResult:
    """Compute an l-diverse suppression of ``table`` with the Hilbert baseline."""
    if l < 2:
        raise ValueError(f"l must be >= 2 for anonymization, got {l}")
    if not table.is_l_eligible(l):
        raise IneligibleTableError(
            f"table is not {l}-eligible; no l-diverse generalization exists"
        )
    groups = partition_rows(table, list(range(len(table))), l)
    # Valid by construction: the scan partitions the full Hilbert order.
    partition = Partition.trusted(groups, len(table))
    generalized = GeneralizedTable.from_partition(table, partition)
    return HilbertResult(table=table, l=l, partition=partition, generalized=generalized)
