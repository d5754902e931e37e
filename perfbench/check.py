"""Independent output check: every published table, without the engine's checker.

A published table passes when, against the generated input,

* it has the input's row count, and its sensitive column is the input's,
  row for row and therefore as a multiset;
* every published QI cell is ``*`` or the input row's own value
  (suppression, Definition 1 of the paper);
* every equivalence class — the rows sharing one published QI vector, which
  is all a reader of the table can group by — has frequency l-diversity: its
  most frequent sensitive value covers at most ``1/l`` of its rows.

Tables are compared in *generator codes*: a ``Name#k`` label is code ``k``
and a star is ``-1``, so in-process tables (program codes, decoded through
their schema) and served CSVs (text) go through one check.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

STAR = -1
#: Rows per chunk of the row-wise comparisons, to keep the check's memory small.
CHUNK_ROWS = 1 << 18


@dataclass
class Published:
    """A published table in generator codes.

    ``reps[group_of[i]]`` is row ``i``'s QI vector (``-1`` = star) and
    ``sa[i]`` its sensitive value.
    """

    reps: np.ndarray
    group_of: np.ndarray
    sa: np.ndarray

    def rows(self, start: int, stop: int) -> np.ndarray:
        return self.reps[self.group_of[start:stop]]

    def star_count(self) -> int:
        per_group = np.count_nonzero(self.reps == STAR, axis=1)
        return int(per_group[self.group_of].sum())

    def digest(self) -> str:
        """SHA-256 of the published rows, QI cells and sensitive value."""
        sha = hashlib.sha256()
        for start in range(0, len(self.sa), CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            block = np.column_stack([self.rows(start, stop), self.sa[start:stop]])
            sha.update(np.ascontiguousarray(block, dtype=np.int16).tobytes())
        return sha.hexdigest()


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    stars: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def label_code(label: str, name: str) -> int:
    """``"Age#12"`` in column ``Age`` -> 12, ``"*"`` -> -1."""
    if label == "*":
        return STAR
    prefix, _, code = label.rpartition("#")
    if prefix != name:
        raise ValueError(f"value {label!r} does not belong to column {name!r}")
    return int(code)


def _label_lut(attribute) -> np.ndarray:
    return np.array(
        [label_code(str(value), attribute.name) for value in attribute.values], dtype=np.int64
    )


def from_generalized(generalized) -> Published:
    """A program ``GeneralizedTable`` in generator codes.

    Uses the table's columnar group form when it has one; otherwise (merged
    shards) each distinct published row tuple becomes its own group.
    """
    schema = generalized.schema
    luts = [_label_lut(attribute) for attribute in schema.qi]
    sa = _label_lut(schema.sensitive)[generalized.sa_codes()]
    form = generalized.columnar_publish()
    if form is not None:
        rep_codes, rep_star, group_of, _ = form
        reps = np.column_stack(
            [lut[rep_codes[:, j]] for j, lut in enumerate(luts)]
        ).reshape(len(rep_codes), len(luts))
        reps[np.asarray(rep_star, dtype=bool)] = STAR
        return Published(reps, np.asarray(group_of, dtype=np.intp), sa)
    index: dict[tuple, int] = {}
    group_of = np.fromiter(
        (index.setdefault(cells, len(index)) for cells in generalized.cell_rows),
        dtype=np.intp,
        count=len(generalized),
    )
    reps = np.array(
        [
            [STAR if not isinstance(cell, (int, np.integer)) else int(lut[cell])
             for cell, lut in zip(cells, luts)]
            for cells in index
        ],
        dtype=np.int64,
    ).reshape(len(index), len(luts))
    return Published(reps, group_of, sa)


def parse_csv(text: str, header: list[str] | None = None) -> tuple[list[str], Published]:
    """A CSV table (header + ``Name#k`` / ``*`` cells) in generator codes."""
    reader = csv.reader(io.StringIO(text))
    names = next(reader, [])
    if header is not None and names != header:
        raise ValueError(f"header {names} differs from the input's {header}")
    rows = [row for row in reader if row]
    if any(len(row) != len(names) for row in rows):
        raise ValueError("a row has the wrong number of cells")
    codes = np.array(
        [[label_code(cell, name) for cell, name in zip(row, names)] for row in rows],
        dtype=np.int64,
    ).reshape(len(rows), len(names))
    return names, Published(codes[:, :-1], np.arange(len(rows), dtype=np.intp), codes[:, -1])


def check(published: Published, qi: np.ndarray, sa: np.ndarray, l: int) -> Verdict:
    """Check ``published`` against the input codes ``qi`` (n, d) and ``sa`` (n,)."""
    verdict = Verdict()
    n = len(sa)
    if len(published.sa) != n:
        verdict.problems.append(f"{len(published.sa)} rows published, input has {n}")
        return verdict
    width = int(max(published.sa.max(initial=0), sa.max(initial=0))) + 1
    if published.sa.min(initial=0) < 0 or not np.array_equal(
        np.bincount(published.sa, minlength=width), np.bincount(sa, minlength=width)
    ):
        verdict.problems.append("sensitive values differ from the input's multiset")
        return verdict
    if not np.array_equal(published.sa, sa):
        verdict.problems.append("sensitive values are not in the input's row order")
    for start in range(0, n, CHUNK_ROWS):
        cells = published.rows(start, start + CHUNK_ROWS)
        bad = (cells != STAR) & (cells != qi[start : start + CHUNK_ROWS])
        if bad.any():
            row = start + int(np.flatnonzero(bad.any(axis=1))[0])
            verdict.problems.append(f"row {row}: a published QI cell is neither * nor the input value")
            break

    keys, class_of_group = np.unique(published.reps, axis=0, return_inverse=True)
    class_of_row = class_of_group.reshape(-1)[published.group_of]
    pairs, counts = np.unique(class_of_row.astype(np.int64) * width + published.sa, return_counts=True)
    top = np.zeros(len(keys), dtype=np.int64)
    np.maximum.at(top, pairs // width, counts)
    sizes = np.bincount(class_of_row, minlength=len(keys))
    violating = np.flatnonzero((top * l > sizes) & (sizes > 0))
    if violating.size:
        verdict.problems.append(
            f"{violating.size} equivalence classes are not {l}-diverse "
            f"(first: {int(sizes[violating[0]])} rows, top value x{int(top[violating[0]])})"
        )
    verdict.stars = published.star_count()
    return verdict


def check_csv(published_text: str, input_text: str, l: int) -> Verdict:
    """Check a served result CSV against the uploaded input CSV."""
    header, source = parse_csv(input_text)
    try:
        _, published = parse_csv(published_text, header)
    except ValueError as error:
        return Verdict(problems=[str(error)])
    return check(published, source.reps, source.sa, l)
