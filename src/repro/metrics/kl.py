"""KL-divergence between the microdata and an anonymized table (Section 6.2).

Equation 2 of the paper: view every row as a point in the
``(d + 1)``-dimensional space spanned by the QI attributes and the SA.  The
microdata ``T`` induces the empirical distribution ``f``; a generalization
``T*`` induces ``f*`` by treating each generalized cell as a uniform
distribution over the values it may stand for (the full domain for a star, a
sub-domain for single-/multi-dimensional generalization, a single value for
an exact cell), while sensitive values stay exact.  The utility loss is
``KL(f, f*) = sum_p f(p) ln(f(p) / f*(p))``.

``f*(p)`` is never zero at an observed point ``p`` because the generalization
of the very row that produced ``p`` always covers ``p``.

The computation is vectorized across all sensitive values at once.  The
distinct observed points are read straight off the table's shared run
encoding (:meth:`~repro.dataset.table.Table.grouping` — the runs of the one
``(QI, SA)`` sort *are* the distinct points, with the run lengths as
counts).  The generalized side is a list of *combos* — ``(SA value, cells,
weight)`` — that one star-mask join (:func:`_suppression_fstar`) evaluates
for every point.  Two adapters produce the combos:

* the **columnar** adapter reads a :meth:`GeneralizedTable.from_partition`
  output's group form: the ``(group, SA, count)`` triples of
  :meth:`~repro.dataset.generalized.GeneralizedTable.group_sa_counts` with
  the cells ``where(rep_star, -1, rep_codes)`` of each group, so no per-row
  cell tuple is ever built;
* the **row-tuple** adapter deduplicates the row tuples by ``(SA, tuple
  identity)`` and serves tables without the columnar form (merged shards,
  explicit constructions).  When a cell is a sub-domain (``frozenset``, the
  TDS / Mondrian outputs) it feeds the per-SA dense membership-matrix
  product instead.

:func:`kl_divergence_unfused` retains the historical standalone
``np.unique`` point construction (used by the scale-smoke regression
guard), and :func:`kl_divergence_reference` retains a direct pure-Python
evaluation of Equation 2 as the oracle for the property tests.  The
vectorized paths are bit-identical to each other: re-sorting the runs
stably by SA keeps QI vectors ascending within each SA bucket — exactly the
``np.unique`` lexicographic order — and the join sums integer weights
exactly, so neither adapter nor combo order changes a bit of the result.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.backend import vectorized_enabled
from repro.dataset.generalized import STAR, GeneralizedTable
from repro.dataset.table import Table

__all__ = ["kl_divergence", "kl_divergence_reference", "kl_divergence_unfused"]


def kl_divergence(table: Table, generalized: GeneralizedTable) -> float:
    """``KL(f, f*)`` between ``table`` and its generalization (Equation 2).

    The distinct-point side comes from the table's shared grouping context:
    every maximal ``(QI, SA)`` run of the one cached sort is one distinct
    point with its count, so no second full-table ``np.unique`` pass runs.
    """
    if len(table) != len(generalized):
        raise ValueError("table and generalization must have the same number of rows")
    if not vectorized_enabled():
        return kl_divergence_reference(table, generalized)
    n = len(table)
    if n == 0:
        return 0.0

    # Distinct original points, bucketed by SA.  The run encoding already
    # enumerates the distinct (QI, SA) points in (QI, SA) order; a stable
    # argsort over the run SA codes regroups them into contiguous SA buckets
    # while keeping QI ascending within each bucket — the exact lexicographic
    # (SA, QI..) order the historical np.unique construction produced.
    context = table.grouping()
    by_sa = np.argsort(context.run_values, kind="stable")
    sa_column = context.run_values[by_sa]
    qi_points = context.group_keys[context.run_group_ids[by_sa]]
    all_counts = context.run_lengths[by_sa]
    run_starts = np.concatenate(
        ([0], np.flatnonzero(sa_column[1:] != sa_column[:-1]) + 1, [len(sa_column)])
    )
    return _kl_from_points(
        table, generalized, sa_column, qi_points, all_counts, run_starts
    )


def kl_divergence_unfused(table: Table, generalized: GeneralizedTable) -> float:
    """The historical standalone construction: one full-table ``np.unique``.

    Kept as the measured-against baseline for the fused-metrics regression
    guard (``scripts/scale_smoke.py``); bit-identical to
    :func:`kl_divergence`.
    """
    if len(table) != len(generalized):
        raise ValueError("table and generalization must have the same number of rows")
    if not vectorized_enabled():
        return kl_divergence_reference(table, generalized)
    n = len(table)
    if n == 0:
        return 0.0
    stacked = np.column_stack((table.sa_array, table.qi_columns))
    unique_points, point_counts = np.unique(stacked, axis=0, return_counts=True)
    sa_column = unique_points[:, 0]
    run_starts = np.concatenate(
        ([0], np.flatnonzero(sa_column[1:] != sa_column[:-1]) + 1, [len(sa_column)])
    )
    return _kl_from_points(
        table, generalized, sa_column, unique_points[:, 1:], point_counts, run_starts
    )


def _columnar_combos(
    generalized: GeneralizedTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(combo_sa, star_matrix, weights)`` read off the columnar group form.

    Every ``(group, SA value)`` pair of :meth:`GeneralizedTable.group_sa_counts`
    is one combo weighted by its row count, and its cells are the group's
    representative: ``rep_codes`` with ``-1`` where ``rep_star`` is set.  No
    per-row cell tuple is built.  ``None`` when the table carries no
    columnar form (explicit constructors, merged shards).
    """
    columnar = generalized.columnar_publish()
    if columnar is None:
        return None
    rep_codes, rep_star, _group_of, _sa = columnar
    gids, values, counts = generalized.group_sa_counts()
    matrix = np.where(rep_star, -1, rep_codes)
    return values, matrix[gids], counts.astype(float)


def _row_tuple_combos(
    generalized: GeneralizedTable,
) -> tuple[list[int], list[tuple[object, ...]], list[int]]:
    """``(combo_sa, combo_cells, weights)`` deduplicated from the row tuples.

    Rows of a QI-group share one cells tuple, so deduplicating by ``(SA,
    tuple identity)`` costs O(n) cheap dict lookups with no per-row
    tuple-content hashing; the tuples are pinned alive by the generalized
    table itself.  Content-equal tuples from different groups stay separate
    combos, which leaves the mixture ``f*`` unchanged (it is linear in the
    combo weights).  Combos come in order of first row.
    """
    generalized_sa = generalized.sa_values
    weights_by_key: dict[tuple[int, int], int] = {}
    cells_by_key: dict[tuple[int, int], tuple[object, ...]] = {}
    for row, cells in enumerate(generalized.cell_rows):
        key = (generalized_sa[row], id(cells))
        if key in weights_by_key:
            weights_by_key[key] += 1
        else:
            weights_by_key[key] = 1
            cells_by_key[key] = cells
    return (
        [sa for sa, _marker in weights_by_key],
        list(cells_by_key.values()),
        list(weights_by_key.values()),
    )


def _star_combos(
    combo_sa: list[int],
    combo_cells: list[tuple[object, ...]],
    weights: list[int],
    dimension: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The row-tuple combos in the star-matrix form of :func:`_columnar_combos`.

    Exact codes with ``-1`` for stars, converted once per distinct cells
    tuple and gathered per combo; ``None`` when a cell is a sub-domain
    (``frozenset``).
    """
    slots: dict[int, int] = {}
    distinct: list[tuple[object, ...]] = []
    index = np.empty(len(combo_cells), dtype=np.intp)
    for combo, cells in enumerate(combo_cells):
        slot = slots.get(id(cells))
        if slot is None:
            slot = slots[id(cells)] = len(distinct)
            distinct.append(cells)
        index[combo] = slot
    matrix = np.empty((len(distinct), dimension), dtype=np.int64)
    for row, cells in enumerate(distinct):
        for position, cell in enumerate(cells):
            if cell is STAR:
                matrix[row, position] = -1
            elif isinstance(cell, frozenset):
                return None
            else:
                matrix[row, position] = cell
    return (
        np.asarray(combo_sa, dtype=np.int64),
        matrix[index],
        np.asarray(weights, dtype=float),
    )


def _suppression_fstar(
    combo_sa: np.ndarray,
    combo_matrix: np.ndarray,
    combo_weights: np.ndarray,
    sa_points: np.ndarray,
    point_columns: list[np.ndarray],
    domain_sizes: list[int],
    sa_size: int,
) -> np.ndarray | None:
    """Sparse mixture evaluation for suppression-only combos, all SA at once.

    Every combo cell is an exact code or a star (``-1`` in
    ``combo_matrix``), the only two shapes the suppression pipeline
    publishes.  A combo then covers a point iff the point matches its exact
    positions, and contributes a constant ``prod(1/size)`` over its starred
    positions.  Grouping combos by star mask turns the dense ``O(combos x
    points)`` membership product into a hash join: per mask, one composite
    integer key over ``(SA, exact positions)`` for combos and points,
    matched with a single ``searchsorted`` across *all* distinct points —
    ``O((combos + points) log)`` per mask, and the number of distinct masks
    is the number of distinct per-group star sets (dozens, not thousands).

    Deterministic by construction: masks are visited in ascending bit order
    and per-key weight sums are exact small integers, so the result does
    not depend on the order or the grouping of the combos — the columnar
    and the row-tuple adapters give bit-identical values.

    Returns the unnormalized mixture ``sum_c w_c P(point | combo c)`` per
    distinct point, or ``None`` when a composite key overflows 62 bits —
    the caller falls back to the dense membership-matrix evaluation.
    """
    dimension = len(domain_sizes)
    combo_masks = np.zeros(combo_matrix.shape[0], dtype=np.int64)
    for position in range(dimension):
        combo_masks |= (combo_matrix[:, position] < 0).astype(np.int64) << position
    combo_sa = combo_sa.astype(np.int64, copy=False)
    sa_points = sa_points.astype(np.int64, copy=False)

    fstar = np.zeros(sa_points.shape[0], dtype=float)
    for mask in np.unique(combo_masks):
        selected = np.flatnonzero(combo_masks == mask)
        factor = 1.0
        exact: list[int] = []
        radix = int(sa_size)
        for position in range(dimension):
            if int(mask) >> position & 1:
                factor *= 1.0 / domain_sizes[position]
            else:
                exact.append(position)
                radix *= int(domain_sizes[position])
        if radix > 1 << 62:
            return None
        combo_keys = combo_sa[selected]
        point_keys = sa_points.copy()
        for position in exact:
            size = np.int64(domain_sizes[position])
            combo_keys = combo_keys * size + combo_matrix[selected, position]
            point_keys *= size
            point_keys += point_columns[position]
        unique_keys, inverse = np.unique(combo_keys, return_inverse=True)
        # bincount over integer weights is exact in float64 (weights < 2^53).
        weight_sums = np.bincount(inverse, weights=combo_weights[selected])
        slots = np.minimum(
            np.searchsorted(unique_keys, point_keys), len(unique_keys) - 1
        )
        matched = unique_keys[slots] == point_keys
        fstar += np.where(matched, weight_sums[slots], 0.0) * factor
    return fstar


def _kl_from_points(
    table: Table,
    generalized: GeneralizedTable,
    sa_column: np.ndarray,
    qi_points: np.ndarray,
    point_counts: np.ndarray,
    run_starts: np.ndarray,
) -> float:
    """Evaluate Equation 2 given the distinct observed points per SA bucket.

    Suppression-only generalizations take one global sparse star-mask join
    over every SA bucket at once (:func:`_suppression_fstar`), fed by the
    columnar adapter when the table carries its columnar group form and by
    the row-tuple adapter otherwise.  Sub-domain (``frozenset``) cells fall
    back to the per-bucket dense membership-matrix product.
    """
    n = len(table)
    dimension = table.dimension
    domain_sizes = [attribute.size for attribute in table.schema.qi]
    point_columns = [
        np.ascontiguousarray(qi_points[:, position])
        for position in range(dimension)
    ]

    combos = _columnar_combos(generalized)
    row_combos = None
    if combos is None:
        row_combos = _row_tuple_combos(generalized)
        combos = _star_combos(*row_combos, dimension)
    fstar_all = None
    if combos is not None:
        fstar_all = _suppression_fstar(
            *combos,
            sa_column,
            point_columns,
            domain_sizes,
            table.schema.sensitive.size,
        )
    buckets: dict[int, tuple[list[tuple[object, ...]], list[int]]] = {}
    if fstar_all is None:
        for sa, cells, weight in zip(*(row_combos or _row_tuple_combos(generalized))):
            bucket = buckets.setdefault(sa, ([], []))
            bucket[0].append(cells)
            bucket[1].append(weight)

    divergence = 0.0
    for start, end in zip(run_starts[:-1], run_starts[1:]):
        counts = point_counts[start:end].astype(np.float64)

        if fstar_all is not None:
            fstar = fstar_all[start:end] / n
        else:
            combo_cells, weights = buckets.get(int(sa_column[start]), ([], []))
            if combo_cells:
                # membership[combo, code] = P(code | combo cell on attribute a)
                product = np.ones((len(combo_cells), end - start), dtype=float)
                for position in range(dimension):
                    size = domain_sizes[position]
                    membership = np.zeros((len(combo_cells), size), dtype=float)
                    for combo_index, cells in enumerate(combo_cells):
                        cell = cells[position]
                        if cell is STAR:
                            membership[combo_index, :] = 1.0 / size
                        elif isinstance(cell, frozenset):
                            weight = 1.0 / len(cell)
                            for code in cell:
                                membership[combo_index, code] = weight
                        else:
                            membership[combo_index, cell] = 1.0
                    product *= membership[:, point_columns[position][start:end]]
                fstar = (np.asarray(weights, dtype=float) @ product) / n
            else:  # pragma: no cover - every SA in T is present in T*
                fstar = np.zeros(end - start)

        f = counts / n
        with np.errstate(divide="ignore"):
            ratio = np.where(fstar > 0, f / np.maximum(fstar, 1e-300), np.inf)
        contribution = f * np.log(ratio)
        if not np.all(np.isfinite(contribution)):
            return math.inf
        divergence += float(contribution.sum())
    # Numerical noise can push a perfect reconstruction epsilon-negative.
    return max(divergence, 0.0)


def kl_divergence_reference(table: Table, generalized: GeneralizedTable) -> float:
    """Pure-Python evaluation of Equation 2 (the oracle for the vectorized path)."""
    if len(table) != len(generalized):
        raise ValueError("table and generalization must have the same number of rows")
    n = len(table)
    if n == 0:
        return 0.0
    dimension = table.dimension
    domain_sizes = [attribute.size for attribute in table.schema.qi]

    points: Counter[tuple[int, tuple[int, ...]]] = Counter(
        (table.sa_value(row), table.qi_row(row)) for row in range(n)
    )
    combos: Counter[tuple[int, tuple[object, ...]]] = Counter(
        (generalized.sa_value(row), generalized.row_cells(row)) for row in range(n)
    )

    divergence = 0.0
    for (sa, point), count in points.items():
        fstar = 0.0
        for (combo_sa, cells), weight in combos.items():
            if combo_sa != sa:
                continue
            probability = 1.0
            for position in range(dimension):
                cell = cells[position]
                if cell is STAR:
                    probability *= 1.0 / domain_sizes[position]
                elif isinstance(cell, frozenset):
                    if point[position] in cell:
                        probability *= 1.0 / len(cell)
                    else:
                        probability = 0.0
                        break
                elif cell != point[position]:
                    probability = 0.0
                    break
            fstar += weight * probability
        fstar /= n
        f = count / n
        if fstar <= 0.0:
            return math.inf
        divergence += f * math.log(f / fstar)
    return max(divergence, 0.0)
