"""Joint state of the three-phase algorithm: QI-groups plus the residue set.

Section 5.1 reformulates tuple minimization as: partition the microdata into
its natural QI-groups ``Q_1..Q_s`` (tuples agreeing on every QI attribute),
then move the minimum number of tuples to a residue set ``R`` such that every
``Q_i`` and ``R`` are l-eligible.  :class:`AlgorithmState` owns that state
and the vocabulary the phases use: thin/fat, conflicting, dead/alive.

On the vectorized backend the per-group multiset states are **lazy**: the
state keeps the table's run encoding (:meth:`Table.qi_sa_runs_arrays`) plus
per-group size/height arrays computed by one fused
:func:`~repro.core.kernels.group_sizes_heights` pass.  Phase one works on
those arrays directly (:meth:`AlgorithmState.shave_ineligible_groups`): it
shaves every ineligible group in one pass and compacts the state's own
copies of the run arrays, so shaved groups stay lazy too.  A
:class:`~repro.core.groups.GroupState` is only materialized for the groups
phases two and three move tuples out of.  Every read the phases need —
size, height, eligibility, pillars, liveness, per-value counts — is
answered from the arrays for lazy groups, which is what makes million-row
and high-cardinality tables viable: no group pays for Python dicts until a
phase-two/three move touches it, and whole-state sweeps (phase one's shave,
phase three's cover/kill passes) become NumPy kernels.  Materialization is
observationally lossless: the dicts built from the run arrays are exactly
the ones the eager construction (plus the one-removal phase-one loop) would
have produced.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.backend import vectorized_enabled
from repro.core import kernels
from repro.core.groups import GroupState
from repro.dataset.table import Table
from repro.errors import IneligibleTableError

__all__ = ["AlgorithmState"]

StateFactory = Callable[[], GroupState]


class AlgorithmState:
    """All QI-groups and the residue set ``R`` of a run of the algorithm.

    Parameters
    ----------
    table:
        The microdata table.
    l:
        The diversity parameter.  The table must be l-eligible (Lemma 1).
    state_factory:
        Constructor used for the per-group multiset state; the default is the
        inverted-list :class:`~repro.core.groups.GroupState`, the ablation
        benchmark passes :class:`~repro.core.groups.NaiveGroupState`.
    """

    def __init__(
        self,
        table: Table,
        l: int,
        state_factory: StateFactory = GroupState,
    ) -> None:
        if l < 2:
            raise ValueError(f"l must be >= 2 for anonymization, got {l}")
        if not table.is_l_eligible(l):
            raise IneligibleTableError(
                f"table with {len(table)} rows is not {l}-eligible: some sensitive "
                "value occurs more than n/l times, so no l-diverse generalization exists"
            )
        self._table = table
        self._l = l
        self._group_keys: list[tuple[int, ...]] | None = None
        self._group_keys_arr: np.ndarray | None = None
        self._groups: list[GroupState | None]
        self._lazy = False
        self._materialized: set[int] = set()
        self._pillar_cache: dict[int, frozenset[int]] = {}
        self._pillar_runs: tuple[np.ndarray, np.ndarray] | None = None
        self._run_gids: np.ndarray | None = None
        self._context = None
        if vectorized_enabled() and len(table) > 0:
            if state_factory is GroupState:
                self._init_lazy(table)
            else:
                self._init_vectorized(table, state_factory)
        else:
            self._init_reference(table, state_factory)
        self._residue = state_factory()

    def _init_reference(self, table: Table, state_factory: StateFactory) -> None:
        """Build the per-group multiset states one :meth:`add` at a time."""
        # Deterministic group order: sort by QI vector so runs are reproducible.
        grouped = sorted(table.group_by_qi().items())
        self._group_keys = [key for key, _rows in grouped]
        self._groups = []
        for _key, rows in grouped:
            state = state_factory()
            for row in rows:
                state.add(table.sa_value(row), row)
            self._groups.append(state)

    def _init_lazy(self, table: Table) -> None:
        """Defer group materialization: keep the run encoding plus metrics.

        The shared :meth:`Table.grouping` context sorts the rows by ``(QI
        vector, sensitive value)``, which yields every QI-group as a
        contiguous block (already in the deterministic sorted-key order)
        and, inside each block, every sensitive value as a contiguous run.
        The context caches every derived array (run lengths, group row
        bounds, the fused size/height pass), so the state shares them with
        the metrics instead of re-deriving; the per-group dicts are only
        built when a phase mutates the group (:meth:`_materialize`), so
        untouched groups stay as array slices.
        """
        context = table.grouping()
        self._context = context
        (
            self._group_keys_arr,
            self._group_run_bounds,
            self._run_bounds,
            self._run_values,
            self._order,
        ) = context.arrays()
        self._run_lengths = context.run_lengths
        self._sizes, self._heights = context.group_sizes_heights()
        # Row-span boundaries of each group inside ``order`` (s + 1 entries).
        self._group_row_bounds = context.group_row_bounds
        self._groups = [None] * self._sizes.shape[0]
        self._lazy = True

    def _init_vectorized(self, table: Table, state_factory: StateFactory) -> None:
        """Eagerly build custom per-group states from the cached run encoding.

        Stability of the sort keeps row indices ascending within a run, so
        the result is indistinguishable from the per-row reference
        construction; the per-state row lists are sliced fresh (they are
        mutated as tuples move to the residue), everything else is shared.
        """
        group_keys, group_run_bounds, run_bounds, run_values, order_list = table.qi_sa_runs()
        self._group_keys = group_keys
        run_rows = [
            order_list[start:end] for start, end in zip(run_bounds[:-1], run_bounds[1:])
        ]

        groups: list[GroupState | None] = []
        for first, last in zip(group_run_bounds[:-1], group_run_bounds[1:]):
            state = state_factory()
            runs = list(zip(run_values[first:last], run_rows[first:last]))
            loader = getattr(state, "bulk_load", None)
            if loader is not None:
                loader(runs)
            else:  # custom state factories without bulk support
                for value, rows in runs:
                    for row in rows:
                        state.add(value, row)
            groups.append(state)
        self._groups = groups

    # ---------------------------------------------------------- materialization

    def _materialize(self, group_id: int) -> GroupState:
        """Build the mutable :class:`GroupState` of one lazily-held group.

        The dicts are filled in run order (sensitive values ascending, row
        indices ascending within a value) — exactly the insertion order the
        eager construction produces, so everything downstream (row
        concatenation order included) is bit-identical.
        """
        group = self._groups[group_id]
        if group is not None:
            return group
        first = int(self._group_run_bounds[group_id])
        last = int(self._group_run_bounds[group_id + 1])
        values = self._run_values[first:last].tolist()
        bounds = self._run_bounds[first : last + 1].tolist()
        order = self._order
        rows = {
            value: order[start:end].tolist()
            for value, start, end in zip(values, bounds[:-1], bounds[1:])
        }
        counts = {
            value: end - start
            for value, start, end in zip(values, bounds[:-1], bounds[1:])
        }
        group = GroupState.__new__(GroupState)
        group._counts = counts
        group._rows = rows
        group._buckets = None  # materialized on first update / pillar read
        group._height = int(self._heights[group_id])
        group._size = int(self._sizes[group_id])
        self._groups[group_id] = group
        self._materialized.add(group_id)
        self._pillar_cache.pop(group_id, None)
        return group

    # ----------------------------------------------------------------- basics

    @property
    def table(self) -> Table:
        return self._table

    @property
    def l(self) -> int:
        return self._l

    @property
    def groups(self) -> Sequence[GroupState]:
        """All per-group states (materializing any still-lazy ones)."""
        if self._lazy and len(self._materialized) < len(self._groups):
            for group_id in range(len(self._groups)):
                if self._groups[group_id] is None:
                    self._materialize(group_id)
        return self._groups  # type: ignore[return-value]

    @property
    def residue(self) -> GroupState:
        return self._residue

    @property
    def group_count(self) -> int:
        """The number ``s`` of initial QI-groups."""
        return len(self._groups)

    def group(self, group_id: int) -> GroupState:
        group = self._groups[group_id]
        if group is None:
            group = self._materialize(group_id)
        return group

    def group_qi_vector(self, group_id: int) -> tuple[int, ...]:
        """The (common) QI vector of the tuples initially in ``group_id``."""
        if self._group_keys is None:
            self._group_keys = [tuple(key) for key in self._group_keys_arr.tolist()]
        return self._group_keys[group_id]

    # ------------------------------------------------------------ fast queries
    #
    # Array-backed reads for groups that were never mutated; materialized
    # groups delegate to their GroupState.  The phases use these in their
    # whole-state sweeps so that untouched groups never build Python dicts.

    def group_size(self, group_id: int) -> int:
        group = self._groups[group_id]
        if group is not None:
            return group.size
        return int(self._sizes[group_id])

    def group_height(self, group_id: int) -> int:
        group = self._groups[group_id]
        if group is not None:
            return group.height
        return int(self._heights[group_id])

    def group_is_l_eligible(self, group_id: int) -> bool:
        group = self._groups[group_id]
        if group is not None:
            return group.is_l_eligible(self._l)
        return bool(self._heights[group_id] * self._l <= self._sizes[group_id])

    def group_pillars_view(self, group_id: int) -> frozenset[int] | set[int]:
        """The group's pillar set without materializing it (read-only)."""
        group = self._groups[group_id]
        if group is not None:
            return group.pillars_view()
        cached = self._pillar_cache.get(group_id)
        if cached is None:
            first = self._group_run_bounds[group_id]
            last = self._group_run_bounds[group_id + 1]
            lengths = self._run_lengths[first:last]
            values = self._run_values[first:last]
            cached = frozenset(values[lengths == self._heights[group_id]].tolist())
            self._pillar_cache[group_id] = cached
        return cached

    def group_values_iter(self, group_id: int):
        """The group's distinct sensitive values (read-only iterable)."""
        group = self._groups[group_id]
        if group is not None:
            return group.values_view()
        first = self._group_run_bounds[group_id]
        last = self._group_run_bounds[group_id + 1]
        return self._run_values[first:last].tolist()

    def group_count_of(self, group_id: int, value: int) -> int:
        """``h(Q, v)`` without materializing the group."""
        group = self._groups[group_id]
        if group is not None:
            return group.count(value)
        first = int(self._group_run_bounds[group_id])
        last = int(self._group_run_bounds[group_id + 1])
        values = self._run_values[first:last]
        position = int(np.searchsorted(values, value))
        if position >= values.shape[0] or int(values[position]) != value:
            return 0
        return int(
            self._run_bounds[first + position + 1] - self._run_bounds[first + position]
        )

    def ineligible_group_ids(self) -> list[int]:
        """Ascending ids of the groups violating Definition 2, one fused pass."""
        l = self._l
        if self._lazy:
            mask = self._heights * l > self._sizes
            for group_id in self._materialized:
                mask[group_id] = not self._groups[group_id].is_l_eligible(l)
            return np.flatnonzero(mask).tolist()
        return [
            group_id
            for group_id, group in enumerate(self._groups)
            if not group.is_l_eligible(l)
        ]

    def values_to_groups(self) -> dict[int, set[int]]:
        """``{sensitive value: ids of non-empty groups holding it}``.

        Phase two's seeding index.  On the lazy path this is one stable
        argsort over the run values instead of a per-group Python loop;
        materialized groups are merged in from their dicts.
        """
        result: dict[int, set[int]] = {}
        if self._lazy:
            run_gids = self._ensure_run_gids()
            values = self._run_values
            if self._materialized:
                stale = np.zeros(len(self._groups), dtype=bool)
                stale[list(self._materialized)] = True
                keep = ~stale[run_gids]
                values = values[keep]
                run_gids = run_gids[keep]
            if values.size:
                sort = np.argsort(values, kind="stable")
                sorted_values = values[sort]
                sorted_gids = run_gids[sort].tolist()
                boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [sorted_values.shape[0]]))
                for value, start, end in zip(
                    sorted_values[starts].tolist(), starts.tolist(), ends.tolist()
                ):
                    result[value] = set(sorted_gids[start:end])
            for group_id in sorted(self._materialized):
                group = self._groups[group_id]
                if group.size == 0:
                    continue
                for value in group.values_view():
                    result.setdefault(value, set()).add(group_id)
        else:
            for group_id, group in enumerate(self._groups):
                if group.size == 0:
                    continue
                for value in group.values_view():
                    result.setdefault(value, set()).add(group_id)
        return result

    def _ensure_run_gids(self) -> np.ndarray:
        if self._run_gids is None:
            if self._context is not None:
                self._run_gids = self._context.run_group_ids
            else:
                self._run_gids = np.repeat(
                    np.arange(len(self._groups), dtype=np.int64),
                    np.diff(self._group_run_bounds),
                )
        return self._run_gids

    def pillar_overlap_counts(self, pending: set[int]) -> np.ndarray | None:
        """``|pillars(Q) ∩ pending|`` for every group, or ``None`` off-lazy.

        Backs the greedy SET-COVER step of phase three: the static pillar
        runs (valid for every never-mutated group) go through the chunked
        :func:`~repro.core.kernels.pillar_overlap_counts` kernel, and the
        few materialized groups are overridden from their live pillar sets.
        Entries of *empty* materialized groups are 0; callers mask
        candidates by size anyway.
        """
        if not self._lazy:
            return None
        if self._pillar_runs is None:
            run_gids = self._ensure_run_gids()
            is_pillar = self._run_lengths == self._heights[run_gids]
            self._pillar_runs = (run_gids[is_pillar], self._run_values[is_pillar])
        gids, values = self._pillar_runs
        counts = kernels.pillar_overlap_counts(
            gids, values, pending, len(self._groups)
        )
        for group_id in self._materialized:
            group = self._groups[group_id]
            counts[group_id] = (
                len(pending & set(group.pillars_view())) if group.size else 0
            )
        return counts

    def group_sizes_array(self) -> np.ndarray | None:
        """Current per-group sizes as an array, or ``None`` off-lazy."""
        if not self._lazy:
            return None
        sizes = self._sizes.copy()
        for group_id in self._materialized:
            sizes[group_id] = self._groups[group_id].size
        return sizes

    # -------------------------------------------------------------- movements

    def move_to_residue(self, group_id: int, value: int) -> int:
        """Move one tuple with sensitive value ``value`` from a group to ``R``.

        Returns the row index of the moved tuple.  This is the only way
        tuples ever change sides; the paper notes tuples are moved to ``R``
        but never taken back.
        """
        row = self.group(group_id).remove_one(value)
        self._residue.add(value, row)
        return row

    def shave_ineligible_groups(self) -> int | None:
        """Phase one's whole shave of every ineligible group, as array work.

        Equivalent to ``move_to_residue(group_id, min(pillars))`` repeated
        until each group is l-eligible, group by group in ascending id:
        the stopping heights have a closed form computed for all groups at
        once (:func:`~repro.core.kernels.phase_one_stop_heights`), each run
        keeps ``min(c_v, stop)`` tuples, and — because
        :meth:`GroupState.remove_one` pops row indices from the tail of the
        ascending per-value lists — the removed rows are exactly the tail
        ``c_v - stop`` positions of each over-tall run.  The residue is one
        masked gather of ``order``, loaded with one
        :meth:`GroupState.bulk_load`: per value, the rows come in group
        order, then ascending; values enter in order of their first
        ``(group, value)`` run.  Per group the moved rows are the loop's;
        only the order inside the residue differs, and it is never observed
        (the residue is sorted before publication).

        The state then compacts its *own copies* of the run arrays: shaved
        positions and emptied runs are dropped and sizes, heights and bounds
        updated, so shaved groups stay lazy and phases two and three read
        them through the array accessors.  The shared grouping context is
        left untouched (the metrics read it).

        Returns the number of tuples moved, or ``None`` when the array path
        does not apply — an eager state, a non-empty residue, or an
        ineligible group that was already materialized — and the caller
        must run the one-removal loop.
        """
        if not self._lazy or self._residue.size:
            return None
        l = self._l
        ineligible = self._heights * l > self._sizes
        if self._materialized:
            materialized = sorted(self._materialized)
            if any(not self._groups[gid].is_l_eligible(l) for gid in materialized):
                return None
            ineligible[materialized] = False
        frontier = np.flatnonzero(ineligible)
        if frontier.size == 0:
            return 0
        run_gids = self._ensure_run_gids()
        lengths = self._run_lengths
        frontier_bounds = np.concatenate(
            ([0], np.cumsum(np.diff(self._group_run_bounds)[frontier]))
        )
        stops, removed = kernels.phase_one_stop_heights(
            lengths[ineligible[run_gids]], frontier_bounds, l
        )
        stop = self._heights.copy()
        stop[frontier] = stops
        keep = np.minimum(lengths, stop[run_gids])

        # Positions (in ``order``) of the shaved tails: run by run, so the
        # gather comes out in group order, then value order, then rows.
        shaved = np.flatnonzero(keep < lengths)
        tail_lengths = lengths[shaved] - keep[shaved]
        tail_starts = self._run_bounds[shaved] + keep[shaved]
        tail_offsets = np.cumsum(tail_lengths) - tail_lengths
        positions = np.repeat(tail_starts - tail_offsets, tail_lengths) + np.arange(
            int(tail_lengths.sum()), dtype=np.int64
        )
        self._load_residue(
            np.repeat(self._run_values[shaved], tail_lengths), self._order[positions]
        )

        nonempty = keep > 0
        self._order = np.delete(self._order, positions)
        self._run_values = self._run_values[nonempty]
        self._run_lengths = keep[nonempty]
        self._run_bounds = np.concatenate(([0], np.cumsum(self._run_lengths)))
        self._run_gids = run_gids[nonempty]
        self._group_run_bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(self._run_gids, minlength=len(self._groups))))
        )
        self._group_row_bounds = self._run_bounds[self._group_run_bounds]
        self._sizes = self._sizes.copy()
        self._sizes[frontier] -= removed
        self._heights = stop
        self._context = None
        self._pillar_runs = None
        self._pillar_cache.clear()
        return int(positions.shape[0])

    def _load_residue(self, values: np.ndarray, rows: np.ndarray) -> None:
        """Pour ``(value, row)`` pairs, in move order, into the empty residue.

        Per value the rows keep their move order, and values enter the
        residue's dicts in order of first move — what one :meth:`add` per
        pair would build, with O(1) dict work per distinct value.
        """
        by_value = np.argsort(values, kind="stable")
        sorted_values = values[by_value]
        starts = np.flatnonzero(np.diff(sorted_values, prepend=-1))
        ends = np.append(starts[1:], sorted_values.shape[0])
        grouped = rows[by_value]
        runs = [
            (value, grouped[start:end].tolist())
            for value, start, end in zip(
                sorted_values[starts].tolist(), starts.tolist(), ends.tolist()
            )
        ]
        # A stable sort keeps each value's first move at its block start.
        first_moves = by_value[starts]
        self._residue.bulk_load(
            [runs[index] for index in np.argsort(first_moves).tolist()]
        )

    # ------------------------------------------------------------ vocabulary

    def group_is_thin(self, group_id: int) -> bool:
        group = self._groups[group_id]
        if group is not None:
            return group.is_thin(self._l)
        return int(self._sizes[group_id]) == self._l * int(self._heights[group_id])

    def group_is_fat(self, group_id: int) -> bool:
        group = self._groups[group_id]
        if group is not None:
            return group.is_fat(self._l)
        return int(self._sizes[group_id]) >= self._l * int(self._heights[group_id]) + 1

    def conflicting_pillars(self, group_id: int) -> set[int]:
        """``C(Q)``: pillars of the group that are also pillars of ``R``."""
        # Intersecting the read-only views allocates only the result set.
        return set(self.group_pillars_view(group_id) & self._residue.pillars_view())

    def group_is_conflicting(self, group_id: int) -> bool:
        return not self.group_pillars_view(group_id).isdisjoint(
            self._residue.pillars_view()
        )

    def group_is_dead(self, group_id: int) -> bool:
        """Dead = thin and conflicting (cannot shed tuples without harm)."""
        if self.group_size(group_id) == 0:
            return True
        return self.group_is_thin(group_id) and self.group_is_conflicting(group_id)

    def group_is_alive(self, group_id: int) -> bool:
        return not self.group_is_dead(group_id)

    def residue_is_eligible(self) -> bool:
        """Inequality (1): ``|R| >= l * h(R)``."""
        return self._residue.is_l_eligible(self._l)

    # --------------------------------------------------------------- outputs

    def retained_group_rows(self) -> list[list[int]]:
        """Row-index lists of the non-empty QI-groups (zero stars each)."""
        return [
            group if isinstance(group, list) else group.tolist()
            for group in self.retained_group_arrays()
        ]

    def retained_group_arrays(self) -> list:
        """Like :meth:`retained_group_rows`, but zero-copy where possible.

        Untouched lazy groups come back as read-only ndarray spans of
        ``order`` instead of Python lists (same element order); materialized
        groups still yield lists.  The vectorized publish path consumes
        either without materializing millions of Python ints.
        """
        if not self._lazy:
            return [group.rows() for group in self._groups if group.size > 0]
        order = self._order
        row_bounds = self._group_row_bounds
        groups = self._groups
        collected: list = []
        # Groups phase one emptied hold no span; a materialized group's span
        # is never shorter than its live size, so none is skipped wrongly.
        spanned = np.flatnonzero(row_bounds[1:] > row_bounds[:-1])
        starts = row_bounds[spanned].tolist()
        ends = row_bounds[spanned + 1].tolist()
        for group_id, start, end in zip(spanned.tolist(), starts, ends):
            group = groups[group_id]
            if group is None:
                # Still lazy: its rows are one contiguous span of ``order``,
                # already in the (SA run, ascending row) order the eager
                # GroupState.rows() concatenation would produce.
                collected.append(order[start:end])
            elif group.size > 0:
                collected.append(group.rows())
        return collected

    def residue_rows(self) -> list[int]:
        """Row indices currently in the residue set ``R``."""
        return self._residue.rows()

    def removed_tuple_count(self) -> int:
        """``|R|``: the tuple-minimization objective."""
        return self._residue.size
