"""Bit-identity of the array phase one against the one-removal loop.

On the lazy state, phase one shaves every ineligible group in one array
pass over the run encoding (``AlgorithmState.shave_ineligible_groups``).
The one-removal-at-a-time loop stays for eager states; patching the array
pass to decline forces that loop on the very same lazy state, so each test
here runs both paths on one table and demands identical reports, residue
row lists (group order, then rows), retained groups, and — on
tables where phase one does not suffice — identical TP and TP+ output,
which proves phases two and three read the compacted state correctly.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hybrid, three_phase
from repro.core.phase1 import run_phase_one
from repro.core.state import AlgorithmState
from repro.dataset.table import Attribute, Schema, Table


@contextmanager
def one_removal_loop():
    """Run phase one through the eager loop on the lazy state."""
    with mock.patch.object(
        AlgorithmState, "shave_ineligible_groups", return_value=None
    ):
        yield


def build_table(groups: list[list[int]], m: int, l: int, seed: int) -> Table:
    """One QI-group per SA list (distinct QI vectors), rows shuffled.

    A padding group of the rarest values is appended until the table is
    l-eligible, so every drawn case is a valid input.
    """
    counts = [0] * m
    for values in groups:
        for value in values:
            counts[value] += 1
    padding: list[int] = []
    while max(counts) * l > sum(counts):
        value = counts.index(min(counts))
        counts[value] += 1
        padding.append(value)
    if padding:
        groups = [*groups, padding]
    side = int(np.ceil(np.sqrt(len(groups)))) + 1
    rows = [
        ((group_id // side, group_id % side), value)
        for group_id, values in enumerate(groups)
        for value in values
    ]
    random.Random(seed).shuffle(rows)
    schema = Schema(
        qi=(
            Attribute("Q0", tuple(range(side))),
            Attribute("Q1", tuple(range(side))),
        ),
        sensitive=Attribute("S", tuple(range(m))),
    )
    return Table(schema, [qi for qi, _ in rows], [value for _, value in rows])


@st.composite
def phase_one_cases(draw):
    l = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=l, max_value=8))
    kinds = draw(
        st.lists(
            st.sampled_from(["singleton", "single-value", "mixed"]),
            min_size=1,
            max_size=14,
        )
    )
    groups = []
    for kind in kinds:
        if kind == "singleton":
            groups.append([draw(st.integers(0, m - 1))])
        elif kind == "single-value":
            groups.append([draw(st.integers(0, m - 1))] * draw(st.integers(1, 9)))
        else:
            groups.append(
                draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=14))
            )
    return build_table(groups, m, l, draw(st.integers(0, 1000))), l


def row_groups(table: Table) -> dict[int, int]:
    """``{row: QI-group id}`` in the state's (sorted QI vector) group order."""
    return {
        row: group_id
        for group_id, rows in enumerate(sorted(table.group_by_qi().items()))
        for row in rows[1]
    }


def residue_runs(state: AlgorithmState) -> list[tuple[int, list[int]]]:
    residue = state.residue
    return [(value, residue.rows_of(value)) for value in residue.values_view()]


def phase_one_outcome(table: Table, l: int):
    state = AlgorithmState(table, l)
    report = run_phase_one(state)
    return (
        report,
        residue_runs(state),
        state.retained_group_rows(),
        [state.group_size(gid) for gid in range(state.group_count)],
    )


def published(result) -> tuple:
    generalized = result.generalized
    return (
        [list(group) for group in result.partition.groups],
        generalized.cell_rows,
        generalized.sa_values,
        generalized.star_count(),
    )


@settings(deadline=None, max_examples=150)
@given(phase_one_cases())
def test_array_phase_one_matches_one_removal_loop(case):
    table, l = case
    array = phase_one_outcome(table, l)
    with one_removal_loop():
        loop = phase_one_outcome(table, l)
    report, runs, retained, sizes = array
    assert report == loop[0]
    assert retained == loop[2]
    assert sizes == loop[3]
    # The same rows per value.  The loop moves pillars in pillar order and
    # pops each value's rows from the tail (descending); the array pass
    # gathers group by group, values ascending, rows ascending — the order
    # the residue's rows and values are held to.  (Neither order is
    # observed downstream: the residue is sorted before publication.)
    group_of = row_groups(table)
    loop_rows = {
        value: sorted(rows, key=lambda row: (group_of[row], row))
        for value, rows in loop[1]
    }
    assert dict(runs) == loop_rows
    assert [value for value, _ in runs] == sorted(
        loop_rows, key=lambda value: (group_of[loop_rows[value][0]], value)
    )


@settings(deadline=None, max_examples=120)
@given(phase_one_cases())
def test_tp_and_tp_plus_identical_after_compaction(case):
    table, l = case
    tp = three_phase.anonymize(table, l)
    tp_plus = hybrid.anonymize(table, l)
    with one_removal_loop():
        tp_loop = three_phase.anonymize(table, l)
        tp_plus_loop = hybrid.anonymize(table, l)
    assert tp.stats == tp_loop.stats
    assert published(tp) == published(tp_loop)
    assert tp.residue_rows == tp_loop.residue_rows
    assert tp_plus.residue_rows == tp_plus_loop.residue_rows
    assert published(tp_plus) == published(tp_plus_loop)


def test_sweep_reaches_phases_two_and_three():
    """The cases above include runs phase one cannot finish.

    A fixed sweep of the same generator must reach phase two and phase
    three, and must agree with the loop on every table, so the equality
    above is known to cover phases reading the compacted state.
    """
    rng = random.Random(5)
    reached = set()
    for seed in range(300):
        l = rng.randint(2, 4)
        m = rng.randint(l, 5)
        groups = [
            [rng.randrange(m) for _ in range(rng.choice((1, 2, 3, 5, 8)))]
            for _ in range(rng.randint(2, 12))
        ]
        table = build_table(groups, m, l, seed)
        result = three_phase.anonymize(table, l)
        with one_removal_loop():
            loop = three_phase.anonymize(table, l)
        assert result.stats == loop.stats
        assert published(result) == published(loop)
        reached.add(result.stats.phase_reached)
    assert {2, 3} <= reached


def test_shaving_leaves_shared_grouping_untouched():
    table = build_table([[0] * 6, [0, 1, 1, 1], [2], [1, 2, 3]], 4, 2, 0)
    context = table.grouping()
    before = [array.copy() for array in context.arrays()]
    sizes, heights = (array.copy() for array in context.group_sizes_heights())
    state = AlgorithmState(table, 2)
    assert run_phase_one(state).moved > 0
    for original, now in zip(before, context.arrays()):
        assert np.array_equal(original, now)
    assert np.array_equal(sizes, context.group_sizes_heights()[0])
    assert np.array_equal(heights, context.group_sizes_heights()[1])
    # Emptied and shaved groups stay lazy (not materialized).
    assert all(state._groups[gid] is None for gid in range(state.group_count))
