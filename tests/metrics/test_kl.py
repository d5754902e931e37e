"""Tests for the KL-divergence utility metric (Equation 2)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hybrid
from repro.dataset.generalized import GeneralizedTable, Partition
from repro.metrics.kl import (
    kl_divergence,
    kl_divergence_reference,
    kl_divergence_unfused,
)
from tests.conftest import make_random_table
from tests.strategies import tables_with_partitions


class TestExactCases:
    def test_identity_generalization_has_zero_divergence(self, hospital):
        generalized = GeneralizedTable.from_partition(hospital, Partition.by_qi(hospital))
        assert kl_divergence(hospital, generalized) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_single_attribute(self):
        """Two rows, one QI attribute with two values, both suppressed.

        f places 1/2 on each of the two observed points; f* spreads each
        suppressed row uniformly over both domain values, giving 1/2 on each
        point as well — except that the SA values differ, so each point's
        mass comes only from its own row: f*(p) = 1/2 * 1/2 = 1/4, hence
        KL = 2 * (1/2) * ln((1/2)/(1/4)) = ln 2.
        """
        table = make_random_table(2, d=1, qi_domain=2, m=2, seed=0)
        # Force the exact layout described above.
        from repro.dataset.table import Table

        table = Table(table.schema, [(0,), (1,)], [0, 1])
        generalized = GeneralizedTable.from_partition(table, Partition.single_group(2))
        assert kl_divergence(table, generalized) == pytest.approx(math.log(2))

    def test_mismatched_lengths_rejected(self, hospital):
        generalized = GeneralizedTable.from_partition(hospital, Partition.by_qi(hospital))
        with pytest.raises(ValueError):
            kl_divergence(hospital.subset([0, 1]), generalized)

    def test_empty_table(self):
        table = make_random_table(1, d=1, qi_domain=2, m=2, seed=0).subset([])
        generalized = GeneralizedTable(table.schema, [], [], [])
        assert kl_divergence(table, generalized) == 0.0


class TestOrderingProperties:
    def test_full_suppression_is_worse_than_partial(self, hospital):
        fine = GeneralizedTable.from_partition(
            hospital, Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        )
        coarse = GeneralizedTable.from_partition(hospital, Partition.single_group(10))
        assert kl_divergence(hospital, coarse) > kl_divergence(hospital, fine)

    def test_subdomains_are_better_than_stars(self, hospital):
        """Replacing a star with a covering sub-domain can only help (Section 6.2)."""
        partition = Partition.single_group(10)
        stars = GeneralizedTable.from_partition(hospital, partition)
        cells = []
        for row in range(len(hospital)):
            qi = hospital.qi_row(row)
            cells.append(
                (
                    frozenset({hospital.qi_row(other)[0] for other in range(10)}),
                    frozenset({hospital.qi_row(other)[1] for other in range(10)}),
                    frozenset({hospital.qi_row(other)[2] for other in range(10)}),
                )
            )
            del qi
        subdomains = GeneralizedTable(
            hospital.schema, cells, hospital.sa_values, [0] * len(hospital)
        )
        assert kl_divergence(hospital, subdomains) <= kl_divergence(hospital, stars) + 1e-9

    def test_non_negative(self, random_table):
        generalized = GeneralizedTable.from_partition(
            random_table, Partition.single_group(len(random_table))
        )
        assert kl_divergence(random_table, generalized) >= 0.0

    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=100),
        groups=st.integers(min_value=1, max_value=4),
    )
    def test_property_non_negative_and_finite(self, n, seed, groups):
        table = make_random_table(n, d=2, qi_domain=3, m=3, seed=seed)
        blocks = [[] for _ in range(min(groups, n))]
        for row in range(n):
            blocks[row % len(blocks)].append(row)
        generalized = GeneralizedTable.from_partition(table, Partition(blocks, n))
        value = kl_divergence(table, generalized)
        assert value >= 0.0
        assert math.isfinite(value)


class TestCombosAdapters:
    """The columnar and row-tuple combo adapters feed one star-mask join."""

    @staticmethod
    def _row_tuple_copy(generalized: GeneralizedTable) -> GeneralizedTable:
        # An explicit construction carries no columnar group form, so KL
        # reads it through the row-tuple adapter.
        copy = GeneralizedTable(
            generalized.schema,
            generalized.cell_rows,
            generalized.sa_values,
            generalized.group_ids,
        )
        assert copy.columnar_publish() is None
        return copy

    @settings(deadline=None, max_examples=80)
    @given(data=tables_with_partitions(max_rows=12, max_dimension=3, max_sensitive=4))
    def test_columnar_equals_row_tuples_on_random_partitions(self, data):
        table, partition = data
        generalized = GeneralizedTable.from_partition(table, partition)
        assert generalized.columnar_publish() is not None
        columnar = kl_divergence(table, generalized)
        assert columnar == kl_divergence(table, self._row_tuple_copy(generalized))

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=2, max_value=60),
        l=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=300),
    )
    def test_columnar_equals_row_tuples_on_tp_plus_outputs(self, n, l, seed):
        table = make_random_table(n, d=3, qi_domain=3, m=4, seed=seed)
        if not table.is_l_eligible(l):
            return
        generalized = hybrid.anonymize(table, l).generalized
        columnar = kl_divergence(table, generalized)
        assert columnar == kl_divergence(table, self._row_tuple_copy(generalized))
        assert columnar == kl_divergence_unfused(table, generalized)

    def test_kl_leaves_row_cells_unmaterialized(self, small_census):
        generalized = hybrid.anonymize(small_census, 2).generalized
        assert generalized._cells_rows is None
        kl_divergence(small_census, generalized)
        kl_divergence_unfused(small_census, generalized)
        assert generalized._cells_rows is None

    @pytest.mark.parametrize("algorithm", ["tds", "mondrian"])
    def test_subdomain_outputs_take_the_dense_path(self, small_census, algorithm):
        from repro.baselines import mondrian, tds
        from repro.metrics.kl import _star_combos

        projected = small_census.project(small_census.schema.qi_names[:3])
        module = {"tds": tds, "mondrian": mondrian}[algorithm]
        generalized = module.anonymize(projected, 2).generalized
        assert generalized.columnar_publish() is None
        cells = generalized.cell_rows
        assert any(isinstance(cell, frozenset) for row in cells for cell in row)
        assert (
            _star_combos(
                generalized.sa_values,
                cells,
                [1] * len(cells),
                projected.dimension,
            )
            is None
        )
        assert kl_divergence(projected, generalized) == pytest.approx(
            kl_divergence_reference(projected, generalized), rel=1e-9, abs=1e-12
        )
