"""Tests for the dataset adapter layer."""

from __future__ import annotations

import builtins
import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.examples import hospital_microdata
from repro.dataset.synthetic import CensusConfig
from repro.dataset.table import Attribute, DomainError, Schema
from repro.engine import sources
from repro.engine.columnstore import ColumnStore
from repro.engine.sources import (
    CsvSource,
    SyntheticSource,
    TableSource,
    concat_tables,
    infer_csv_schema,
)
from repro.errors import DataSourceError
from repro.service.streaming import stream_anonymize

QI = ("Age", "Gender", "Education")
SA = "Disease"


@pytest.fixture
def hospital_csv(tmp_path):
    path = tmp_path / "hospital.csv"
    hospital_microdata().to_csv(str(path))
    return str(path)


class TestCsvSource:
    def test_load_round_trips(self, hospital_csv):
        original = hospital_microdata()
        loaded = CsvSource(hospital_csv, QI, SA).load()
        assert len(loaded) == len(original)
        assert loaded.decoded_records() == original.decoded_records()

    def test_schema_inference_matches_observed_domains(self, hospital_csv):
        schema = infer_csv_schema(hospital_csv, QI, SA)
        assert schema.qi_names == QI
        assert schema.sensitive.name == SA
        table = hospital_microdata()
        for name in QI:
            observed = {str(record[name]) for record in table.decoded_records()}
            assert set(schema.qi_attribute(name).values) == observed

    def test_missing_column_raises(self, hospital_csv):
        with pytest.raises(DataSourceError, match="Nope"):
            infer_csv_schema(hospital_csv, ("Age", "Nope"), SA)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataSourceError):
            CsvSource(str(tmp_path / "absent.csv"), QI, SA).load()

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataSourceError):
            infer_csv_schema(str(path), QI, SA)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 10, 100])
    def test_chunked_read_equals_full_load(self, hospital_csv, chunk_rows):
        source = CsvSource(hospital_csv, QI, SA)
        chunks = list(source.iter_chunks(chunk_rows))
        assert all(len(chunk) <= chunk_rows for chunk in chunks)
        # All chunks share one schema object, so concatenation never re-encodes.
        assert all(chunk.schema == chunks[0].schema for chunk in chunks)
        reassembled = concat_tables(chunks)
        assert reassembled.fingerprint() == source.load().fingerprint()

    def test_chunk_rows_must_be_positive(self, hospital_csv):
        with pytest.raises(ValueError):
            list(CsvSource(hospital_csv, QI, SA).iter_chunks(0))

    def test_label_is_path(self, hospital_csv):
        assert CsvSource(hospital_csv, QI, SA).label == hospital_csv


def _oracle(path: str, qi: tuple[str, ...], sa: str):
    """The two-pass composition: infer the schema, then load against it."""
    schema = infer_csv_schema(path, qi, sa)
    return CsvSource(path, qi, sa, schema=schema).load()


def _assert_same_table(actual, expected) -> None:
    assert actual.schema == expected.schema
    assert np.array_equal(actual.qi_columns, expected.qi_columns)
    assert np.array_equal(actual.sa_array, expected.sa_array)
    assert actual.fingerprint() == expected.fingerprint()


#: Cells that stress the reader and the domain order: quoted delimiters and
#: quotes, a quoted newline, unicode, blanks, and numeric-looking strings
#: (``"10"`` sorts before ``"9"``).
_CELLS = st.one_of(
    st.sampled_from(["9", "10", "2", "a,b", 'say "hi"', "x\ny", "é", "日本", "", " "]),
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\x00\r"
        ),
        max_size=3,
    ),
)


@st.composite
def _csv_files(draw):
    """``(text, qi, sa, records)``: a CSV with an unused column, shuffled
    header order and optional blank lines, plus its data records."""
    d = draw(st.integers(min_value=1, max_value=3))
    qi = tuple(f"Q{index}" for index in range(d))
    header = draw(st.permutations([*qi, "S", "Unused"]))
    records = draw(
        st.lists(
            st.lists(_CELLS, min_size=d + 2, max_size=d + 2), min_size=1, max_size=12
        )
    )
    blank_after = draw(st.sets(st.integers(min_value=0, max_value=len(records))))
    lines = []
    for position, record in enumerate([header, *records]):
        lines.append(_csv_line(record))
        if position in blank_after:
            lines.append("\n")
    named = [dict(zip(header, record)) for record in records]
    return "".join(lines), qi, "S", named


def _csv_line(cells) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()


@pytest.fixture
def opened(hospital_csv, monkeypatch):
    """The list of ``open`` calls on the hospital CSV made during the test."""
    calls = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == hospital_csv:
            calls.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return calls


class TestOnePassLoad:
    @settings(deadline=None, max_examples=150)
    @given(
        _csv_files(),
        st.sampled_from([1, 2, 3, 512]),
        st.integers(min_value=1, max_value=7),
    )
    def test_matches_infer_then_load(self, case, batch_rows, chunk_rows):
        text, qi, sa, records = case
        with tempfile.TemporaryDirectory() as directory:
            path = str(Path(directory) / "data.csv")
            Path(path).write_text(text, newline="")
            with mock.patch.object(sources, "CSV_BATCH_ROWS", batch_rows):
                source = CsvSource(path, qi, sa)
                loaded = source.load()
                expected = _oracle(path, qi, sa)
                _assert_same_table(loaded, expected)
                assert source.resolved_schema() == expected.schema
                chunks = list(CsvSource(path, qi, sa).iter_chunks(chunk_rows))
            _assert_same_table(concat_tables(chunks), expected)
        # Read batches never change the yielded chunk sizes.
        assert [len(chunk) for chunk in chunks[:-1]] == [chunk_rows] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= chunk_rows
        # An independent check of the decode: the cells as csv wrote them.
        assert loaded.decoded_records() == [
            {name: record[name] for name in (*qi, sa)} for record in records
        ]

    def test_numeric_strings_sort_as_strings(self, tmp_path):
        path = tmp_path / "numbers.csv"
        path.write_text("A,S\n9,x\n10,y\n2,x\n10,x\n")
        loaded = CsvSource(str(path), ("A",), "S").load()
        assert loaded.schema.qi[0].values == ("10", "2", "9")
        assert loaded.qi_columns[:, 0].tolist() == [2, 0, 1, 0]
        _assert_same_table(loaded, _oracle(str(path), ("A",), "S"))

    def test_header_only_with_schema_is_empty(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("A,B,S\n")
        schema = Schema(
            qi=(Attribute("A", ("1",)), Attribute("B", ("2",))),
            sensitive=Attribute("S", ("x",)),
        )
        loaded = CsvSource(str(path), ("A", "B"), "S", schema=schema).load()
        assert len(loaded) == 0
        assert loaded.qi_columns.shape == (0, 2)
        assert loaded.schema == schema
        with pytest.raises(DataSourceError, match="no data rows"):
            CsvSource(str(path), ("A", "B"), "S").load()

    def test_out_of_domain_value_raises_domain_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("A,S\n1,x\n7,x\n")
        schema = Schema(qi=(Attribute("A", ("1",)),), sensitive=Attribute("S", ("x",)))
        source = CsvSource(str(path), ("A",), "S", schema=schema)
        with pytest.raises(DomainError, match="'7'"):
            source.load()
        with pytest.raises(DomainError, match="'7'"):
            list(source.iter_chunks(1))

    def test_missing_columns_raise(self, hospital_csv):
        source = CsvSource(hospital_csv, ("Age", "Nope"), "Absent")
        with pytest.raises(DataSourceError, match="Nope"):
            source.load()
        with pytest.raises(DataSourceError, match="Absent"):
            list(source.iter_chunks(4))

    def test_short_record_raises(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("A,B,S\n1,2,x\n3,4\n")
        with pytest.raises(DataSourceError, match="fewer than 3 fields"):
            CsvSource(str(path), ("A", "B"), "S").load()
        with pytest.raises(DataSourceError, match="fewer than 3 fields"):
            infer_csv_schema(str(path), ("A", "B"), "S")

    def test_load_without_schema_opens_the_file_once(self, hospital_csv, opened):
        source = CsvSource(hospital_csv, QI, SA)
        source.load()
        assert len(opened) == 1
        # The schema is cached: streaming afterwards needs no inference pass.
        list(source.iter_chunks(3))
        assert len(opened) == 2


class TestBlankLines:
    """A blank line (trailing or not) is skipped, as csv.DictReader skips it."""

    TEXT = "A,B,S\n1,2,x\n\n3,4,y\n\n"
    RECORDS = [{"A": "1", "B": "2", "S": "x"}, {"A": "3", "B": "4", "S": "y"}]

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(self.TEXT)
        return str(path)

    def test_load(self, path):
        assert CsvSource(path, ("A", "B"), "S").load().decoded_records() == self.RECORDS

    def test_iter_chunks(self, path):
        chunks = list(CsvSource(path, ("A", "B"), "S").iter_chunks(1))
        assert [len(chunk) for chunk in chunks] == [1, 1]
        assert concat_tables(chunks).decoded_records() == self.RECORDS

    def test_convert_csv(self, path, tmp_path):
        store = ColumnStore.convert_csv(path, tmp_path / "store", ("A", "B"), "S")
        assert store.n == 2
        assert store.table().decoded_records() == self.RECORDS

    def test_stream_anonymize(self, path, tmp_path):
        output = tmp_path / "out.csv"
        report = stream_anonymize(CsvSource(path, ("A", "B"), "S"), output, l=2)
        assert report.n == 2
        with open(output, newline="") as handle:
            assert sorted(row["S"] for row in csv.DictReader(handle)) == ["x", "y"]


class TestRecordCount:
    def test_convert_csv_counts_quoted_newlines_as_one_record(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('A,B,S\n"1\nz",2,x\n3,4,y\n')
        store = ColumnStore.convert_csv(path, tmp_path / "store", ("A", "B"), "S")
        loaded = CsvSource(str(path), ("A", "B"), "S").load()
        assert store.n == 2
        assert store.fingerprint() == loaded.fingerprint()
        assert loaded.decoded_records()[0]["A"] == "1\nz"

    def test_convert_csv_infers_and_counts_in_one_read(self, hospital_csv, tmp_path, opened):
        store = ColumnStore.convert_csv(hospital_csv, tmp_path / "store", QI, SA)
        assert len(opened) == 2
        assert store.fingerprint() == _oracle(hospital_csv, QI, SA).fingerprint()

    def test_from_csv_rejects_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("A,B,S\n")
        schema = Schema(
            qi=(Attribute("A", ("1",)), Attribute("B", ("2",))),
            sensitive=Attribute("S", ("x",)),
        )
        for given_schema in (None, schema):
            with pytest.raises(DataSourceError, match="no data rows"):
                ColumnStore.from_csv(path, ("A", "B"), "S", schema=given_schema)


class TestSyntheticSource:
    def test_load_is_deterministic(self):
        source = SyntheticSource("SAL", n=300, seed=5, config=CensusConfig.scaled(0.2))
        assert source.load().fingerprint() == source.load().fingerprint()

    def test_seed_changes_fingerprint(self):
        config = CensusConfig.scaled(0.2)
        a = SyntheticSource("SAL", n=300, seed=5, config=config).load()
        b = SyntheticSource("SAL", n=300, seed=6, config=config).load()
        assert a.fingerprint() != b.fingerprint()

    def test_projection_dimension(self):
        source = SyntheticSource("OCC", n=200, dimension=3, config=CensusConfig.scaled(0.2))
        table = source.load()
        assert table.dimension == 3
        assert source.label == "OCC-3@200"

    def test_unknown_dataset_raises(self):
        with pytest.raises(DataSourceError):
            SyntheticSource("XYZ", n=10)

    def test_default_chunking_slices(self):
        source = SyntheticSource("SAL", n=250, config=CensusConfig.scaled(0.2))
        chunks = list(source.iter_chunks(100))
        assert [len(chunk) for chunk in chunks] == [100, 100, 50]
        assert concat_tables(chunks).fingerprint() == source.load().fingerprint()


class TestTableSource:
    def test_wraps_table(self, hospital):
        source = TableSource(hospital, name="hospital")
        assert source.load() is hospital
        assert source.label == "hospital"


class TestConcatTables:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            concat_tables([])

    def test_rejects_mixed_schemas(self, hospital):
        other = SyntheticSource("SAL", n=50, config=CensusConfig.scaled(0.2)).load()
        with pytest.raises(DataSourceError):
            concat_tables([hospital, other])

    def test_single_chunk_is_identity(self, hospital):
        assert concat_tables([hospital]) is hospital
