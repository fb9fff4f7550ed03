"""Unit tests for repro.tabular.table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SharedColumnStore
from repro.tabular import (
    ColumnLengthError,
    DuplicateColumnError,
    EmptySelectionError,
    MissingColumnError,
    SchemaMismatchError,
    Table,
)


@pytest.fixture
def table():
    return Table(
        {
            "score": [3.0, 1.0, 2.0, 5.0],
            "flag": [1, 0, 1, 0],
            "group": ["a", "b", "a", "b"],
        }
    )


class TestConstruction:
    def test_basic_properties(self, table):
        assert table.num_rows == 4
        assert table.num_columns == 3
        assert table.column_names == ("score", "flag", "group")

    def test_empty_table(self):
        empty = Table()
        assert empty.num_rows == 0
        assert empty.column_names == ()

    def test_length_mismatch(self):
        with pytest.raises(ColumnLengthError):
            Table({"a": [1, 2], "b": [1, 2, 3]})

    def test_from_rows(self):
        table = Table.from_rows([{"x": 1, "y": "a"}, {"x": 2, "y": "b"}])
        assert table.numeric("x").tolist() == [1, 2]

    def test_from_rows_schema_mismatch(self):
        with pytest.raises(SchemaMismatchError):
            Table.from_rows([{"x": 1}, {"y": 2}])

    def test_from_rows_empty(self):
        assert Table.from_rows([]).num_rows == 0

    def test_from_columns_length_check(self):
        from repro.tabular import NumericColumn

        with pytest.raises(ColumnLengthError):
            Table.from_columns({"a": NumericColumn([1.0]), "b": NumericColumn([1.0, 2.0])})


class TestAccess:
    def test_column_access(self, table):
        assert table.column("score").to_list() == [3.0, 1.0, 2.0, 5.0]
        assert table["flag"].to_numeric().tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_missing_column(self, table):
        with pytest.raises(MissingColumnError):
            table.column("nope")

    def test_matrix_shape_and_order(self, table):
        matrix = table.matrix(["flag", "score"])
        assert matrix.shape == (4, 2)
        assert matrix[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_matrix_empty_names(self, table):
        assert table.matrix([]).shape == (4, 0)

    def test_row_returns_labels_for_categoricals(self, table):
        row = table.row(0)
        assert row == {"score": 3.0, "flag": True, "group": "a"}

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(10)

    def test_rows_iteration(self, table):
        rows = list(table.rows())
        assert len(rows) == 4
        assert rows[3]["group"] == "b"

    def test_contains(self, table):
        assert "score" in table
        assert "nope" not in table


class TestDerivedTables:
    def test_with_column(self, table):
        extended = table.with_column("double", table.numeric("score") * 2)
        assert "double" in extended
        assert "double" not in table  # original unchanged
        assert extended.numeric("double").tolist() == [6.0, 2.0, 4.0, 10.0]

    def test_with_column_length_check(self, table):
        with pytest.raises(ColumnLengthError):
            table.with_column("bad", [1.0])

    def test_without_columns(self, table):
        reduced = table.without_columns(["group"])
        assert reduced.column_names == ("score", "flag")

    def test_without_missing_column(self, table):
        with pytest.raises(MissingColumnError):
            table.without_columns(["nope"])

    def test_select_order(self, table):
        selected = table.select(["group", "score"])
        assert selected.column_names == ("group", "score")

    def test_rename(self, table):
        renamed = table.rename({"score": "points"})
        assert "points" in renamed
        assert "score" not in renamed

    def test_rename_duplicate(self, table):
        with pytest.raises(DuplicateColumnError):
            table.rename({"score": "flag"})

    def test_take_preserves_order(self, table):
        taken = table.take([3, 0])
        assert taken.numeric("score").tolist() == [5.0, 3.0]

    def test_filter_with_mask(self, table):
        filtered = table.filter(table.numeric("flag") > 0.5)
        assert filtered.num_rows == 2
        assert filtered.numeric("score").tolist() == [3.0, 2.0]

    def test_filter_with_callable(self, table):
        filtered = table.filter(lambda t: t.numeric("score") > 2.0)
        assert filtered.num_rows == 2

    def test_filter_shape_check(self, table):
        with pytest.raises(ColumnLengthError):
            table.filter(np.array([True, False]))

    def test_head(self, table):
        assert table.head(2).num_rows == 2
        assert table.head(100).num_rows == 4

    def test_sort_by_column(self, table):
        ordered = table.sort_by("score")
        assert ordered.numeric("score").tolist() == [1.0, 2.0, 3.0, 5.0]

    def test_sort_descending(self, table):
        ordered = table.sort_by("score", descending=True)
        assert ordered.numeric("score").tolist() == [5.0, 3.0, 2.0, 1.0]

    def test_sort_by_external_key(self, table):
        ordered = table.sort_by(np.array([4.0, 3.0, 2.0, 1.0]))
        assert ordered.numeric("score").tolist() == [5.0, 2.0, 1.0, 3.0]

    def test_sort_key_shape_check(self, table):
        with pytest.raises(ColumnLengthError):
            table.sort_by(np.array([1.0, 2.0]))

    def test_concat(self, table):
        combined = table.concat(table)
        assert combined.num_rows == 8

    def test_concat_schema_mismatch(self, table):
        other = Table({"x": [1.0]})
        with pytest.raises(SchemaMismatchError):
            table.concat(other)

    def test_concat_with_empty(self, table):
        assert Table().concat(table).num_rows == 4
        assert table.concat(Table()).num_rows == 4


class TestSamplingAndSplitting:
    def test_sample_size(self, table, rng):
        sample = table.sample(2, rng=rng)
        assert sample.num_rows == 2

    def test_sample_larger_than_table_returns_table(self, table, rng):
        assert table.sample(10, rng=rng) is table

    def test_sample_with_replacement(self, table, rng):
        sample = table.sample(10, rng=rng, replace=True)
        assert sample.num_rows == 10

    def test_sample_empty_table(self, rng):
        with pytest.raises(EmptySelectionError):
            Table().sample(1, rng=rng)

    def test_shuffle_preserves_multiset(self, table, rng):
        shuffled = table.shuffle(rng=rng)
        assert sorted(shuffled.numeric("score").tolist()) == sorted(
            table.numeric("score").tolist()
        )

    def test_split_sizes(self, rng):
        table = Table({"x": list(range(100))})
        left, right = table.split(0.3, rng=rng)
        assert left.num_rows == 30
        assert right.num_rows == 70

    def test_split_invalid_fraction(self, table, rng):
        with pytest.raises(ValueError):
            table.split(1.5, rng=rng)


class TestSummaries:
    def test_means(self, table):
        means = table.means(["score", "flag"])
        assert means["score"] == pytest.approx(2.75)
        assert means["flag"] == pytest.approx(0.5)

    def test_centroid_order(self, table):
        centroid = table.centroid(["flag", "score"])
        assert centroid.tolist() == pytest.approx([0.5, 2.75])

    def test_centroid_empty_table(self):
        with pytest.raises(EmptySelectionError):
            Table().centroid(["x"])

    def test_group_rates(self, table):
        assert table.group_rates(["flag"]) == {"flag": 0.5}

    def test_describe_skips_categoricals(self, table):
        summary = table.describe()
        assert "group" not in summary
        assert summary["score"]["max"] == 5.0

    def test_to_dict_roundtrip(self, table):
        data = table.to_dict()
        rebuilt = Table(data)
        assert rebuilt == table

    def test_equality(self, table):
        assert table == Table(table.to_dict())
        assert table != table.take([0, 1])


class TestSharedColumnStore:
    def test_round_trip_and_table_views(self):
        with SharedColumnStore(100, ("a", "b")) as store:
            store.view("a")[...] = np.arange(100, dtype=float)
            store.view("b")[...] = np.ones(100)
            table = store.table()
            assert np.array_equal(table.numeric("a"), np.arange(100, dtype=float))
            # Continuous float columns are zero-copy views into the segment.
            store.view("a")[0] = 41.0
            assert table.numeric("a")[0] == 41.0

    def test_validation(self):
        # Both constructors raise before any segment exists, so there is
        # nothing to close — statically unverifiable, hence the disables.
        with pytest.raises(ValueError, match="num_rows"):
            SharedColumnStore(0, ("a",))  # repro-lint: disable=R2
        with pytest.raises(ValueError, match="column name"):
            SharedColumnStore(10, ())  # repro-lint: disable=R2

    def test_shared_cohort_bitwise_identical_to_plain(self):
        from repro.datasets import SchoolGeneratorConfig, generate_school_cohort

        config = SchoolGeneratorConfig(num_students=2000)
        plain = generate_school_cohort("store-test", config, seed=13)
        shared = generate_school_cohort("store-test", config, seed=13, shared=True)
        try:
            assert shared.store is not None
            for name in (
                "student_id", "gpa", "test_scores", "grade_ela", "test_math",
                "absences", "district", "low_income", "ell", "special_ed", "eni",
            ):
                assert np.array_equal(plain.table.numeric(name), shared.table.numeric(name)), name
        finally:
            shared.close()
        plain.close()  # no-op for unshared cohorts

    def test_copula_sample_into_matches_sample(self):
        from repro.datasets.copula import GaussianCopula, binary_marginal, uniform_marginal

        copula = GaussianCopula(
            [binary_marginal("flag", 0.3), uniform_marginal("level", 0.0, 2.0)],
            np.array([[1.0, 0.4], [0.4, 1.0]]),
        )
        direct = copula.sample(500, np.random.default_rng(21))
        out = {"flag": np.empty(500), "level": np.empty(500)}
        copula.latent_and_sample_into(500, np.random.default_rng(21), out)
        assert np.array_equal(direct["flag"], out["flag"])
        assert np.array_equal(direct["level"], out["level"])

    def test_sample_into_rejects_bad_buffer_shape(self):
        from repro.datasets.copula import GaussianCopula, binary_marginal

        copula = GaussianCopula([binary_marginal("flag", 0.3)], np.eye(1))
        with pytest.raises(ValueError, match="shape"):
            copula.latent_and_sample_into(
                100, np.random.default_rng(0), {"flag": np.empty(99)}
            )
