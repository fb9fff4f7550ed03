"""Bit-level pins for the per-fit precompute of the array engine.

A fit reduces each attribute column once for the normalizer bounds, builds
the raw attribute matrix once, and writes the normalized matrix straight
from the columns.  These tests pin every one of those steps to the
broadcast expressions they replace, bit for bit, and pin one whole default
fit to bonus values recorded before the rewrite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DCA, AttributeNormalizer, DCAConfig
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_cohort,
    school_admission_rubric,
)
from repro.tabular import Table


def _stacked(table: Table, names) -> np.ndarray:
    """The attribute matrix as the reference formula builds it."""
    return np.column_stack([table.numeric(name).astype(float) for name in names])


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    return left.dtype == right.dtype and left.shape == right.shape and (
        left.tobytes() == right.tobytes()
    )


def _signed_zero_tables():
    """Float columns mixing 0.0 and -0.0 at lengths around the SIMD widths."""
    rng = np.random.default_rng(11)
    for rows in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 255, 256, 257, 1000):
        for _ in range(6):
            zeros = rng.choice([0.0, -0.0], size=rows)
            mixed = rng.choice([0.0, -0.0, 1.5, 2.0], size=rows)
            negative = rng.choice([0.0, -0.0, -1.0], size=rows)
            yield Table({"zeros": zeros, "mixed": mixed, "negative": negative,
                         "flag": rng.uniform(size=rows) < 0.5})


class TestColumnBounds:
    NAMES = ("zeros", "mixed", "negative", "flag")

    def _check(self, table: Table, names) -> None:
        low, high = AttributeNormalizer(names).fit(table).bounds()
        matrix = _stacked(table, names)
        assert _same_bits(low, matrix.min(axis=0))
        assert _same_bits(high, matrix.max(axis=0))

    def test_signed_zeros_match_axis0_reduction(self):
        for table in _signed_zero_tables():
            self._check(table, self.NAMES)
            # One attribute alone: the axis-0 reduction has another loop shape.
            for name in self.NAMES:
                self._check(table, (name,))

    def test_constant_columns(self):
        rows = 300
        table = Table({
            "fives": np.full(rows, 5.0),
            "zeros": np.zeros(rows),
            "negative_zeros": np.full(rows, -0.0),
            "all_true": np.ones(rows, dtype=bool),
            "all_false": np.zeros(rows, dtype=bool),
            "ints": np.full(rows, 7, dtype=np.int64),
        })
        names = table.column_names
        self._check(table, names)
        normalizer = AttributeNormalizer(names).fit(table)
        expected = np.clip((_stacked(table, names) - normalizer.bounds()[0]) / 1.0, 0.0, 1.0)
        assert _same_bits(normalizer.transform(table), expected)

    def test_single_row_table(self):
        table = Table({"x": [-0.0], "y": [3.25], "flag": [True], "count": [4]})
        self._check(table, table.column_names)
        self._check(table, ("x",))

    def test_mixed_dtypes_and_infinities(self):
        rng = np.random.default_rng(3)
        rows = 1001
        table = Table({
            "big_ints": rng.integers(-(2**62), 2**62, size=rows),
            "small_ints": rng.integers(0, 5, size=rows),
            "flag": rng.uniform(size=rows) < 0.1,
            "wide": rng.normal(0.0, 1e300, size=rows),
            "infinite": np.where(rng.uniform(size=rows) < 0.01, np.inf, rng.normal(size=rows)),
        })
        self._check(table, table.column_names)

    def test_nan_columns_match_axis0_reduction(self):
        # Which NaN (sign bit) the reduction returns depends on its loop shape.
        rng = np.random.default_rng(5)
        for rows in (1, 3, 4, 9, 17, 256, 600):
            values = rng.choice([np.nan, -np.nan, 1.0, -2.0], size=rows)
            table = Table({"nan": values, "rev": values[::-1].copy(), "flag": values > 0})
            self._check(table, ("nan", "rev", "flag"))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            AttributeNormalizer(["x"]).fit(Table({"x": np.zeros(0)}))


def _reference_scale(matrix: np.ndarray, normalizer: AttributeNormalizer) -> np.ndarray:
    low, high = normalizer.bounds()
    span = np.where(high > low, high - low, 1.0)
    return np.clip((matrix - low) / span, 0.0, 1.0)


class TestNormalization:
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 1000, 4097])
    def test_transform_equals_broadcast_formula(self, rows):
        rng = np.random.default_rng(rows)
        columns = {
            "flag": rng.uniform(size=rows) < 0.3,
            "eni": rng.uniform(size=rows),
            "income": rng.normal(50_000.0, 20_000.0, size=rows),
            "signed": rng.choice([0.0, -0.0, -2.0, 3.0], size=rows),
            "count": rng.integers(0, 9, size=rows),
        }
        train = Table(columns)
        names = train.column_names
        normalizer = AttributeNormalizer(names).fit(train)
        # A cohort outside the training range exercises the clip on both sides.
        other = Table({name: np.asarray(v, dtype=float) * 1.5 - 0.25 for name, v in columns.items()})
        for table in (train, other):
            matrix = _stacked(table, names)
            expected = _reference_scale(matrix, normalizer)
            assert _same_bits(normalizer.transform(table), expected)
            before = matrix.copy()
            assert _same_bits(normalizer.transform_matrix(matrix), expected)
            assert _same_bits(matrix, before), "transform_matrix mutated its input"

    def test_transform_matrix_accepts_non_contiguous_input(self):
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(700, 6))
        normalizer = AttributeNormalizer(["a", "b", "c"]).fit(
            Table({"a": matrix[:, 0], "b": matrix[:, 2], "c": matrix[:, 4]})
        )
        strided = matrix[:, ::2]
        fortran = np.asfortranarray(strided)
        for source in (strided, fortran):
            before = source.copy()
            assert _same_bits(
                normalizer.transform_matrix(source), _reference_scale(strided, normalizer)
            )
            assert _same_bits(source, before)

    def test_unfitted_normalizer_clips(self):
        matrix = np.array([[-1.0, 0.5], [2.0, -0.0], [0.25, 1.0]])
        normalizer = AttributeNormalizer(["a", "b"])
        before = matrix.copy()
        assert _same_bits(normalizer.transform_matrix(matrix), np.clip(before, 0.0, 1.0))
        assert _same_bits(matrix, before)
        table = Table({"a": matrix[:, 0], "b": matrix[:, 1]})
        assert _same_bits(normalizer.transform(table), np.clip(before, 0.0, 1.0))


class TestTableMatrix:
    def test_matrix_equals_stacked_float_columns(self):
        rng = np.random.default_rng(2)
        table = Table({
            "flag": rng.uniform(size=333) < 0.5,
            "count": rng.integers(-5, 5, size=333),
            "value": rng.normal(size=333),
        })
        names = ["value", "flag", "count", "flag"]
        assert _same_bits(table.matrix(names), _stacked(table, names))


@pytest.fixture(scope="module")
def cohort_200k() -> Table:
    return generate_school_cohort(
        "train", SchoolGeneratorConfig(num_students=200_000), seed=20162017
    ).table


class TestDefaultFitPins:
    def test_default_fit_reproduces_recorded_bits(self, cohort_200k):
        """``raw_bonus`` of one default fit, recorded before the precompute rewrite."""
        dca = DCA(
            SCHOOL_FAIRNESS_ATTRIBUTES, school_admission_rubric(), k=0.05, config=DCAConfig(seed=14)
        )
        result = dca.fit(cohort_200k)
        assert [float(v).hex() for v in result.raw_bonus.values] == [
            "0x1.7bef189edb9e3p+1",
            "0x1.28a7c8fb1d1c8p+4",
            "0x1.63cbf4ef2f177p+3",
            "0x1.4b1ee9bfef4e5p+4",
        ]
        assert [float(v).hex() for v in result.core_bonus.values] == [
            "0x1.22541ab32fe9cp+2",
            "0x1.751febe713babp+3",
            "0x1.1593b30ff2a03p+3",
            "0x1.11f0ebf7d1037p+4",
        ]
        assert result.bonus.values.tolist() == [3.0, 18.5, 11.0, 20.5]

    def test_one_attribute_matrix_build_per_fit(self, cohort_200k, monkeypatch):
        calls = []
        original = Table.matrix

        def counting(self, names):
            calls.append(tuple(names))
            return original(self, names)

        monkeypatch.setattr(Table, "matrix", counting)
        dca = DCA(
            SCHOOL_FAIRNESS_ATTRIBUTES, school_admission_rubric(), k=0.05, config=DCAConfig(seed=1)
        )
        dca.fit(cohort_200k)
        assert calls == [tuple(SCHOOL_FAIRNESS_ATTRIBUTES)]
