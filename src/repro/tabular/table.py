"""A small columnar table built on numpy.

:class:`Table` provides the slice of pandas-like behaviour that the paper's
algorithms need: named column access, boolean filtering, sorting by a column
or by an external score array, uniform random sampling, row subsetting, and
summary statistics.  It deliberately stays far smaller than pandas — the goal
is a predictable, easily-audited substrate for the fairness experiments, not
a general data-analysis tool.

Tables are immutable: every operation returns a new table that shares the
underlying (read-only) column arrays where possible.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .column import (
    CategoricalColumn,
    Column,
    column_from_values,
)
from .errors import (
    ColumnLengthError,
    DuplicateColumnError,
    EmptySelectionError,
    MissingColumnError,
    SchemaMismatchError,
)

__all__ = ["Table"]


class Table:
    """An immutable, ordered collection of named columns of equal length.

    Parameters
    ----------
    columns:
        Mapping from column name to column data (any array-like, or an
        existing :class:`~repro.tabular.column.Column`).

    Examples
    --------
    >>> table = Table({"score": [3.0, 1.0, 2.0], "low_income": [1, 0, 1]})
    >>> table.num_rows
    3
    >>> table.sort_by("score", descending=True).column("score").to_list()
    [3.0, 2.0, 1.0]
    """

    def __init__(self, columns: Mapping[str, Iterable] | None = None) -> None:
        self._columns: dict[str, Column] = {}
        length: int | None = None
        for name, values in (columns or {}).items():
            if name in self._columns:
                raise DuplicateColumnError(f"duplicate column name {name!r}")
            column = column_from_values(values, name=name)
            column.name = name
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ColumnLengthError(
                    f"column {name!r} has length {len(column)}, expected {length}"
                )
            self._columns[name] = column
        self._length = length or 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, columns: Mapping[str, Column]) -> "Table":
        """Build a table directly from already-constructed columns."""
        table = cls()
        length: int | None = None
        for name, column in columns.items():
            if not isinstance(column, Column):
                column = column_from_values(column, name=name)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ColumnLengthError(
                    f"column {name!r} has length {len(column)}, expected {length}"
                )
            column.name = name
            table._columns[name] = column
        table._length = length or 0
        return table

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, object]]) -> "Table":
        """Build a table from a sequence of row dictionaries.

        All rows must contain the same keys.
        """
        if not rows:
            return cls()
        keys = list(rows[0].keys())
        for i, row in enumerate(rows):
            if list(row.keys()) != keys:
                raise SchemaMismatchError(
                    f"row {i} has keys {list(row.keys())}, expected {keys}"
                )
        return cls({key: [row[key] for row in rows] for key in keys})

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns.keys())

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        return all(self._columns[name] == other._columns[name] for name in self._columns)

    def __repr__(self) -> str:
        return f"Table(rows={self.num_rows}, columns={list(self.column_names)})"

    # ------------------------------------------------------------------
    # column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Return the column named ``name``.

        Raises
        ------
        MissingColumnError
            If the column does not exist.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise MissingColumnError(name, self.column_names) from None

    def numeric(self, name: str) -> np.ndarray:
        """Return the column named ``name`` as a float array."""
        return self.column(name).to_numeric()

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Return the given columns stacked into an ``(n_rows, n_cols)`` float matrix.

        Each column is converted while it is written into the output, so no
        per-column float copy is made on the way.
        """
        columns = [self.column(name).values for name in names]
        matrix = np.empty((self.num_rows, len(columns)), dtype=float)
        for j, values in enumerate(columns):
            matrix[:, j] = values
        return matrix

    def row(self, index: int) -> dict[str, object]:
        """Return row ``index`` as a plain dict (categoricals give labels)."""
        if index < -self._length or index >= self._length:
            raise IndexError(f"row index {index} out of range for {self._length} rows")
        out: dict[str, object] = {}
        for name, column in self._columns.items():
            if isinstance(column, CategoricalColumn):
                out[name] = column.labels[index]
            else:
                out[name] = column.values[index].item()
        return out

    def rows(self) -> Iterator[dict[str, object]]:
        """Iterate over the table as row dictionaries (slow; for tests and IO)."""
        for i in range(self._length):
            yield self.row(i)

    # ------------------------------------------------------------------
    # derived tables
    # ------------------------------------------------------------------
    def _wrap(self, columns: dict[str, Column], length: int) -> "Table":
        table = Table.__new__(Table)
        table._columns = columns
        table._length = length
        return table

    def with_column(self, name: str, values: Iterable) -> "Table":
        """Return a new table with ``name`` added (or replaced)."""
        column = column_from_values(values, name=name)
        column.name = name
        if self._columns and len(column) != self._length:
            raise ColumnLengthError(
                f"new column {name!r} has length {len(column)}, expected {self._length}"
            )
        columns = dict(self._columns)
        columns[name] = column
        return self._wrap(columns, len(column))

    def without_columns(self, names: Sequence[str]) -> "Table":
        """Return a new table with the given columns removed."""
        missing = [name for name in names if name not in self._columns]
        if missing:
            raise MissingColumnError(missing[0], self.column_names)
        columns = {k: v for k, v in self._columns.items() if k not in set(names)}
        return self._wrap(columns, self._length)

    def select(self, names: Sequence[str]) -> "Table":
        """Return a new table containing only the given columns, in order."""
        columns = {name: self.column(name) for name in names}
        return self._wrap(columns, self._length)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a new table with columns renamed according to ``mapping``."""
        columns: dict[str, Column] = {}
        for name, column in self._columns.items():
            new_name = mapping.get(name, name)
            if new_name in columns:
                raise DuplicateColumnError(f"rename produces duplicate column {new_name!r}")
            renamed = column._with_values(column.values)
            renamed.name = new_name
            columns[new_name] = renamed
        return self._wrap(columns, self._length)

    def take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """Return a new table with rows at ``indices`` (in that order)."""
        index_array = np.asarray(indices, dtype=np.int64)
        columns = {name: column.take(index_array) for name, column in self._columns.items()}
        return self._wrap(columns, int(index_array.shape[0]))

    def filter(self, mask: np.ndarray | Callable[["Table"], np.ndarray]) -> "Table":
        """Return rows where ``mask`` is True.

        ``mask`` may be a boolean array of length ``num_rows`` or a callable
        receiving the table and returning such an array.
        """
        if callable(mask):
            mask = mask(self)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._length,):
            raise ColumnLengthError(
                f"filter mask has shape {mask.shape}, expected ({self._length},)"
            )
        columns = {name: column.mask(mask) for name, column in self._columns.items()}
        return self._wrap(columns, int(mask.sum()))

    def head(self, n: int) -> "Table":
        """Return the first ``n`` rows."""
        n = max(0, min(n, self._length))
        return self.take(np.arange(n))

    def sort_by(
        self,
        key: str | np.ndarray,
        descending: bool = False,
        tie_breaker: np.ndarray | None = None,
    ) -> "Table":
        """Return the table sorted by a column name or an external key array.

        Sorting is stable.  When ``tie_breaker`` is given, rows with equal
        primary keys are ordered by it (ascending), which the ranking layer
        uses to make top-k selection deterministic.
        """
        if isinstance(key, str):
            primary = self.numeric(key)
        else:
            primary = np.asarray(key, dtype=float)
            if primary.shape != (self._length,):
                raise ColumnLengthError(
                    f"sort key has shape {primary.shape}, expected ({self._length},)"
                )
        if descending:
            primary = -primary
        if tie_breaker is None:
            order = np.argsort(primary, kind="stable")
        else:
            tie = np.asarray(tie_breaker, dtype=float)
            order = np.lexsort((tie, primary))
        return self.take(order)

    def sample(
        self,
        size: int,
        rng: np.random.Generator | None = None,
        replace: bool = False,
    ) -> "Table":
        """Return ``size`` rows drawn uniformly at random.

        DCA draws its per-step samples through this method.  When ``size``
        exceeds the number of rows and ``replace`` is False, the whole table
        is returned (a common situation for very small selection rates on
        small datasets).
        """
        if self._length == 0:
            raise EmptySelectionError("cannot sample from an empty table")
        rng = rng or np.random.default_rng()
        if not replace and size >= self._length:
            return self
        indices = rng.choice(self._length, size=size, replace=replace)
        return self.take(indices)

    def shuffle(self, rng: np.random.Generator | None = None) -> "Table":
        """Return the table with rows in a uniformly random order."""
        rng = rng or np.random.default_rng()
        return self.take(rng.permutation(self._length))

    def split(self, fraction: float, rng: np.random.Generator | None = None) -> tuple["Table", "Table"]:
        """Randomly split into two tables of sizes ``fraction`` and ``1 - fraction``."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        rng = rng or np.random.default_rng()
        permutation = rng.permutation(self._length)
        cut = int(round(fraction * self._length))
        return self.take(permutation[:cut]), self.take(permutation[cut:])

    def concat(self, other: "Table") -> "Table":
        """Stack two tables with identical column names vertically."""
        if self.num_rows == 0:
            return other
        if other.num_rows == 0:
            return self
        if set(self.column_names) != set(other.column_names):
            raise SchemaMismatchError(
                f"cannot concat tables with columns {self.column_names} and {other.column_names}"
            )
        columns = {
            name: column.concat(other.column(name)) for name, column in self._columns.items()
        }
        return self._wrap(columns, self._length + other.num_rows)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def means(self, names: Sequence[str] | None = None) -> dict[str, float]:
        """Column means (the centroid used by the disparity metric)."""
        names = list(names) if names is not None else list(self.column_names)
        return {name: self.column(name).mean() for name in names}

    def centroid(self, names: Sequence[str]) -> np.ndarray:
        """Return the mean of each named column as a vector (order preserved)."""
        if self._length == 0:
            raise EmptySelectionError("centroid of an empty table is undefined")
        return np.asarray([self.column(name).mean() for name in names], dtype=float)

    def group_rates(self, names: Sequence[str]) -> dict[str, float]:
        """Prevalence of each binary fairness attribute (mean of the column)."""
        return {name: float(np.mean(self.numeric(name))) for name in names}

    def describe(self) -> dict[str, dict[str, float]]:
        """Simple numeric summary for every non-categorical column."""
        summary: dict[str, dict[str, float]] = {}
        for name, column in self._columns.items():
            if isinstance(column, CategoricalColumn):
                continue
            summary[name] = {
                "mean": column.mean(),
                "std": column.std(),
                "min": column.min(),
                "max": column.max(),
            }
        return summary

    def to_dict(self) -> dict[str, list]:
        """Plain-python dict of lists (categoricals give labels)."""
        out: dict[str, list] = {}
        for name, column in self._columns.items():
            if isinstance(column, CategoricalColumn):
                out[name] = column.labels.tolist()
            else:
                out[name] = column.to_list()
        return out
