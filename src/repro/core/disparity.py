"""The Disparity metric (Definition 3) and its logarithmically discounted variant.

Disparity is the vector difference between the centroid of the *selected*
objects and the centroid of *all* objects over the fairness attributes::

    D ≡ D_k − D_O

Each component lies in [-1, 1] once attributes are normalized to [0, 1]:
negative means the group is under-represented among the selected objects,
positive means over-represented, zero means statistical parity.  The overall
disparity of a selection is summarized by the L2 norm of the vector.

Two evaluation modes are provided:

* :class:`DisparityCalculator` — disparity at one known selection fraction
  ``k`` (the Section III-D definition);
* :class:`LogDiscountedDisparity` — a weighted average of disparities across
  a grid of selection fractions with logarithmic discounting
  (Section IV-E), used when ``k`` is unknown or when an entire ranking
  matters.  The weight of the disparity at the ``i``-th percent is
  ``1 / log2(i + 1)``, normalized by the maximum possible value ``Z``.

Both modes also have an **array-plane** entry point used by the DCA hot loop:
:meth:`DisparityCalculator.normalized_matrix` materializes the normalized
attribute matrix of a population once (from the 1-D columns, without
building the raw attribute matrix), and
:meth:`DisparityCalculator.disparity_from_matrix` evaluates a selection
directly on a row subset of it — no :class:`~repro.tabular.Table` slicing per
step.  Because normalization is elementwise, indexing rows out of the
pre-normalized matrix is bitwise identical to normalizing each sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ranking import selection_mask
from ..tabular import Table

__all__ = [
    "AttributeNormalizer",
    "DisparityResult",
    "DisparityCalculator",
    "LogDiscountedDisparity",
    "default_k_grid",
    "disparity_vector",
    "disparity_norm",
]


#: Rows per tile in :func:`_min_max_scale`: the first ``rows - rows % 256``
#: rows of a C-order ``(rows, attributes)`` matrix are viewed as
#: ``(rows // 256, attributes * 256)`` rows against bounds tiled 256 times, so
#: every ufunc call runs over long contiguous rows instead of one
#: ``attributes``-wide row per call (the reason a broadcast
#: ``(matrix - low) / span`` over a 1M x 4 matrix costs ~30 ms).
_TILE_ROWS = 256


def _column_bounds(table: Table, attribute_names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ``(min, max)`` of the named columns, from the 1-D columns.

    Bitwise equal to ``table.matrix(names).min(axis=0)`` / ``.max(axis=0)``,
    at a fraction of the cost: an axis-0 reduction over a C-order
    ``(rows, attributes)`` matrix runs one ``attributes``-wide inner loop
    per row, while a 1-D reduction runs one long loop (and a boolean column
    stops at its first ``False``/``True``).  Reducing the raw column values
    and converting the result to float gives the same number as converting
    first, because the int-to-float conversion is monotone.

    Two inputs make the axis-0 reduction's bits depend on its memory order:
    a NaN (which NaN propagates) and a zero bound in a float column holding
    ``-0.0`` (``min`` of ``0.0`` and ``-0.0`` may return either).  Those
    fall back to the axis-0 reduction itself, so the bounds never differ.
    """
    columns = [table.column(name).values for name in attribute_names]
    low = np.array([values.min() for values in columns], dtype=float)
    high = np.array([values.max() for values in columns], dtype=float)
    signed_zero = any(
        values.dtype.kind == "f"
        and (lo == 0.0 or hi == 0.0)
        and bool(np.signbit(values[values == 0.0]).any())
        for values, lo, hi in zip(columns, low, high)
    )
    if signed_zero or np.isnan(low).any() or np.isnan(high).any():
        matrix = table.matrix(list(attribute_names))
        return matrix.min(axis=0), matrix.max(axis=0)
    return low, high


def _min_max_scale(source: np.ndarray, low: np.ndarray, span: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = np.clip((source - low) / span, 0, 1)``, with no temporaries.

    ``source`` may be ``out`` itself.  Each element goes through the same
    subtract, divide and clip as the broadcast expression, so the result is
    bitwise identical; only the loop shape differs (see ``_TILE_ROWS``).
    """
    parts = [(source, out, low, span)]
    if source.ndim == 2 and source.flags.c_contiguous and out.flags.c_contiguous:
        rows, width = source.shape
        full = rows - rows % _TILE_ROWS
        parts = [
            (
                source[:full].reshape(-1, width * _TILE_ROWS),
                out[:full].reshape(-1, width * _TILE_ROWS),
                np.tile(low, _TILE_ROWS),
                np.tile(span, _TILE_ROWS),
            ),
            (source[full:], out[full:], low, span),
        ]
    for src, dst, lo, sp in parts:
        np.subtract(src, lo, out=dst)
        np.divide(dst, sp, out=dst)
        np.clip(dst, 0.0, 1.0, out=dst)
    return out


class AttributeNormalizer:
    """Min-max normalization bounds for fairness attributes.

    Binary attributes are already in [0, 1]; continuous attributes (income,
    ENI, …) are normalized "based on the range of values" (Section III-D).
    The bounds are learned once from a reference population so that samples
    and future cohorts are normalized consistently.

    Every population-sized step runs once per column or once per matrix:
    :meth:`fit` reduces each 1-D column (no attribute matrix is built), and
    :meth:`transform` fills one ``(rows, attributes)`` output from the
    columns and scales it in place.
    """

    def __init__(self, attribute_names: Sequence[str]) -> None:
        if not attribute_names:
            raise ValueError("at least one fairness attribute is required")
        self.attribute_names = tuple(attribute_names)
        self._low: np.ndarray | None = None
        self._high: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._low is not None

    def fit(self, table: Table) -> "AttributeNormalizer":
        """Learn per-attribute ``(min, max)`` bounds from ``table``'s columns."""
        self._low, self._high = _column_bounds(table, self.attribute_names)
        return self

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self._low is None or self._high is None:
            raise RuntimeError("normalizer has not been fitted")
        return self._low.copy(), self._high.copy()

    def transform(self, table: Table) -> np.ndarray:
        """Return the normalized fairness-attribute matrix of ``table``.

        Equal to ``transform_matrix(table.matrix(names))`` bit for bit, but
        the raw matrix is never built: the columns are written straight into
        the output, which is then scaled in place.
        """
        out = np.empty((table.num_rows, len(self.attribute_names)), dtype=float)
        for j, name in enumerate(self.attribute_names):
            out[:, j] = table.column(name).values
        return self._scale(out, out)

    def transform_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Normalize a raw ``(rows, attributes)`` matrix in this normalizer's order.

        This is the array-plane twin of :meth:`transform`: the result is a
        new array and ``matrix`` is left untouched.  Normalization is
        elementwise, so indexing rows out of a normalized population matrix
        is bitwise identical to normalizing each sample separately.
        """
        matrix = np.asarray(matrix, dtype=float)
        return self._scale(matrix, np.empty(matrix.shape, dtype=float))

    def _scale(self, source: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self._low is None or self._high is None:
            # Unfitted: assume attributes are already in [0, 1] (the common
            # case of binary attributes) and clip defensively.
            return np.clip(source, 0.0, 1.0, out=out)
        span = np.where(self._high > self._low, self._high - self._low, 1.0)
        return _min_max_scale(source, self._low, span, out)


@dataclass(frozen=True)
class DisparityResult:
    """A disparity vector with its attribute names and norm."""

    attribute_names: tuple[str, ...]
    vector: np.ndarray

    def __post_init__(self) -> None:
        vector = np.asarray(self.vector, dtype=float)
        if vector.shape != (len(self.attribute_names),):
            raise ValueError(
                f"vector has shape {vector.shape}, expected ({len(self.attribute_names)},)"
            )
        object.__setattr__(self, "vector", vector)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def as_dict(self, include_norm: bool = True) -> dict[str, float]:
        result = {name: float(v) for name, v in zip(self.attribute_names, self.vector)}
        if include_norm:
            result["norm"] = self.norm
        return result

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.vector[self.attribute_names.index(name)])
        except ValueError:
            raise KeyError(
                f"unknown attribute {name!r}; attributes: {list(self.attribute_names)}"
            ) from None

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}: {v:+.3f}" for k, v in self.as_dict(include_norm=False).items())
        return f"DisparityResult({{{pairs}}}, norm={self.norm:.3f})"


class DisparityCalculator:
    """Compute the disparity vector of a top-k selection.

    Parameters
    ----------
    attribute_names:
        Fairness attributes, in reporting order.
    normalizer:
        Optional pre-fitted :class:`AttributeNormalizer`; if omitted, one is
        fitted lazily on the first table seen (adequate when the attributes
        are binary or already scaled to [0, 1]).
    """

    def __init__(
        self,
        attribute_names: Sequence[str],
        normalizer: AttributeNormalizer | None = None,
    ) -> None:
        self.attribute_names = tuple(attribute_names)
        if not self.attribute_names:
            raise ValueError("at least one fairness attribute is required")
        self._normalizer = normalizer or AttributeNormalizer(self.attribute_names)

    @property
    def normalizer(self) -> AttributeNormalizer:
        return self._normalizer

    def fit(self, table: Table) -> "DisparityCalculator":
        """Fit normalization bounds on a reference population."""
        self._normalizer.fit(table)
        return self

    # ------------------------------------------------------------------
    def normalized_matrix(self, table: Table) -> np.ndarray:
        """The normalized fairness-attribute matrix of ``table``.

        Exposed for the array-plane DCA engine, which precomputes this once
        per fit and evaluates samples by row indexing into it.
        """
        return self._normalizer.transform(table)

    def disparity_from_matrix(
        self, matrix: np.ndarray, scores: np.ndarray, k: float
    ) -> DisparityResult:
        """Disparity of a top-``k`` selection given an already-normalized matrix.

        ``matrix`` must be ``(rows, attributes)`` in this calculator's
        attribute order, normalized the way :meth:`normalized_matrix`
        produces it (e.g. a row subset of that matrix).
        """
        matrix = np.asarray(matrix, dtype=float)
        scores = np.asarray(scores, dtype=float)
        if matrix.shape != (scores.shape[0], len(self.attribute_names)):
            raise ValueError(
                f"matrix has shape {matrix.shape}, expected "
                f"({scores.shape[0]}, {len(self.attribute_names)})"
            )
        if matrix.shape[0] == 0:
            raise ValueError("cannot compute disparity over an empty matrix")
        mask = selection_mask(scores, k)
        return DisparityResult(
            self.attribute_names, matrix[mask].mean(axis=0) - matrix.mean(axis=0)
        )

    def disparity(self, table: Table, scores: np.ndarray, k: float) -> DisparityResult:
        """Disparity of selecting the top ``k`` fraction of ``table`` by ``scores``."""
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (table.num_rows,):
            raise ValueError(
                f"scores have shape {scores.shape}, expected ({table.num_rows},)"
            )
        if table.num_rows == 0:
            raise ValueError("cannot compute disparity over an empty table")
        return self.disparity_from_matrix(self.normalized_matrix(table), scores, k)

    def disparity_from_mask(self, table: Table, selected: np.ndarray) -> DisparityResult:
        """Disparity of an arbitrary selected/unselected partition.

        Used to evaluate baselines (quotas, FA*IR re-rankings) whose selection
        is not induced by a score threshold.
        """
        selected = np.asarray(selected, dtype=bool)
        if selected.shape != (table.num_rows,):
            raise ValueError(
                f"mask has shape {selected.shape}, expected ({table.num_rows},)"
            )
        if not selected.any():
            raise ValueError("the selected set is empty")
        matrix = self.normalized_matrix(table)
        return DisparityResult(
            self.attribute_names, matrix[selected].mean(axis=0) - matrix.mean(axis=0)
        )

    def disparity_curve(
        self, table: Table, scores: np.ndarray, k_values: Sequence[float]
    ) -> dict[float, DisparityResult]:
        """Disparity at each selection fraction in ``k_values`` (Figure 4-style sweeps)."""
        return {float(k): self.disparity(table, scores, float(k)) for k in k_values}


def default_k_grid(max_k: float = 0.5, step: float = 0.05) -> tuple[float, ...]:
    """The selection-fraction grid used by the log-discounted objective.

    The paper discounts "at every point in the sample" conceptually but
    evaluates at percentage steps (i ∈ 10, 20, 30 …); a 5-percentage-point
    grid up to ``max_k`` keeps the evaluation cheap while covering the range
    reported in the figures.
    """
    if not 0.0 < max_k <= 1.0:
        raise ValueError(f"max_k must be in (0, 1], got {max_k}")
    if not 0.0 < step <= max_k:
        raise ValueError(f"step must be in (0, max_k], got {step}")
    count = int(round(max_k / step))
    return tuple(round(step * (i + 1), 10) for i in range(count))


class LogDiscountedDisparity:
    """Logarithmically discounted disparity over a grid of selection fractions.

    The discounted disparity is::

        (1 / Z) * Σ_{k in grid}  D_k / log2(100·k + 1)

    where ``Z = Σ 1 / log2(100·k + 1)`` normalizes the weights so the result
    stays in [-1, 1] per dimension.  Earlier (smaller-k) selections receive
    more weight, mirroring the intuition that the top of the ranking matters
    most when the eventual cut-off is unknown.
    """

    def __init__(
        self,
        calculator: DisparityCalculator,
        k_grid: Sequence[float] | None = None,
    ) -> None:
        self.calculator = calculator
        grid = tuple(float(k) for k in (k_grid if k_grid is not None else default_k_grid()))
        if not grid:
            raise ValueError("the k grid must contain at least one selection fraction")
        for k in grid:
            if not 0.0 < k <= 1.0:
                raise ValueError(f"selection fractions must be in (0, 1], got {k}")
        self.k_grid = grid
        weights = np.asarray([1.0 / np.log2(100.0 * k + 1.0) for k in grid], dtype=float)
        self._weights = weights / weights.sum()

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.calculator.attribute_names

    @property
    def weights(self) -> np.ndarray:
        """Normalized per-k weights (sum to 1)."""
        return self._weights.copy()

    def disparity(self, table: Table, scores: np.ndarray, k: float | None = None) -> DisparityResult:
        """Discounted disparity; ``k``, if given, caps the grid at that fraction."""
        grid = self.k_grid if k is None else tuple(g for g in self.k_grid if g <= k + 1e-12)
        if not grid:
            grid = (self.k_grid[0],)
        weights = np.asarray([1.0 / np.log2(100.0 * g + 1.0) for g in grid], dtype=float)
        weights = weights / weights.sum()
        total = np.zeros(len(self.attribute_names), dtype=float)
        for weight, fraction in zip(weights, grid):
            total += weight * self.calculator.disparity(table, scores, fraction).vector
        return DisparityResult(self.attribute_names, total)


# ----------------------------------------------------------------------
# Functional conveniences used by examples and tests.
# ----------------------------------------------------------------------
def disparity_vector(
    table: Table,
    scores: np.ndarray,
    attribute_names: Sequence[str],
    k: float,
    normalize_on: Table | None = None,
) -> DisparityResult:
    """One-shot disparity computation without building a calculator by hand."""
    calculator = DisparityCalculator(attribute_names)
    calculator.fit(normalize_on if normalize_on is not None else table)
    return calculator.disparity(table, scores, k)


def disparity_norm(
    table: Table,
    scores: np.ndarray,
    attribute_names: Sequence[str],
    k: float,
) -> float:
    """The L2 norm of the disparity vector (the paper's "Norm" column)."""
    return disparity_vector(table, scores, attribute_names, k).norm
