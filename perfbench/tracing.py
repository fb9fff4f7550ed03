"""Outside-in tracing for the benchmark: spans recorded around library calls.

Nothing inside ``src/`` is instrumented.  The benchmark wraps its own calls
into each layer's public functions in spans (name, start, end, parent) and
folds them into per-layer totals after every operation, so memory stays
bounded however long a traced run lasts.

``DCA.fit`` is a single call, so :func:`replay_fit` re-runs a fit step by
step through the public layer functions (``DCAConfig.rng``,
``SampleStream.draw_indices``, ``compensate_scores``,
``CompiledObjective.evaluate``, ``Adam.step``, ``BonusVector.clipped`` and
``rounded``).  The replay must reproduce ``DCA.fit``'s raw and published
bonus bitwise; :func:`same_bits` is the guard the traced run applies before
it publishes any per-layer number.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core import (
    Adam,
    BonusVector,
    DCAConfig,
    FairnessObjective,
    LogDiscountedDisparityObjective,
    SampleStream,
    compensate_scores,
)
from repro.ranking import ScoreFunction, selection_mask
from repro.tabular import Table


class Tracer:
    """In-memory span recorder with per-layer totals.

    ``begin``/``end`` are plain calls rather than a context manager to keep
    the cost per span near two ``perf_counter`` reads.  ``fold`` turns the
    spans of one operation into totals per span name: wall time, span count
    and self time (wall minus the time covered by child spans).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.totals: dict[str, list[float]] = {}

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def fold(self) -> None:
        """Add the recorded spans to ``totals`` and forget them."""
        if self._open:
            raise RuntimeError("fold() with open spans")
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _parent), covered in zip(self.spans, child_time):
            total = self.totals.setdefault(name, [0.0, 0, 0.0])
            total[0] += end - start
            total[1] += 1
            total[2] += end - start - covered
        self.spans.clear()

    def total(self, name: str) -> float:
        return self.totals.get(name, [0.0, 0, 0.0])[0]

    def count(self, name: str) -> int:
        return int(self.totals.get(name, [0.0, 0, 0.0])[1])

    def mean(self, name: str) -> float:
        """Mean wall time of one ``name`` span in seconds (0 when none ran)."""
        count = self.count(name)
        return self.total(name) / count if count else 0.0

    def mean_self(self, name: str) -> float:
        count = self.count(name)
        return self.totals[name][2] / count if count else 0.0


def _project(values: np.ndarray, config: DCAConfig) -> np.ndarray:
    """The feasible-box projection ``DCA.fit`` applies after every step."""
    values = np.maximum(values, config.min_bonus)
    if config.max_bonus is not None:
        values = np.minimum(values, config.max_bonus)
    return values


def replay_fit(
    table: Table,
    score_function: ScoreFunction,
    objective: FairnessObjective,
    k: float,
    config: DCAConfig,
    tracer: Tracer,
) -> tuple[np.ndarray, BonusVector]:
    """``DCA.fit`` replayed step by step with a span around every layer call.

    Returns ``(raw bonus values, published bonus)``.  ``objective`` is
    fitted in place, as ``DCA.fit`` does.  The per-step spans are children
    of one ``core.dca.step`` span, so that span's self time is the loop's own
    bookkeeping; ``ranking.select`` is an extra ``selection_mask`` call on
    the step's scores, timed so the evaluate span can be split into top-k
    selection and reductions.
    """
    if config.sample_size is None:
        raise ValueError("the replay mirrors fits with a fixed sample_size only")
    if config.rng_batching != "per_step" or config.stratified_sampling:
        raise ValueError("the replay mirrors the default per-step uniform sampling only")
    evaluate_name = (
        "core.objectives.evaluate.logdisc"
        if isinstance(objective, LogDiscountedDisparityObjective)
        else "core.objectives.evaluate"
    )
    attribute_names = tuple(objective.attribute_names)
    fit_span = tracer.begin("core.dca.fit")

    span = tracer.begin("core.objectives.fit")
    objective.fit(table)
    tracer.end(span)
    config.validate()
    rng = config.rng()
    span = tracer.begin("ranking.scores")
    base_scores = np.asarray(score_function.scores(table), dtype=float)
    tracer.end(span)
    span = tracer.begin("tabular.matrix")
    attribute_matrix = table.matrix(list(attribute_names))
    tracer.end(span)
    span = tracer.begin("core.objectives.compile")
    compiled = objective.compile(table)
    tracer.end(span)
    stream = SampleStream(table, int(min(config.sample_size, table.num_rows)), rng=rng)

    def step_signal(bonus: np.ndarray) -> np.ndarray:
        span = tracer.begin("core.sampling.draw")
        indices = stream.draw_indices()
        tracer.end(span)
        span = tracer.begin("core.bonus.gather")
        base = base_scores[indices]
        rows = attribute_matrix[indices]
        tracer.end(span)
        span = tracer.begin("core.bonus.compensate")
        scores = compensate_scores(rows, base, bonus)
        tracer.end(span)
        span = tracer.begin(evaluate_name)
        signal = np.asarray(compiled.evaluate(indices, scores, k), dtype=float)
        tracer.end(span)
        span = tracer.begin("ranking.select")
        selection_mask(scores, k)
        tracer.end(span)
        return signal

    width = len(attribute_names)

    def phase(bonus: np.ndarray, steps: int, update) -> tuple[np.ndarray, np.ndarray]:
        """``steps`` sampled steps from ``bonus``; returns the last iterate and all of them."""
        history = np.zeros((steps, width))
        norms = np.zeros(steps)
        for step in range(steps):
            step_span = tracer.begin("core.dca.step")
            signal = step_signal(bonus)
            span = tracer.begin("core.adam.update")
            bonus = _project(update(bonus, signal), config)
            tracer.end(span)
            history[step] = bonus
            norms[step] = np.sqrt(signal @ signal)
            tracer.end(step_span)
        return bonus, history

    bonus = _project(rng.uniform(0.0, config.initial_bonus_scale, size=width), config)
    for learning_rate in config.learning_rates:
        bonus, _ = phase(bonus, config.iterations, lambda b, s, lr=learning_rate: b - lr * s)
    raw_values = bonus
    if config.refinement_iterations > 0:
        adam = Adam(learning_rate=config.refinement_learning_rate)
        _, history = phase(
            _project(np.asarray(bonus, dtype=float), config), config.refinement_iterations, adam.step
        )
        window = min(config.averaging_window, config.refinement_iterations)
        raw_values = _project(history[-window:].mean(axis=0), config)

    raw = BonusVector(attribute_names=attribute_names, values=raw_values)
    published = raw.clipped(config.min_bonus, config.max_bonus)
    if config.granularity > 0:
        published = published.rounded(config.granularity).clipped(
            config.min_bonus, config.max_bonus
        )
    tracer.end(fit_span)
    return raw.values, published


def same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    """Bitwise equality of two float arrays (distinguishes -0.0 and NaN payloads)."""
    left = np.ascontiguousarray(left, dtype=float)
    right = np.ascontiguousarray(right, dtype=float)
    return left.shape == right.shape and left.tobytes() == right.tobytes()
