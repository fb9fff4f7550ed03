"""The benchmark's four workloads, each a closed loop with a single caller.

Every workload builds its inputs in ``setup`` (from the workload seed where
it varies them), runs one operation per ``op`` call, and checks each output
in ``check``.  The
traced variant of an operation (``traced_op``) records spans around the
calls into each layer; ``Tracer.fold`` runs after it.  Only public API the
library keeps is called, with library defaults everywhere else: no row
sharding, no thread executor, no engine or RNG-batching knobs.

=================  ===========================================================
``fit_default``    one ``DCA.fit`` at paper defaults on a 20k-row cohort
``fit_1m``         the same fit loop on a 1M-row cohort (precompute ~ half)
``sweep_grid``     one 32-fit ``fit_many(executor="process")`` grid
``district_match`` publish a fixed bonus onto a 200k x 100 score plane, then
                   ``deferred_acceptance`` with its default engine
=================  ===========================================================
"""

from __future__ import annotations

import itertools
import os
from time import perf_counter

import numpy as np

from repro.core import (
    DCA,
    DCAConfig,
    DisparityCalculator,
    DisparityObjective,
    LogDiscountedDisparityObjective,
    compensate_scores,
)
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_cohort,
    school_admission_rubric,
)
from repro.matching import deferred_acceptance, generate_student_preferences

from tracing import Tracer, replay_fit, same_bits

ATTRIBUTES = SCHOOL_FAIRNESS_ATTRIBUTES
#: Selection fractions the fit workloads cycle through, one per operation.
FIT_KS = (0.05, 0.1, 0.2, 0.3)
#: The sweep grid: ks x seeds x objectives = 32 fits.
GRID_KS = (0.05, 0.1, 0.2, 0.5)
GRID_SEEDS = 4
#: Held-out cohort on which ``disparity_after`` is measured (all fit workloads).
TEST_ROWS = 200_000
#: The fit workloads' cohorts are fixed, like the paper's two school years
#: (the seeds ``generate_school_dataset`` uses); the workload seed drives the
#: fits.  Cohort-to-cohort sampling noise would otherwise move
#: ``disparity_after`` by ~30% between workload seeds.
TRAIN_SEED, TEST_SEED = 20162017, 20172018
#: A published-style bonus vector on the 0.5 grid, in ATTRIBUTES order.
DISTRICT_BONUS = np.array([3.0, 6.5, 4.0, 8.5])


def _seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _cohort(year: str, rows: int, seed: int, tracer: Tracer | None):
    span = tracer.begin("datasets.cohort") if tracer else -1
    table = generate_school_cohort(
        year, SchoolGeneratorConfig(num_students=rows), seed=seed
    ).table
    if tracer:
        tracer.end(span)
    return table


def published_ok(values: np.ndarray, config: DCAConfig) -> bool:
    """A published bonus is finite, at least ``min_bonus`` and on the granularity grid."""
    values = np.asarray(values, dtype=float)
    steps = values / config.granularity
    return bool(
        values.shape == (len(ATTRIBUTES),)
        and np.all(np.isfinite(values))
        and np.all(values >= config.min_bonus)
        and np.all(steps == np.round(steps))
    )


class HeldOut:
    """Definition-3 disparity of published bonuses on a held-out cohort."""

    def __init__(self, table) -> None:
        calculator = DisparityCalculator(ATTRIBUTES).fit(table)
        self._calculator = calculator
        self._normalized = calculator.normalized_matrix(table)
        self._matrix = table.matrix(list(ATTRIBUTES))
        self._base = np.asarray(school_admission_rubric().scores(table), dtype=float)

    def norm(self, bonus_values: np.ndarray, k: float) -> float:
        scores = compensate_scores(self._matrix, self._base, bonus_values)
        return self._calculator.disparity_from_matrix(self._normalized, scores, k).norm


class FitWorkload:
    """``fit_default`` / ``fit_1m``: one ``DCA.fit`` per operation.

    Operation ``i`` fits at ``FIT_KS[i % 4]`` with its own seed.  Published
    bonuses of the first ``quality_ops`` operations are kept for
    ``disparity_after``, and every run makes at least that many.  Operations
    are timed against the ``op_kernels`` of ``SpeedProbe`` in ``run.py``.
    """

    op_span = "core.dca.fit"
    #: The first one or two set-ups in a process page in fresh memory for the
    #: cohorts and run up to 2x slower; the median of five is a warm one.
    setup_repeats = 5

    def __init__(self, name: str, train_rows: int, quality_ops: int, op_kernels: str) -> None:
        self.name = name
        self.train_rows = train_rows
        self.quality_ops = self.min_ops = quality_ops
        self.op_kernels = op_kernels
        self.rubric = school_admission_rubric()
        self.train = None
        self.test = None
        self.published: dict[int, tuple[float, np.ndarray]] = {}

    def context(self) -> dict:
        config = DCAConfig()
        return {
            "train_rows": self.train_rows,
            "test_rows": TEST_ROWS,
            "ks": list(FIT_KS),
            "sample_size": config.sample_size,
            "steps_per_fit": len(config.learning_rates) * config.iterations
            + config.refinement_iterations,
        }

    def release(self) -> None:
        self.train = self.test = None
        self.published = {}

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        (self.fit_seed,) = _seeds(seed, 1)
        self.train = _cohort("train", self.train_rows, TRAIN_SEED, tracer)
        self.test = _cohort("test", TEST_ROWS, TEST_SEED, tracer)

    def prepare(self) -> None:
        """Nothing to precompute: fit outputs are checked on their own."""

    def spec(self, index: int) -> tuple[float, DCAConfig]:
        k = FIT_KS[index % len(FIT_KS)]
        return k, DCAConfig(seed=(self.fit_seed + index) % 2**32)

    def op(self, index: int):
        k, config = self.spec(index)
        return DCA(ATTRIBUTES, self.rubric, k, config=config).fit(self.train)

    def check(self, index: int, result) -> bool:
        k, config = self.spec(index)
        ok = published_ok(result.bonus.values, config)
        if ok and index < self.quality_ops:
            self.published[index] = (k, result.bonus.values)
        return ok

    def disparity_after(self) -> float:
        held_out = HeldOut(self.test)
        return float(np.mean([held_out.norm(v, k) for k, v in self.published.values()]))

    def traced_op(self, index: int, result, tracer: Tracer) -> bool:
        """Replay operation ``index`` with spans; True when it matches ``result`` bitwise."""
        k, config = self.spec(index)
        raw, published = replay_fit(
            self.train, self.rubric, DisparityObjective(ATTRIBUTES), k, config, tracer
        )
        return same_bits(raw, result.raw_bonus.values) and same_bits(
            published.values, result.bonus.values
        )


class SweepWorkload:
    """``sweep_grid``: one ``fit_many(executor="process")`` grid per operation.

    Every operation fits the same 32 specs, so each is compared bitwise with
    one serial ``fit_many`` of the grid made before the loop.
    """

    name = "sweep_grid"
    min_ops = 3
    op_span = "core.parallel.grid"
    #: Over ten seeds the grid's op_s.p50 spread by 14% scaled by the step
    #: kernel alone and by 6-8% scaled by both kernels.
    op_kernels = "step+stream"
    setup_repeats = 5

    train_rows = 20_000

    def __init__(self) -> None:
        self.rubric = school_admission_rubric()
        self.workers = len(os.sched_getaffinity(0))
        self.train = None
        self.test = None
        self.reference = None
        self.serial_grid_s = 0.0
        self.job_seconds: list[float] = []

    def context(self) -> dict:
        return {
            "train_rows": self.train_rows,
            "test_rows": TEST_ROWS,
            "grid": {
                "ks": list(GRID_KS),
                "seeds": list(range(GRID_SEEDS)),
                "objectives": ["DisparityObjective", "LogDiscountedDisparityObjective"],
                "fits": len(GRID_KS) * GRID_SEEDS * 2,
            },
            "executor": "process",
            "max_workers": self.workers,
        }

    def release(self) -> None:
        self.train = self.test = self.reference = None

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        """The grid's inputs are fixed: the paper's cohorts and seeds ``0..3``.

        With four fit seeds per k, seed-derived grids moved
        ``disparity_after`` by ~25% between workload seeds; a fixed grid makes
        it repeat exactly, and the grid's timing does not depend on the seeds.
        """
        self.train = _cohort("train", self.train_rows, TRAIN_SEED, tracer)
        self.test = _cohort("test", TEST_ROWS, TEST_SEED, tracer)

    def _grid(self, executor: str, max_workers: int | None = None):
        dca = DCA(ATTRIBUTES, self.rubric, GRID_KS[0])
        return dca.fit_many(
            self.train,
            ks=GRID_KS,
            seeds=range(GRID_SEEDS),
            objectives=[
                DisparityObjective(ATTRIBUTES),
                LogDiscountedDisparityObjective(ATTRIBUTES),
            ],
            executor=executor,
            max_workers=max_workers,
        )

    def prepare(self) -> None:
        """The serial grid every operation is checked against (timed once)."""
        start = perf_counter()
        self.reference = self._grid("serial")
        self.serial_grid_s = perf_counter() - start

    def op(self, index: int):
        return self._grid("process", self.workers)

    def check(self, index: int, results) -> bool:
        config = DCAConfig()
        return len(results) == len(self.reference) and all(
            published_ok(got.bonus.values, config)
            and got.k == want.k
            and got.seed == want.seed
            and same_bits(got.result.raw_bonus.values, want.result.raw_bonus.values)
            and same_bits(got.bonus.values, want.bonus.values)
            for got, want in zip(results, self.reference)
        )

    def disparity_after(self) -> float:
        held_out = HeldOut(self.test)
        return float(np.mean([held_out.norm(r.bonus.values, r.k) for r in self.reference]))

    def traced_op(self, index: int, results, tracer: Tracer) -> bool:
        """A traced grid, then step-by-step replays of two of its fits.

        The grid span times the pool end to end; job times come from each
        result's ``elapsed_seconds``, measured in the worker.  The replayed
        fits (one per objective, rotating through the grid) must match the
        untraced grid bitwise.
        """
        span = tracer.begin("core.parallel.grid")
        traced = self._grid("process", self.workers)
        tracer.end(span)
        self.job_seconds.extend(r.result.elapsed_seconds for r in traced)
        identical = self.check(index, traced)
        # The grid's objective axis is innermost: even positions fit the
        # Definition-3 objective, odd ones the log-discounted one.  Rotate
        # through the grid's ks first, then its seeds.
        pair = (index % len(GRID_KS)) * GRID_SEEDS + (index // len(GRID_KS)) % GRID_SEEDS
        first = 2 * pair
        for entry, objective in zip(
            results[first : first + 2],
            (DisparityObjective(ATTRIBUTES), LogDiscountedDisparityObjective(ATTRIBUTES)),
        ):
            raw, published = replay_fit(
                self.train, self.rubric, objective, entry.k, DCAConfig(seed=entry.seed), tracer
            )
            identical = (
                identical
                and same_bits(raw, entry.result.raw_bonus.values)
                and same_bits(published.values, entry.bonus.values)
            )
        return identical


class DistrictWorkload:
    """``district_match``: publish a fixed bonus onto the score plane, then match.

    The instance (cohort, rubric scores, attribute matrix, screening noise,
    preferences, capacities) is built once in ``setup``; an operation is the
    population-scale ``compensate_scores`` publication plus one
    ``deferred_acceptance`` call with the library's default engine and
    proposing side.
    """

    name = "district_match"
    #: A match takes ~3 s and varies ~8% from one to the next; ten keep the
    #: run's median steady (the loop outlasts ``--seconds`` to reach them).
    min_ops = 10
    op_span = "district.op"
    #: Over six seeds, op_s.p50 spread by 7% and ops_per_s by 11% scaled by
    #: the step kernel alone, and by 4% and 5% scaled by step + a dram
    #: kernel over three 64-MB arrays (the kernel now uses two 32-MB ones).
    op_kernels = "step+dram"
    #: Each set-up includes a ~3 s warm-up match; three keep the run short.
    setup_repeats = 3

    students = 200_000
    schools = 100
    list_length = 6
    #: Seats for 80% of the students, split evenly over the schools.
    capacities = np.full(schools, int(0.8 * students / schools))
    #: Per-school screening noise, as a share of the rubric scores' spread.
    screening_noise = 0.05

    def __init__(self) -> None:
        self.table = None
        self.proposals: int | None = None
        self.first_assignment = None
        self.match_counts: list[tuple[int, int]] = []

    def context(self) -> dict:
        return {
            "students": self.students,
            "schools": self.schools,
            "list_length": self.list_length,
            "seats": int(self.capacities.sum()),
            "bonus": dict(zip(ATTRIBUTES, DISTRICT_BONUS.tolist())),
        }

    def release(self) -> None:
        self.table = self.base = self.matrix = self.noise = self.preferences = None
        self.proposals = self.first_assignment = None

    def setup(self, seed: int, tracer: Tracer | None = None) -> None:
        cohort_seed, noise_seed, preference_seed = _seeds(seed, 3)
        self.table = _cohort("test", self.students, cohort_seed, tracer)
        span = tracer.begin("ranking.scores") if tracer else -1
        self.base = np.asarray(school_admission_rubric().scores(self.table), dtype=float)
        if tracer:
            tracer.end(span)
            span = tracer.begin("tabular.matrix")
        self.matrix = self.table.matrix(list(ATTRIBUTES))
        if tracer:
            tracer.end(span)
        rng = np.random.default_rng(noise_seed)
        scale = self.screening_noise * float(np.std(self.base))
        self.noise = rng.normal(0.0, scale, size=(self.schools, self.students))
        span = tracer.begin("matching.preferences") if tracer else -1
        self.preferences = generate_student_preferences(
            self.students,
            self.schools,
            list_length=self.list_length,
            rng=np.random.default_rng(preference_seed),
            as_matrix=True,
        )
        if tracer:
            tracer.end(span)

    def prepare(self) -> None:
        """Nothing to precompute: the first checked match pins the proposal count."""

    def _plane(self) -> np.ndarray:
        return compensate_scores(self.matrix, self.base, DISTRICT_BONUS) + self.noise

    def _match(self, plane: np.ndarray):
        return deferred_acceptance(self.preferences, plane, self.capacities)

    def op(self, index: int):
        return self._match(self._plane())

    def traced_op(self, index: int, result, tracer: Tracer) -> bool:
        op_span = tracer.begin(self.op_span)
        span = tracer.begin("core.bonus.plane")
        plane = self._plane()
        tracer.end(span)
        span = tracer.begin("matching.da")
        traced = self._match(plane)
        tracer.end(span)
        tracer.end(op_span)
        self.match_counts.append((traced.proposals_made, traced.num_unmatched))
        return self.check(index, traced)

    def check(self, index: int, result) -> bool:
        """Stable, within capacity, rosters consistent, same proposal count as op 0."""
        if self.proposals is None:
            self.proposals = result.proposals_made
            self.first_assignment = result.assignment.copy()
        return (
            result.proposals_made == self.proposals
            and np.array_equal(result.assignment, self.first_assignment)
            and self._valid(result)
        )

    def _valid(self, result) -> bool:
        assignment = np.asarray(result.assignment)
        students = np.arange(self.students)
        matched = assignment >= 0
        seats = np.bincount(assignment[matched], minlength=self.schools)
        if assignment.shape != (self.students,) or np.any(seats > self.capacities):
            return False
        # Rosters hold exactly the students assigned to each school.
        lengths = np.array([len(roster) for roster in result.rosters])
        if lengths.shape != (self.schools,) or not np.array_equal(lengths, seats):
            return False
        on_roster = np.fromiter(
            itertools.chain.from_iterable(result.rosters), dtype=np.int64, count=lengths.sum()
        )
        if not np.array_equal(assignment[on_roster], np.repeat(np.arange(self.schools), lengths)):
            return False
        # Each match is to a listed school, at the reported rank.
        ranks = np.asarray(result.matched_rank)
        if not np.array_equal(ranks >= 0, matched):
            return False
        listed = self.preferences[students[matched], ranks[matched]]
        if not np.array_equal(listed, assignment[matched]):
            return False
        # Weakest admitted student per school under the strict key (score, -student).
        plane = self._plane()
        held = students[matched]
        held_school = assignment[matched]
        held_score = plane[held_school, held]
        order = np.lexsort((-held, held_score, held_school))
        first = np.unique(held_school[order], return_index=True)
        weakest_score = np.full(self.schools, np.inf)
        weakest_student = np.full(self.schools, -1)
        weakest_score[first[0]] = held_score[order][first[1]]
        weakest_student[first[0]] = held[order][first[1]]
        # No blocking pair: nobody prefers a school that has a free seat or
        # would rather hold them than its weakest admitted student.
        rank_or_end = np.where(matched, ranks, self.list_length)
        for position in range(self.list_length):
            wants = np.flatnonzero(rank_or_end > position)
            school = self.preferences[wants, position]
            listed = school >= 0
            wants, school = wants[listed], school[listed]
            score = plane[school, wants]
            free = seats[school] < self.capacities[school]
            beats = (score > weakest_score[school]) | (
                (score == weakest_score[school]) & (wants < weakest_student[school])
            )
            if np.any(free | beats):
                return False
        return True

    def disparity_after(self) -> float:
        """Mean Definition-3 disparity norm of the schools' admitted classes."""
        calculator = DisparityCalculator(ATTRIBUTES).fit(self.table)
        normalized = calculator.normalized_matrix(self.table)
        matched = self.first_assignment >= 0
        school = self.first_assignment[matched]
        sizes = np.bincount(school, minlength=self.schools)
        filled = sizes > 0
        centroids = np.stack(
            [
                np.bincount(school, weights=normalized[matched, column], minlength=self.schools)
                for column in range(len(ATTRIBUTES))
            ],
            axis=1,
        )[filled] / sizes[filled, None]
        gaps = centroids - normalized.mean(axis=0)
        return float(np.mean(np.sqrt(np.sum(gaps * gaps, axis=1))))


def make(name: str):
    """The workload called ``name``."""
    # Seed-to-seed spread of disparity_after shrinks with the fits it
    # averages: 192 fits (48 per k) fit in a 15-s fit_default run, 64 in fit_1m.
    # About half of a 1M-row fit is memory-bound precompute, which the step
    # kernel alone does not track: scaled by it, fit_1m's op_s.p50 spread by
    # 11% over ten seeds, and by 2.4% over five scaled by both kernels.
    if name == "fit_default":
        return FitWorkload("fit_default", 20_000, quality_ops=192, op_kernels="step")
    if name == "fit_1m":
        return FitWorkload("fit_1m", 1_000_000, quality_ops=64, op_kernels="step+stream")
    if name == "sweep_grid":
        return SweepWorkload()
    if name == "district_match":
        return DistrictWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("fit_default", "fit_1m", "sweep_grid", "district_match")
