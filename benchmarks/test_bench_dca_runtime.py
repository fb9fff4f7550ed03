"""Benchmark: DCA fit time and its independence from the dataset size.

Section IV-D argues that DCA's runtime depends on the sample size — governed
by ``max(1/k, 1/r)`` — rather than on the dataset size.  This benchmark times
a single DCA fit at the default setting on cohorts of different sizes and
checks that the fit time grows far more slowly than the data (it is not
strictly constant because scoring the cohort once and the top-k evaluation of
samples retain a mild dependence).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import DCA, DCAConfig
from repro.datasets import (
    SCHOOL_FAIRNESS_ATTRIBUTES,
    SchoolGeneratorConfig,
    generate_school_cohort,
    school_admission_rubric,
)

from conftest import run_once


def _cohort_table(num_students: int):
    return generate_school_cohort(
        "bench", SchoolGeneratorConfig(num_students=num_students), seed=3
    ).table


def _timed_fit(table, seed: int = 7, engine: str = "array"):
    dca = DCA(
        SCHOOL_FAIRNESS_ATTRIBUTES,
        school_admission_rubric(),
        k=0.05,
        config=DCAConfig(seed=seed, engine=engine),
    )
    start = time.perf_counter()
    result = dca.fit(table)
    return time.perf_counter() - start, result


def _fit_once(num_students: int, seed: int = 7, engine: str = "array"):
    return _timed_fit(_cohort_table(num_students), seed=seed, engine=engine)


def test_dca_array_engine_quick_profile_5k():
    """Quick-profile smoke on the paper's 5k-student cohort (the CI perf canary).

    The array engine must beat the legacy table engine by a clear margin on
    the very same fit — a relative assertion, so it stays meaningful on slow
    CI runners — while producing bitwise identical bonus vectors.
    """
    array_seconds, array_result = min(
        (_fit_once(5_000, engine="array") for _ in range(3)), key=lambda pair: pair[0]
    )
    table_seconds, table_result = min(
        (_fit_once(5_000, engine="table") for _ in range(3)), key=lambda pair: pair[0]
    )
    assert np.array_equal(array_result.raw_bonus.values, table_result.raw_bonus.values)
    assert array_seconds * 1.5 < table_seconds


def test_dca_fit_runtime_default_setting(benchmark, bench_students):
    seconds, _ = run_once(benchmark, _fit_once, bench_students)
    # The paper reports ≈10s on 80k students with their Python/Pandas setup;
    # this implementation should fit well within that on the reduced cohort.
    assert seconds < 30.0


def test_dca_fit_time_sublinear_in_dataset_size():
    tables = {size: _cohort_table(size) for size in (10_000, 40_000)}
    seconds: dict[int, list[float]] = {size: [] for size in tables}
    # Each fit takes tens of milliseconds, so one scheduler hiccup can swamp
    # it.  Interleaving the sizes exposes both to the same host drift, and
    # the min over seven fits per size discards the interrupted ones.
    for seed in range(1, 8):
        for size, table in tables.items():
            seconds[size].append(_timed_fit(table, seed=seed)[0])
    small = min(seconds[10_000])
    large = min(seconds[40_000])
    # 4x more data must cost far less than 4x more time (sampling-based fit).
    assert large < small * 3.0
