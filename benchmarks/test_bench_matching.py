"""Benchmark: deferred-acceptance engines at district scale.

The NYC match assigns on the order of 100k students per year, so the matching
layer must scale to that size — and beyond, once bumps to multi-district or
multi-year matches come in.  The fast engine is compared with the oracle,
asserting a *relative* speedup so the gate stays meaningful on slow CI
runners:

* ``vector`` vs ``reference`` on a 100k-student instance (override with
  ``REPRO_BENCH_MATCH_STUDENTS``): the round-based engine must produce the
  *identical* stable matching (the student-optimal matching is unique once
  school tie-breaks make preferences strict, so any divergence is a bug) at
  ≥ 3x the speed of the pure-Python reference.  Observed margin is well
  above 50x at 40k students.

A school-proposing check pins the ``vector``/``reference`` identity for the
school-optimal variant at district scale, and a final test pins the
vectorized preference generator's cost: generating 100k preference lists
must stay a small fraction of the match itself.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _bench_record import record_bench
from repro.matching import deferred_acceptance, generate_student_preferences

#: Cohort size for the matching benchmark (the paper's district scale).
MATCH_STUDENTS = int(os.environ.get("REPRO_BENCH_MATCH_STUDENTS", "100000"))
NUM_SCHOOLS = 100
LIST_LENGTH = 6
#: Seats for 80% of the cohort: scarce enough that popular schools fill up
#: and bump constantly, which is exactly the regime the fast engine targets.
SEAT_FRACTION = 0.8


def _district_instance(num_students: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    preferences = generate_student_preferences(
        num_students, NUM_SCHOOLS, list_length=LIST_LENGTH, rng=rng, as_matrix=True
    )
    score_plane = rng.normal(size=(NUM_SCHOOLS, num_students))
    capacities = [int(SEAT_FRACTION * num_students / NUM_SCHOOLS)] * NUM_SCHOOLS
    return preferences, score_plane, capacities


def _run(engine: str, instance, proposing: str = "students"):
    preferences, score_plane, capacities = instance
    start = time.perf_counter()
    match = deferred_acceptance(
        preferences, score_plane, capacities, engine=engine, proposing=proposing
    )
    return time.perf_counter() - start, match


def _assert_identical(left, right):
    assert np.array_equal(left.assignment, right.assignment)
    assert np.array_equal(left.matched_rank, right.matched_rank)
    assert left.rosters == right.rosters
    assert left.proposals_made == right.proposals_made


def test_vector_engine_speedup_and_equivalence_over_reference():
    instance = _district_instance(MATCH_STUDENTS)
    vector_seconds, vector_match = _run("vector", instance)
    reference_seconds, reference_match = _run("reference", instance)

    _assert_identical(vector_match, reference_match)
    record_bench(
        "matching",
        metrics={
            "vector_vs_reference": {
                "vector_seconds": round(vector_seconds, 4),
                "reference_seconds": round(reference_seconds, 4),
                "speedup": round(reference_seconds / vector_seconds, 3),
            }
        },
        context={
            "vector_vs_reference_students": MATCH_STUDENTS,
            "num_schools": NUM_SCHOOLS,
            "list_length": LIST_LENGTH,
            "usable_cores": len(os.sched_getaffinity(0)),
        },
    )
    assert vector_seconds * 3.0 < reference_seconds, (
        f"vector engine {vector_seconds:.2f}s vs reference {reference_seconds:.2f}s "
        f"({reference_seconds / vector_seconds:.1f}x) — expected at least 3x"
    )


def test_school_proposing_engines_identical_at_district_scale():
    # No timing assertion: what matters here is that the round-based
    # school-proposing variant stays exact at scale.
    instance = _district_instance(min(MATCH_STUDENTS, 50_000), seed=9)
    _, vector_match = _run("vector", instance, proposing="schools")
    _, reference_match = _run("reference", instance, proposing="schools")
    _assert_identical(vector_match, reference_match)


def test_preference_generation_is_cheap_at_district_scale():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    preferences = generate_student_preferences(
        MATCH_STUDENTS, NUM_SCHOOLS, list_length=LIST_LENGTH, rng=rng, as_matrix=True
    )
    seconds = time.perf_counter() - start
    assert preferences.shape == (MATCH_STUDENTS, LIST_LENGTH)
    # The vectorized generator draws one noise matrix and argsorts it; even
    # at 100k x 100 this is sub-second on any recent machine.
    assert seconds < 5.0
