"""A heap-based deferred-acceptance implementation for the differential suites.

The library ships two engines, the round-based ``"vector"`` engine and the
pure-Python ``"reference"`` oracle.  The matching suites also run this third,
sequential implementation, which shares only the input normalization with the
library: student-proposing keeps each school's tentative roster as a binary
min-heap keyed by ``(score, -student)`` (the weakest held student on top, so
a bump is one ``heapreplace``), and school-proposing walks precomputed
per-school proposal orders off a work stack.  Three implementations built on
different data structures must produce the identical matching, which is
stronger evidence than two agreeing.

:func:`run_engine` takes the same arguments as
:func:`repro.matching.deferred_acceptance` and accepts ``engine="heap"`` on
top of the library's engines.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

import numpy as np

from repro.matching import deferred_acceptance
from repro.matching.deferred_acceptance import (
    _NO_OFFER,
    MatchResult,
    _normalize_preferences,
    _normalize_rankings,
    _Preferences,
    _school_proposal_order,
    _schools_result,
    _student_rank_matrix,
    _validate_capacities,
)

#: Every engine the matching suites compare: this module's, then the library's.
ENGINES = ("heap", "vector", "reference")


def run_engine(
    student_preferences: Sequence[Sequence[int]] | np.ndarray,
    school_rankings: Sequence[Mapping[int, float] | Sequence[float]] | np.ndarray,
    capacities: Sequence[int],
    engine: str = "vector",
    proposing: str = "students",
) -> MatchResult:
    """:func:`~repro.matching.deferred_acceptance`, plus ``engine="heap"``."""
    if engine != "heap":
        return deferred_acceptance(
            student_preferences, school_rankings, capacities, engine=engine, proposing=proposing
        )
    capacities = _validate_capacities(capacities)
    num_schools = len(capacities)
    preferences = _normalize_preferences(student_preferences, num_schools)
    score_plane = _normalize_rankings(school_rankings, num_schools, len(preferences))
    if proposing == "students":
        return _heap_students(preferences.lists, score_plane, capacities)
    if proposing == "schools":
        return _heap_schools(preferences, score_plane, capacities)
    raise ValueError(f"unknown proposing side {proposing!r}")


def _heap_students(
    preferences: list[Sequence[int]],
    score_plane: np.ndarray,
    capacities: list[int],
) -> MatchResult:
    """Student-proposing match with O(log c) bumps over precomputed score rows."""
    num_students = len(preferences)
    num_schools = len(capacities)
    score_rows: list[list[float]] = score_plane.tolist()
    assignment = [-1] * num_students
    matched_rank = [-1] * num_students
    next_choice = [0] * num_students
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(num_schools)]

    stack = [s for s in range(num_students) if preferences[s]]
    proposals = 0
    while stack:
        student = stack.pop()
        prefs = preferences[student]
        ptr = next_choice[student]
        while ptr < len(prefs):
            school = prefs[ptr]
            ptr += 1
            capacity = capacities[school]
            if capacity == 0:
                continue
            proposals += 1
            score = score_rows[school][student]
            if score != score:  # NaN: unacceptable to this school
                continue
            heap = heaps[school]
            entry = (score, -student)
            if len(heap) < capacity:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                bumped = -heapq.heapreplace(heap, entry)[1]
                assignment[bumped] = -1
                matched_rank[bumped] = -1
                if next_choice[bumped] < len(preferences[bumped]):
                    stack.append(bumped)
            else:
                continue
            assignment[student] = school
            matched_rank[student] = ptr - 1
            break
        next_choice[student] = ptr

    rosters = tuple(
        tuple(-neg for _, neg in sorted(heap, key=lambda entry: (-entry[0], -entry[1])))
        for heap in heaps
    )
    return MatchResult(
        assignment=np.asarray(assignment, dtype=np.int64),
        rosters=rosters,
        proposals_made=proposals,
        matched_rank=np.asarray(matched_rank, dtype=np.int64),
    )


def _heap_schools(
    preferences: _Preferences,
    score_plane: np.ndarray,
    capacities: list[int],
) -> MatchResult:
    """School-proposing match driven by a stack of schools with free seats.

    A school walks its ranked applicant list; a student accepts when the
    school sits strictly earlier in their preference list than the offer they
    hold, which frees a seat at, and re-activates, their previous school.
    """
    num_students = len(preferences)
    num_schools = len(capacities)
    order, counts = _school_proposal_order(score_plane)
    order_rows: list[list[int]] = [
        order[school, : int(count)].tolist() for school, count in enumerate(counts)
    ]
    rank_rows: list[list[int]] = _student_rank_matrix(preferences, num_schools).tolist()
    considers: list[int] = (preferences.lengths > 0).tolist()

    assignment = [-1] * num_students
    held_rank = [_NO_OFFER] * num_students
    free = list(capacities)
    ptr = [0] * num_schools
    proposals = 0

    stack = [j for j in range(num_schools) if free[j] > 0 and order_rows[j]]
    while stack:
        school = stack.pop()
        row = order_rows[school]
        position = ptr[school]
        seats = free[school]
        while seats > 0 and position < len(row):
            student = row[position]
            position += 1
            if not considers[student]:
                continue  # a student listing nothing considers no offer
            proposals += 1
            rank = rank_rows[student][school]
            if rank < 0 or rank >= held_rank[student]:
                continue  # school unlisted, or no better than the held offer
            previous = assignment[student]
            if previous >= 0:
                if free[previous] == 0 and ptr[previous] < len(order_rows[previous]):
                    stack.append(previous)  # regains a seat: resume proposing
                free[previous] += 1
            assignment[student] = school
            held_rank[student] = rank
            seats -= 1
        ptr[school] = position
        free[school] = seats

    return _schools_result(
        np.asarray(assignment, dtype=np.int64),
        np.asarray(held_rank, dtype=np.int64),
        score_plane,
        num_schools,
        proposals,
    )
