"""Known-bad scenario fixture: a market-shape worker drawing hidden randomness.

Lives under a ``scenarios/`` directory, which is hot-path for R1 — so the
unseeded draws are flagged twice: directly by R1, and interprocedurally by
R5 through the ``fit`` / ``_plane_worker_fit`` entry points.
"""

import numpy as np


def _market_noise(num_students):
    return np.random.rand(num_students)  # LINT-EXPECT: R1, R5


def _trial_stream():
    return np.random.default_rng()  # LINT-EXPECT: R1, R5


def fit(market):
    noise = _market_noise(market.num_students)
    return market.base_scores + noise * _trial_stream().normal()


def _scenario_job_stream():
    # Unseeded, on the process-pool worker path only: each job would pull
    # fresh OS entropy instead of its config's seeded stream.
    return np.random.default_rng()  # LINT-EXPECT: R1, R5


def _plane_worker_fit(job):
    rng = _scenario_job_stream()
    return job.index, rng.integers(0, job.num_rows)
