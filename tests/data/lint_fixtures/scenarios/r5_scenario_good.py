"""Known-good scenario fixture: trial streams derived from the config seed.

Same call-graph shape as ``scenarios/r5_scenario_bad.py``, but every
generator is minted from an explicit ``(seed, trial)`` pair on the
ordinary fit path — the idiom ``repro.scenarios.market`` uses — and the
process-pool worker derives its stream from the job's seed the same way.
"""

import numpy as np


def _trial_stream(seed, trial):
    return np.random.default_rng((seed, trial))


def _market_noise(rng, num_students):
    return rng.normal(0.0, 1.0, size=num_students)


def fit(market):
    rng = _trial_stream(market.seed, market.trial)
    return market.base_scores + _market_noise(rng, market.num_students)


def _plane_worker_fit(job):
    rng = _trial_stream(job.seed, job.trial)
    return job.index, _market_noise(rng, job.num_students)
