"""Known-good R5 fixture: lineage threaded from a seeded root generator.

The same call-graph shape as ``r5_bad.py``, but every stream derives from
a seed or a ``Generator`` parameter, and the process-pool worker re-mints
each job's generator from the job's own seed.
"""

import numpy as np


def _config_stream(seed):
    return np.random.default_rng(seed)


def _draw(rng: np.random.Generator, n):
    return rng.choice(n, size=2, replace=False)


def fit(values, seed):
    rng = _config_stream(seed)
    return _draw(rng, len(values))


def _plane_worker_fit(job):
    rng = _config_stream(job.seed)
    return job.index, _draw(rng, job.num_rows)
