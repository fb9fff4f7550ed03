"""The ``fit_many(executor="process")`` pool: validation, fallbacks, dead workers.

Bitwise identity of the process grid with the serial grid is pinned in
``test_core_fit_many.py``; this suite covers the pool's edges: eager
rejection of bad pool sizes, in-parent fallback for table-only objectives,
and a worker killed mid-grid surfacing as a prompt ``RuntimeError`` with no
leaked shared-memory segment (the autouse ``shm_sanitizer`` fixture checks
the latter).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import DCA, DCAConfig, DisparityResult, FairnessObjective
from repro.ranking import ColumnScore, selection_mask
from repro.tabular import Table

FAST = DCAConfig(seed=17, iterations=20, refinement_iterations=30, sample_size=400)


def _population(n: int, seed: int = 12) -> Table:
    rng = np.random.default_rng(seed)
    protected = (rng.uniform(size=n) < 0.3).astype(float)
    score = rng.normal(10.0, 2.0, size=n) - 2.0 * protected
    return Table({"score": score, "protected": protected})


class _TableOnlyObjective(FairnessObjective):
    """A custom objective with no compiled form: exercises the fallback path."""

    def evaluate(self, table, scores, k):
        mask = selection_mask(np.asarray(scores, dtype=float), k)
        values = np.zeros(len(self.attribute_names))
        for i, name in enumerate(self.attribute_names):
            member = table.numeric(name) > 0.5
            if member.any():
                values[i] = float(mask[member].mean() - mask.mean())
        return DisparityResult(self.attribute_names, values)


@pytest.mark.parametrize("bad", [0, -3])
def test_fit_many_rejects_bad_max_workers(bad):
    dca = DCA(["protected"], ColumnScore("score"), k=0.2, config=FAST)
    with pytest.raises(ValueError, match="max_workers"):
        dca.fit_many(_population(500), seeds=(1, 2), max_workers=bad)


def test_table_only_objective_runs_in_parent_under_process():
    table = _population(2000)
    objective = _TableOnlyObjective(("protected",))
    dca = DCA(("protected",), ColumnScore("score"), k=0.2, objective=objective, config=FAST)
    serial = dca.fit_many(table, seeds=(1, 2))
    process = dca.fit_many(table, seeds=(1, 2), executor="process", max_workers=2)
    for left, right in zip(serial, process):
        assert np.array_equal(left.result.raw_bonus.values, right.result.raw_bonus.values)
        assert np.array_equal(left.result.bonus.values, right.result.bonus.values)


def test_killed_worker_raises_promptly():
    """SIGKILL one pool worker mid-grid: a RuntimeError within 10 s, no hang."""
    table = _population(20_000)
    dca = DCA(["protected"], ColumnScore("score"), k=0.05, config=DCAConfig())
    killed: list[float] = []

    def kill_one_worker() -> None:
        time.sleep(0.4)
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            children = multiprocessing.active_children()
            if children:
                os.kill(children[0].pid, signal.SIGKILL)
                killed.append(time.perf_counter())
                return
            time.sleep(0.01)

    killer = threading.Thread(target=kill_one_worker)
    killer.start()
    try:
        # BrokenProcessPool is a RuntimeError subclass.
        with pytest.raises(RuntimeError):
            dca.fit_many(table, seeds=range(64), executor="process", max_workers=2)
        raised = time.perf_counter()
    finally:
        killer.join(timeout=15.0)
    assert not killer.is_alive()
    assert killed, "no pool worker was found to kill"
    assert raised - killed[0] < 10.0
