"""Benchmark: the scenario stress sweep as a recorded envelope trajectory.

Runs the Monte-Carlo market-shape sweep at stress scale — every built-in
scenario, all three matching engines on both proposing sides, a serial
``fit_many`` batch per trial plus its process-pool twin — and records the
fairness/runtime envelopes into ``BENCH_scenarios.json`` via
:func:`record_bench`.

Two hard assertions ride along (the scenario-smoke CI step relies on them):

* **cross-engine identity** — every engine produced the same matching on
  every generated market shape, both proposing sides;
* **process bitwise identity** — the ``executor="process"`` batch
  reproduced the serial batch bit for bit on every shape.

The recorded ``speedup`` per scenario is the reference engine's match time
over the vector engine's — the committed trajectory tracks how the vector
engine's edge moves across market shapes (tie storms and magnet-school
tails are its hardest inputs).
"""

from __future__ import annotations

import os

from _bench_record import record_bench
from repro.scenarios import builtin_scenarios, run_scenario

#: Students per scenario at stress scale (tiny scenarios keep their size).
STRESS_STUDENTS = int(os.environ.get("REPRO_BENCH_SCENARIO_STUDENTS", "20000"))

#: Monte-Carlo trials per scenario.
STRESS_TRIALS = int(os.environ.get("REPRO_BENCH_SCENARIO_TRIALS", "1"))

#: Batch backends fitted per trial; the process batch must equal the serial one.
STRESS_EXECUTORS = ("serial", "process")


def test_scenario_sweep_envelopes_and_identity():
    metrics = {}
    total_students = 0
    for config in builtin_scenarios():
        # The tiny-district shape IS the small market; everything else runs
        # at stress scale.
        if config.name != "tiny_district":
            config = config.scaled(num_students=STRESS_STUDENTS)
        total_students += config.num_students
        envelope = run_scenario(config, trials=STRESS_TRIALS, executors=STRESS_EXECUTORS)
        assert envelope.identity["engines_identical"] == 1, (
            f"{config.name}: engines disagreed: {envelope.identity}"
        )
        assert envelope.identity["process_bitwise_identical"] == 1, (
            f"{config.name}: process-pool batch drifted from serial"
        )
        runtime = envelope.runtime
        metrics[config.name] = {
            "students": config.num_students,
            "ddp_after": envelope.fairness["ddp_after"]["mean"],
            "disparity_after": envelope.fairness["disparity_norm_after"]["mean"],
            "fit_serial_seconds": runtime["fit_serial_seconds"]["mean"],
            "fit_process_seconds": runtime["fit_process_seconds"]["mean"],
            "match_heap_seconds": runtime["match_heap_seconds"]["mean"],
            "match_vector_seconds": runtime["match_vector_seconds"]["mean"],
            "match_reference_seconds": runtime["match_reference_seconds"]["mean"],
            "speedup": (
                runtime["match_reference_seconds"]["mean"]
                / max(runtime["match_vector_seconds"]["mean"], 1e-9)
            ),
            **envelope.identity,
        }
    record_bench(
        "scenarios",
        metrics,
        context={
            "scenarios": len(metrics),
            "total_students": total_students,
            "trials": STRESS_TRIALS,
            "executors": len(STRESS_EXECUTORS),
            "usable_cores": len(os.sched_getaffinity(0)),
        },
    )
