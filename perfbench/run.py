"""The repository benchmark: closed-loop DCA and matching workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fit_default --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``fit_default``,
``fit_1m``, ``sweep_grid`` and ``district_match``.  Each is a closed loop
with a single caller: the next operation starts when the previous one has
returned and its output has been checked.  The inputs are generated from
``--seed``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up
(input generation plus one warm-up operation) is repeated and its median
reported, so work moved into set-up shows.  ``--trace 1`` runs the same
workload with spans around every layer call and reports the per-layer
metrics; each traced operation is paired with an untraced one, which the
traced replay must reproduce bitwise or the run publishes no per-layer
numbers.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits non-zero and prints no result.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report and
the run's context (cores, library versions, input sizes, seed).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import the library from this checkout's ``src/`` (and nowhere else)."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
        import workloads
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {source}: {error}")
    if source not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {source}")
    return workloads


def _context(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        **workload.context(),
    }


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for label, fraction in (("p99", 0.99), ("p90", 0.90), ("p75", 0.75)):
        if len(values) * (1.0 - fraction) >= 10:
            return label, _percentile(values, fraction)
    return None


#: Traced runs need no fixed number of operations: per-layer numbers are
#: means over every span, and the replay check holds for each operation.
TRACED_MIN_OPS = 2


def _loop(seconds: float, min_ops: int, run_op) -> None:
    """Run operations 0, 1, ... until ``seconds`` have passed and ``min_ops`` ran."""
    index = 0
    start = perf_counter()
    while index < min_ops or perf_counter() - start < seconds:
        run_op(index)
        index += 1


class SpeedProbe:
    """Fixed NumPy kernels, independent of the library, timed around every timing.

    This host's speed drifts by up to ~1.6x over tens of seconds to minutes
    (other tenants share the cores and memory), and every wall time drifts
    with it.  So each timing is reported at a reference speed::

        scaled = wall * reference / mean(kernel time just before, just after)

    The ``step`` kernel mimics a DCA step (sample draw, row gather, small
    matrix product, top-k partition, column means); the ``stream`` kernel
    mimics cohort generation (normal draws and elementwise passes over
    200k-element arrays); the ``dram`` kernel streams two 32-MB arrays
    through memory, like publishing a score plane.  Set-ups are scaled by
    step + stream, and operations by the ``+``-joined kernels their workload
    names in ``op_kernels``: step alone tracks the interpreter-bound 20k-row
    fits best, step + stream a process-pool grid and a 1M-row fit (about
    half memory-bound precompute), step + dram the match on a 160-MB plane.
    The kernels call nothing in ``src/``, so a change to the library cannot
    move them.  Unscaled wall times are printed in the report.
    """

    #: Kernel times on a 2-core x86_64 host (2.1 GHz, NumPy 2.4 with
    #: OpenBLAS 0.3.31) when no other tenant is busy.
    REFERENCE_S = {"step": 0.003, "stream": 0.006, "dram": 0.011}

    def __init__(self, kernels: str = "step+stream") -> None:
        self._matrix = np.random.default_rng(20_000).standard_normal((20_000, 4))
        self._weights = np.ones(4)
        # Allocated only where it is timed: it adds 64 MB to peak_rss_mb.
        self._planes = (
            np.random.default_rng(1).standard_normal((2, 4_000_000))
            if "dram" in kernels.split("+")
            else None
        )
        self.last = self()

    def __call__(self) -> dict[str, float]:
        """Each kernel's time, in seconds."""
        times = {}
        rng = np.random.default_rng(7)
        start = perf_counter()
        for _ in range(40):
            rows = self._matrix[rng.choice(20_000, 500, replace=False)]
            scores = rows @ self._weights
            rows[scores > scores[scores.argpartition(450)[450]]].mean(axis=0)
        times["step"] = perf_counter() - start
        start = perf_counter()
        for _ in range(2):
            np.clip(82.0 + 9.0 * rng.standard_normal(200_000), 55.0, 100.0)
        times["stream"] = perf_counter() - start
        if self._planes is not None:
            start = perf_counter()
            source, target = self._planes
            np.multiply(source, 0.5, out=target)
            np.add(source, target, out=target)
            times["dram"] = perf_counter() - start
        return times

    def restart(self) -> None:
        """Time the kernels now, as the 'before' of the next timed interval."""
        self.last = self()

    def scale(self, wall: float, kernels: str = "step+stream") -> float:
        """``wall``, just measured, at the reference speed of ``kernels``."""
        before, self.last = self.last, self()
        names = kernels.split("+")
        reference = sum(self.REFERENCE_S[name] for name in names)
        return wall * reference / sum(0.5 * (before[name] + self.last[name]) for name in names)


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, int, int]:
    probe = SpeedProbe(workload.op_kernels)
    setups, wall_setups = [], []
    for _ in range(workload.setup_repeats):
        warm = None
        workload.release()
        gc.collect()
        probe.restart()
        start = perf_counter()
        workload.setup(seed)
        warm = workload.op(0)
        wall_setups.append(perf_counter() - start)
        setups.append(probe.scale(wall_setups[-1]))
    workload.prepare()
    failures = [not workload.check(0, warm)]
    warm = None
    latencies: list[float] = []
    wall_latencies: list[float] = []
    probe.restart()

    def one(index: int) -> None:
        start = perf_counter()
        output = workload.op(index)
        wall_latencies.append(perf_counter() - start)
        latencies.append(probe.scale(wall_latencies[-1], workload.op_kernels))
        failures.append(not workload.check(index, output))

    _loop(seconds, workload.min_ops, one)
    attempted, failed = len(failures), sum(failures)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "disparity_after": (workload.disparity_after(), "norm"),
    }
    report = (
        f"{workload.name}: {len(latencies)} ops, error_ratio {failed / attempted:g} "
        f"({failed}/{attempted}), setup_s over {workload.setup_repeats} set-ups; "
        "times at the reference speed"
    )
    extra = [
        f"wall (unscaled): setup_s {statistics.median(wall_setups):.6g} s, "
        f"op_s.p50 {statistics.median(wall_latencies):.6g} s, "
        f"ops_per_s {len(wall_latencies) / sum(wall_latencies):.6g} 1/s",
    ]
    for label, values in (("", latencies), ("wall ", wall_latencies)):
        tail = _tail(values)
        if tail:
            extra.append(f"{label}op_s.{tail[0]} = {tail[1]:.6g} s (n={len(values)})")
    _print_report(report, metrics, extra)
    return metrics, attempted, failed


def run_traced(workload, seed: int, seconds: float) -> tuple[dict, int, int]:
    from tracing import Tracer

    tracer = Tracer()
    probe = SpeedProbe()
    probes = [probe.last["step"]]
    workload.setup(seed, tracer)
    tracer.fold()
    warm = workload.op(0)
    workload.prepare()
    failures = [not workload.check(0, warm)]
    warm = None
    untraced: list[float] = []
    diverged: list[int] = []

    def pair(index: int) -> None:
        start = perf_counter()
        output = workload.op(index)
        untraced.append(perf_counter() - start)
        failures.append(not workload.check(index, output))
        if not workload.traced_op(index, output, tracer):
            diverged.append(index)
        tracer.fold()
        probes.append(probe()["step"])

    _loop(seconds, TRACED_MIN_OPS, pair)
    attempted = len(failures) + len(untraced)
    failed = sum(failures) + len(diverged)
    if diverged:
        print(
            f"{workload.name}: the traced copy diverged from the library on {len(diverged)} "
            f"of {len(untraced)} operations (first: {diverged[:5]}); "
            "no per-layer split is published",
            file=sys.stderr,
        )
        return {}, attempted, failed
    # Per-layer times are scaled to the reference speed like operations, by
    # the step kernel's median time over the run; ratios and counts are not.
    speed = SpeedProbe.REFERENCE_S["step"] / statistics.median(probes)
    metrics = {
        name: (value * speed if unit in ("s", "us") else value, unit)
        for name, (value, unit) in layer_metrics(workload, tracer, untraced).items()
    }
    report = (
        f"{workload.name} (traced): {len(untraced)} traced/untraced pairs, traced outputs "
        f"bitwise identical, error_ratio {failed / attempted:g} ({failed}/{attempted}); "
        f"times at the reference speed (scale {speed:.4g})"
    )
    _print_report(report, metrics, [])
    return metrics, attempted, failed


def layer_metrics(workload, tracer, untraced: list[float]) -> dict:
    """Per-layer numbers from the folded spans; layers a workload never calls read 0."""
    us = 1e6
    fits = tracer.count("core.dca.fit")
    evaluations = tracer.count("core.objectives.evaluate") + tracer.count(
        "core.objectives.evaluate.logdisc"
    )
    jobs = sorted(getattr(workload, "job_seconds", []))
    grids = tracer.count("core.parallel.grid")
    workers = getattr(workload, "workers", 1)
    grid_wall = tracer.mean("core.parallel.grid")
    job_per_grid = sum(jobs) / grids if grids else 0.0
    matches = getattr(workload, "match_counts", [])
    return {
        "datasets.cohort_s": (tracer.total("datasets.cohort"), "s"),
        "matching.preferences_s": (tracer.total("matching.preferences"), "s"),
        "ranking.scores_s": (tracer.mean("ranking.scores"), "s"),
        "tabular.matrix_s": (tracer.mean("tabular.matrix"), "s"),
        "core.objectives.fit_s": (tracer.mean("core.objectives.fit"), "s"),
        "core.objectives.compile_s": (tracer.mean("core.objectives.compile"), "s"),
        "core.sampling.draw_us": (tracer.mean("core.sampling.draw") * us, "us"),
        "core.bonus.gather_us": (tracer.mean("core.bonus.gather") * us, "us"),
        "core.bonus.compensate_us": (tracer.mean("core.bonus.compensate") * us, "us"),
        "core.objectives.evaluate_us": (tracer.mean("core.objectives.evaluate") * us, "us"),
        "core.objectives.evaluate_us.logdisc": (
            tracer.mean("core.objectives.evaluate.logdisc") * us,
            "us",
        ),
        "ranking.select_us": (tracer.mean("ranking.select") * us, "us"),
        "core.adam.update_us": (tracer.mean("core.adam.update") * us, "us"),
        "core.dca.loop_self_us": (tracer.mean_self("core.dca.step") * us, "us"),
        "core.sampling.draws": (tracer.count("core.sampling.draw") / fits if fits else 0, "count"),
        "core.objectives.evaluations": (evaluations / fits if fits else 0, "count"),
        "core.parallel.job_s.p50": (statistics.median(jobs) if jobs else 0.0, "s"),
        "core.parallel.busy_ratio": (
            job_per_grid / (grid_wall * workers) if grids else 0.0,
            "ratio",
        ),
        "core.parallel.overhead_s": (grid_wall - job_per_grid / workers if grids else 0.0, "s"),
        "core.dca.serial_grid_s": (getattr(workload, "serial_grid_s", 0.0), "s"),
        "core.bonus.plane_s": (tracer.mean("core.bonus.plane"), "s"),
        "matching.da_s": (tracer.mean("matching.da"), "s"),
        "matching.proposals": (statistics.median(p for p, _ in matches) if matches else 0, "count"),
        "matching.unmatched": (statistics.median(u for _, u in matches) if matches else 0, "count"),
        "trace.overhead_ratio": (
            tracer.mean(workload.op_span) / statistics.mean(untraced),
            "ratio",
        ),
    }


def _print_report(header: str, metrics: dict, extra: list[str]) -> None:
    print(header)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in extra:
        print(f"  {line}")


def stop_helpers() -> None:
    """Stop and wait for every process the run started, so none outlives it.

    The library's process pool joins its workers, but ``multiprocessing``
    starts a resource-tracker process on the first shared-memory segment and
    leaves it to exit only after this process has; stop it here and wait.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _import_program()
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")
    workload = workloads.make(args.workload)
    print("context " + json.dumps(_context(workload, args.seed), sort_keys=True))
    run = run_traced if args.trace else run_untraced
    try:
        metrics, attempted, failed = run(workload, args.seed, args.seconds)
    finally:
        stop_helpers()
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
