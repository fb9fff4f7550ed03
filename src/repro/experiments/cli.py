"""Command-line entry point: ``repro-experiments``.

Examples
--------
List the available experiments::

    repro-experiments list

Run the Table I reproduction on a 20,000-student synthetic cohort::

    repro-experiments run table1 --num-students 20000

Run a sweep-heavy experiment on the shared-memory process pool::

    repro-experiments run fig4 --executor process --workers 4

Run the admissions match with schools proposing (the school-optimal
matching)::

    repro-experiments run matching --proposing schools

Run everything at reduced scale and write the formatted output to a file::

    repro-experiments run-all --num-students 10000 --output results.txt
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Sequence

from ..matching import ENGINES, PROPOSING_SIDES
from . import EXPERIMENT_RUNNERS
from .harness import ExperimentResult

__all__ = ["main", "build_parser"]

#: Batch backends exposed on the command line (see repro.core.DCA.fit_many).
EXECUTOR_CHOICES = ("serial", "process")


def _positive_int(text: str) -> int:
    """argparse type for worker counts: rejects 0/negative at parse time.

    Failing inside ``argparse`` keeps the error next to the flag that caused
    it, long before any pool or shared-memory segment exists.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--num-students", type=int, default=None, help="synthetic school cohort size override"
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default=None,
        help=(
            "batch backend for experiments that sweep DCA fits: 'serial' or "
            "'process' (shared-memory process pool; the default when "
            "--workers is above 1)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="pool size for the process executor (default: one per job, capped at CPUs)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help=(
            "deferred-acceptance engine for experiments that run a match: "
            "'vector' (round-based, the default) or 'reference' (slow "
            "pure-Python oracle)"
        ),
    )
    parser.add_argument(
        "--proposing",
        choices=PROPOSING_SIDES,
        default=None,
        help=(
            "which side proposes in deferred acceptance: 'students' "
            "(student-optimal matching, the default) or 'schools' "
            "(school-optimal matching)"
        ),
    )
    parser.add_argument("--output", default=None, help="write the formatted result to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the fair-ranking DCA paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment name (see 'list')")
    _add_run_options(run_parser)

    all_parser = subparsers.add_parser("run-all", help="run every experiment")
    _add_run_options(all_parser)
    return parser


def _run_one(
    name: str,
    num_students: int | None,
    executor: str | None = None,
    workers: int | None = None,
    engine: str | None = None,
    proposing: str | None = None,
) -> ExperimentResult:
    """Invoke a runner, forwarding only the options its signature supports.

    Experiments differ in what they can vary (the COMPAS figures have no
    ``num_students``; single-fit experiments have no batch backend; only the
    matching experiment runs deferred acceptance), so the CLI inspects each
    runner instead of forcing one signature on all of them.
    """
    runner = EXPERIMENT_RUNNERS[name]
    parameters = inspect.signature(runner).parameters
    options = {
        "num_students": num_students,
        "executor": executor,
        "max_workers": workers,
        "engine": engine,
        "proposing": proposing,
    }
    kwargs = {
        key: value
        for key, value in options.items()
        if value is not None and key in parameters
    }
    return runner(**kwargs)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    print(text)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENT_RUNNERS):
            print(name)
        return 0
    if args.command == "run":
        if args.experiment not in EXPERIMENT_RUNNERS:
            print(
                f"unknown experiment {args.experiment!r}; available: {sorted(EXPERIMENT_RUNNERS)}",
                file=sys.stderr,
            )
            return 2
        result = _run_one(
            args.experiment,
            args.num_students,
            args.executor,
            args.workers,
            args.engine,
            args.proposing,
        )
        _emit(result.format(), args.output)
        return 0
    if args.command == "run-all":
        outputs = []
        for name in sorted(EXPERIMENT_RUNNERS):
            outputs.append(
                _run_one(
                    name,
                    args.num_students,
                    args.executor,
                    args.workers,
                    args.engine,
                    args.proposing,
                ).format()
            )
        _emit("\n\n".join(outputs), args.output)
        return 0
    return 2


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
