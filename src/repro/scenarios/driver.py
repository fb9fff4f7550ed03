"""The Monte-Carlo driver: sweep scenario x engine x objective x executor.

For each trial of a scenario the driver realizes the market, fits DCA bonus
vectors under each requested objective, matches students to schools with
every requested engine on both proposing sides, and folds the per-trial
measurements into *envelopes* — ``{min, mean, max}`` over trials for every
fairness and runtime metric — plus hard *identity* verdicts:

* ``engines_identical`` — every engine produced the same assignment vector
  as every other, on every proposing side, in every trial;
* ``<executor>_bitwise_identical`` — a ``fit_many`` run on that executor
  reproduced the serial batch bit for bit (only for executors beyond
  ``"serial"``).

Identity verdicts are recorded as ``1``/``0`` integers rather than booleans
so they can flow straight into the numeric-leaf ``BENCH_*.json`` schema.

Timing uses ``time.perf_counter`` exclusively (durations, not wall-clock
timestamps), and all randomness lives in :func:`~repro.scenarios.market.
generate_market`'s seeded stream — this module draws nothing itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core import (
    DCA,
    DCAConfig,
    DisparityCalculator,
    DisparityObjective,
    LogDiscountedDisparityObjective,
)
from ..core.dca import FitSpec
from ..matching import ENGINES, PROPOSING_SIDES, deferred_acceptance
from ..metrics import ddp, representation_gap
from .configs import ScenarioConfig
from .market import ScenarioMarket, generate_market

__all__ = [
    "DEFAULT_FIT_CONFIG",
    "OBJECTIVES",
    "ScenarioEnvelope",
    "run_scenario",
]

#: Objective factories the driver can sweep, by short name.
OBJECTIVES = {
    "disparity": DisparityObjective,
    "log_discounted": LogDiscountedDisparityObjective,
}

#: Reduced-but-faithful fit hyper-parameters for stress cells: the markets
#: are small, so short phases keep a six-scenario sweep interactive while
#: still running both Core DCA learning rates plus a refinement pass.
DEFAULT_FIT_CONFIG = DCAConfig(iterations=60, refinement_iterations=80, sample_size=300)


@dataclass
class ScenarioEnvelope:
    """Fairness/runtime envelopes and identity verdicts for one scenario."""

    config: ScenarioConfig
    trials: int
    k: float
    fairness: dict[str, dict[str, float]] = field(default_factory=dict)
    runtime: dict[str, dict[str, float]] = field(default_factory=dict)
    identity: dict[str, int] = field(default_factory=dict)

    def all_identical(self) -> bool:
        """True when every recorded identity verdict held in every trial."""
        return all(value == 1 for value in self.identity.values())


def _envelope(values: Sequence[float]) -> dict[str, float]:
    data = np.asarray(list(values), dtype=float)
    return {
        "min": float(data.min()),
        "mean": float(data.mean()),
        "max": float(data.max()),
    }


def _mean_abs_representation_gap(table, scores, attributes, k) -> float:
    return float(
        np.mean([abs(representation_gap(table, scores, name, k)) for name in attributes])
    )


def _matched_share_gap(market: ScenarioMarket, assignment: np.ndarray) -> float:
    """Mean abs deviation of matched-student group shares from the population."""
    matched = assignment >= 0
    if not matched.any():
        return 0.0
    gaps = []
    for name in market.fairness_attributes:
        values = market.table.numeric(name)
        gaps.append(abs(float(values[matched].mean()) - float(values.mean())))
    return float(np.mean(gaps))


def _fit_specs(config: ScenarioConfig, trial: int, objective_names, attributes, k):
    """One deterministic :class:`FitSpec` per objective for this trial."""
    specs = []
    for index, name in enumerate(objective_names):
        factory = OBJECTIVES.get(name)
        if factory is None:
            known = ", ".join(sorted(OBJECTIVES))
            raise KeyError(f"unknown objective {name!r}; known: {known}")
        specs.append(
            FitSpec(
                k=k,
                seed=config.seed * 1_000 + trial * 10 + index,
                objective=factory(attributes),
                label=name,
            )
        )
    return specs


def run_scenario(
    config: ScenarioConfig,
    *,
    k: float = 0.15,
    engines: Sequence[str] = ENGINES,
    proposing_sides: Sequence[str] = PROPOSING_SIDES,
    executors: Sequence[str] = ("serial",),
    objectives: Sequence[str] = ("disparity", "log_discounted"),
    fit_config: DCAConfig | None = None,
    max_workers: int | None = None,
    trials: int | None = None,
) -> ScenarioEnvelope:
    """Run the Monte-Carlo sweep for one scenario and fold the envelopes.

    ``engines``/``proposing_sides`` span the matching grid (every engine runs
    on every side, on the compensated score plane, and must agree exactly);
    ``objectives`` the DCA objectives fitted per trial; and ``executors``
    the ``fit_many`` backends checked bitwise against the serial batch.
    ``trials`` overrides the config's own trial count.
    """
    config.validate()
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    for side in proposing_sides:
        if side not in PROPOSING_SIDES:
            raise ValueError(
                f"unknown proposing side {side!r}; expected one of {PROPOSING_SIDES}"
            )
    base_fit_config = fit_config or DEFAULT_FIT_CONFIG
    num_trials = trials if trials is not None else config.trials
    if num_trials <= 0:
        raise ValueError(f"trials must be positive, got {num_trials}")

    fairness_samples: dict[str, list[float]] = {}
    runtime_samples: dict[str, list[float]] = {}
    identity: dict[str, int] = {"engines_identical": 1}
    for executor in executors:
        if executor != "serial":
            identity[f"{executor}_bitwise_identical"] = 1

    def record(samples: dict[str, list[float]], key: str, value: float) -> None:
        samples.setdefault(key, []).append(float(value))

    for trial in range(num_trials):
        market = generate_market(config, trial)
        table = market.table
        attributes = market.fairness_attributes
        score_function = market.score_function()
        specs = _fit_specs(config, trial, objectives, attributes, k)

        dca = DCA(attributes, score_function, k, config=base_fit_config)
        start = time.perf_counter()
        serial_fits = dca.fit_many(table, specs=specs, executor="serial")
        record(runtime_samples, "fit_serial_seconds", time.perf_counter() - start)

        for executor in executors:
            if executor == "serial":
                continue
            start = time.perf_counter()
            batch = dca.fit_many(
                table, specs=specs, executor=executor, max_workers=max_workers
            )
            record(runtime_samples, f"fit_{executor}_seconds", time.perf_counter() - start)
            for serial_fit, other in zip(serial_fits, batch):
                if not np.array_equal(
                    serial_fit.result.raw_bonus.values, other.result.raw_bonus.values
                ) or not np.array_equal(
                    serial_fit.result.bonus.values, other.result.bonus.values
                ):
                    identity[f"{executor}_bitwise_identical"] = 0

        # Fairness of the compensated ranking (first objective's bonus).
        bonus = serial_fits[0].result.bonus
        base_scores = market.base_scores
        compensated_scores = bonus.apply(table, base_scores)
        calculator = DisparityCalculator(attributes).fit(table)
        record(
            fairness_samples,
            "disparity_norm_before",
            calculator.disparity(table, base_scores, k).norm,
        )
        record(
            fairness_samples,
            "disparity_norm_after",
            calculator.disparity(table, compensated_scores, k).norm,
        )
        record(
            fairness_samples,
            "ddp_before",
            ddp(table, base_scores, attributes, include_complements=True),
        )
        record(
            fairness_samples,
            "ddp_after",
            ddp(table, compensated_scores, attributes, include_complements=True),
        )
        record(
            fairness_samples,
            "representation_gap_before",
            _mean_abs_representation_gap(table, base_scores, attributes, k),
        )
        record(
            fairness_samples,
            "representation_gap_after",
            _mean_abs_representation_gap(table, compensated_scores, attributes, k),
        )

        # The matching grid runs on the compensated plane: each school's row
        # gets the same bonus vector added (per-school fits are the matching
        # experiment's job; the stress harness cares about engine identity).
        compensated_plane = np.vstack(
            [
                bonus.apply(table, market.score_plane[school])
                for school in range(market.num_schools)
            ]
        )
        reference_assignment: np.ndarray | None = None
        for side in proposing_sides:
            side_assignment: np.ndarray | None = None
            for engine in engines:
                start = time.perf_counter()
                match = deferred_acceptance(
                    market.preferences,
                    compensated_plane,
                    list(market.capacities),
                    engine=engine,
                    proposing=side,
                )
                record(
                    runtime_samples,
                    f"match_{engine}_seconds",
                    time.perf_counter() - start,
                )
                if side_assignment is None:
                    side_assignment = match.assignment
                elif not np.array_equal(side_assignment, match.assignment):
                    identity["engines_identical"] = 0
            if reference_assignment is None:
                reference_assignment = side_assignment

        record(
            fairness_samples,
            "match_share_gap",
            _matched_share_gap(market, reference_assignment),
        )
        record(
            fairness_samples,
            "unmatched_students",
            float(np.count_nonzero(reference_assignment < 0)),
        )

    return ScenarioEnvelope(
        config=config,
        trials=num_trials,
        k=k,
        fairness={key: _envelope(values) for key, values in fairness_samples.items()},
        runtime={key: _envelope(values) for key, values in runtime_samples.items()},
        identity=identity,
    )
