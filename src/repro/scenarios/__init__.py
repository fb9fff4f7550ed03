"""Scenario simulation harness: Monte-Carlo market-shape stress engine.

The harness stresses the whole stack — cohort generation, DCA fits (serial
and process-pool), and all three deferred-acceptance engines on
both proposing sides — across synthetic market shapes far beyond the two
calibrated cohorts: heavy-tailed capacities, clustered preferences,
intersectional protected groups, tiny districts, zero/oversized-capacity
mixes, and adversarial tie storms.

Three layers:

* :mod:`~repro.scenarios.configs` — declarative, JSON-serializable,
  fully seeded :class:`ScenarioConfig` dataclasses (six built-ins);
* :mod:`~repro.scenarios.market` / :mod:`~repro.scenarios.driver` — realize
  a config as a concrete market and sweep scenario x engine x objective x
  executor into fairness/runtime envelopes with identity verdicts;
* :mod:`~repro.scenarios.corpus` — emit small golden instances under
  ``tests/data/scenarios/`` for the tier-1 differential suites.

Run the sweep from the CLI with ``repro-experiments run scenarios``.
"""

from .configs import (
    AttributeSpec,
    CapacitySpec,
    PreferenceSpec,
    ScenarioConfig,
    builtin_scenarios,
    get_scenario,
)
from .corpus import (
    CORPUS_K,
    CORPUS_SCHEMA,
    build_instance,
    corpus_fit_config,
    corpus_scenarios,
    load_corpus,
    write_corpus,
)
from .driver import DEFAULT_FIT_CONFIG, OBJECTIVES, ScenarioEnvelope, run_scenario
from .market import ScenarioMarket, generate_market

__all__ = [
    "AttributeSpec",
    "CapacitySpec",
    "PreferenceSpec",
    "ScenarioConfig",
    "builtin_scenarios",
    "get_scenario",
    "ScenarioMarket",
    "generate_market",
    "ScenarioEnvelope",
    "run_scenario",
    "OBJECTIVES",
    "DEFAULT_FIT_CONFIG",
    "CORPUS_K",
    "CORPUS_SCHEMA",
    "corpus_fit_config",
    "corpus_scenarios",
    "build_instance",
    "write_corpus",
    "load_corpus",
]
