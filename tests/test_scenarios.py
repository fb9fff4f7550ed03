"""The scenario harness: configs, markets, driver, and the golden corpus.

The committed corpus under ``tests/data/scenarios/`` is the differential
proving ground: every instance is replayed on every tier-1 run, asserting

* the golden numbers still hold (bonus vector, disparity/DDP, assignments);
* ``vector == heap == reference`` matchings on **both** proposing sides for
  every generated market shape (heavy tails, tie storms, zero/oversized
  capacities, ...);
* a process-pool ``fit_many`` is **bitwise identical** to the serial fit
  on every shape.

Regenerate after an intentional behaviour change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_scenarios.py -q

Integers compare exactly; floats via ``pytest.approx(rel=1e-9)``.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import DCA, DisparityObjective, FitSpec
from repro.matching import ENGINES, PROPOSING_SIDES, deferred_acceptance
from repro.scenarios import (
    CORPUS_K,
    ScenarioConfig,
    build_instance,
    builtin_scenarios,
    corpus_fit_config,
    corpus_scenarios,
    generate_market,
    get_scenario,
    run_scenario,
    write_corpus,
)
from repro.scenarios.configs import AttributeSpec, CapacitySpec, PreferenceSpec

CORPUS_DIR = Path(__file__).parent / "data" / "scenarios"


def _corpus_paths() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.json"))


def test_regen_golden_corpus():
    """With REPRO_REGEN_GOLDEN=1 this test rewrites the corpus and skips."""
    if not os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("set REPRO_REGEN_GOLDEN=1 to regenerate the corpus")
    paths = write_corpus(CORPUS_DIR)
    pytest.skip(f"regenerated {len(paths)} corpus instances under {CORPUS_DIR}")


def test_corpus_is_committed_and_covers_every_builtin():
    names = {path.stem for path in _corpus_paths()}
    assert names == {config.name for config in builtin_scenarios()}
    assert len(names) >= 6


@pytest.mark.parametrize("path", _corpus_paths(), ids=[p.stem for p in _corpus_paths()])
class TestCorpusReplay:
    """Every committed instance is recomputed from its embedded config."""

    def test_golden_numbers_hold(self, path: Path):
        golden = json.loads(path.read_text())
        config = ScenarioConfig.from_dict(golden["scenario"])
        rebuilt = build_instance(config)
        assert rebuilt["schema"] == golden["schema"]
        assert rebuilt["k"] == golden["k"] == CORPUS_K
        expected, observed = golden["expected"], rebuilt["expected"]
        # Integer artifacts: exact.
        assert observed["capacities"] == expected["capacities"]
        assert observed["sample_size"] == expected["sample_size"]
        assert observed["matches"] == expected["matches"]
        # Granularity-rounded bonuses land on exact multiples of 0.5, but
        # compare approx anyway so a future granularity=0 corpus still works.
        for payload_key in ("bonus", "raw_bonus"):
            assert set(observed[payload_key]) == set(expected[payload_key])
            for name, value in expected[payload_key].items():
                assert observed[payload_key][name] == pytest.approx(
                    value, rel=1e-9, abs=1e-12
                )
        for key in (
            "disparity_norm_before",
            "disparity_norm_after",
            "ddp_before",
            "ddp_after",
        ):
            assert observed[key] == pytest.approx(expected[key], rel=1e-9, abs=1e-12)

    def test_cross_engine_matchings_identical(self, path: Path):
        """vector == heap == reference, both proposing sides, on the raw plane."""
        golden = json.loads(path.read_text())
        config = ScenarioConfig.from_dict(golden["scenario"])
        market = generate_market(config, trial=0)
        for proposing in PROPOSING_SIDES:
            assignments = {}
            for engine in ENGINES:
                match = deferred_acceptance(
                    market.preferences,
                    market.score_plane,
                    list(market.capacities),
                    engine=engine,
                    proposing=proposing,
                )
                assignments[engine] = match.assignment
            for engine in ENGINES[1:]:
                assert np.array_equal(
                    assignments[ENGINES[0]], assignments[engine]
                ), f"{config.name}: {engine} differs from {ENGINES[0]} ({proposing=})"

    def test_process_fit_bitwise_equals_serial(self, path: Path):
        golden = json.loads(path.read_text())
        config = ScenarioConfig.from_dict(golden["scenario"])
        market = generate_market(config, trial=0)
        attributes = market.fairness_attributes

        dca = DCA(
            attributes,
            market.score_function(),
            CORPUS_K,
            objective=DisparityObjective(attributes),
            config=replace(corpus_fit_config(), seed=config.seed * 1_000),
        )
        serial = dca.fit(market.table)
        (pooled,) = dca.fit_many(market.table, specs=[FitSpec()], executor="process")
        assert np.array_equal(serial.raw_bonus.values, pooled.result.raw_bonus.values)
        assert np.array_equal(serial.core_bonus.values, pooled.result.core_bonus.values)
        assert np.array_equal(serial.bonus.values, pooled.result.bonus.values)


class TestScenarioConfig:
    def test_round_trips_through_json(self):
        for config in builtin_scenarios():
            assert ScenarioConfig.from_json(config.to_json()) == config

    def test_builtins_are_distinct_and_valid(self):
        configs = builtin_scenarios()
        assert len({config.name for config in configs}) == len(configs) >= 6
        for config in configs:
            config.validate()

    def test_get_scenario(self):
        assert get_scenario("tie_storm").tie_levels is not None
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_validation_rejects_bad_shapes(self):
        base = builtin_scenarios()[0]
        with pytest.raises(ValueError, match="at least two protected"):
            replace(base, attributes=(AttributeSpec("solo", 0.5),)).validate()
        with pytest.raises(ValueError, match="ordinary school"):
            replace(
                base, num_schools=2, capacities=CapacitySpec(zero_schools=1, oversized_schools=1)
            ).validate()
        with pytest.raises(ValueError, match="unknown attributes"):
            replace(base, attribute_correlations=(("a", "b", 0.5),)).validate()
        with pytest.raises(ValueError, match="tie_levels"):
            replace(base, tie_levels=1).validate()
        with pytest.raises(ValueError, match="clustered preferences"):
            PreferenceSpec(model="clustered", clusters=1).validate()

    def test_scaled_changes_size_only(self):
        config = builtin_scenarios()[0]
        scaled = config.scaled(num_students=123, trials=1)
        assert (scaled.num_students, scaled.trials) == (123, 1)
        assert scaled.capacities == config.capacities
        assert config.scaled() is config


class TestMarketShapes:
    """Each built-in scenario realizes the shape its name promises."""

    def test_generation_is_deterministic(self):
        config = corpus_scenarios()[0]
        a = generate_market(config, trial=1)
        b = generate_market(config, trial=1)
        assert np.array_equal(a.base_scores, b.base_scores)
        assert np.array_equal(a.score_plane, b.score_plane)
        assert np.array_equal(a.preferences, b.preferences)
        assert a.capacities == b.capacities
        # A different trial is a different market from the same shape.
        c = generate_market(config, trial=2)
        assert not np.array_equal(a.base_scores, c.base_scores)

    def test_heavy_tail_concentrates_seats(self):
        market = generate_market(get_scenario("heavy_tailed_capacities"))
        seats = market.capacities
        assert seats[0] > 3 * seats[1] and seats[0] > 10 * seats[-1]

    def test_zero_capacity_mix_has_both_extremes(self):
        market = generate_market(get_scenario("zero_capacity_mix"))
        assert market.capacities[0] == 0 and market.capacities[1] == 0
        assert market.capacities[-1] >= market.num_students

    def test_tie_storm_crushes_score_levels(self):
        config = get_scenario("tie_storm")
        market = generate_market(config)
        assert np.unique(market.base_scores).size <= config.tie_levels
        assert np.unique(market.score_plane).size <= config.tie_levels

    def test_intersection_column_is_the_conjunction(self):
        market = generate_market(get_scenario("intersectional_groups").scaled(360))
        table = market.table
        product = table.numeric("low_income") * table.numeric("ell")
        assert np.array_equal(table.numeric("low_income_x_ell"), product)
        assert "low_income_x_ell" in market.fairness_attributes
        assert product.sum() > 0, "intersection must be non-empty at corpus size"

    def test_attribute_prevalences_are_calibrated(self):
        config = get_scenario("clustered_preferences")
        market = generate_market(config)
        for spec in config.attributes:
            observed = float(market.table.numeric(spec.name).mean())
            assert observed == pytest.approx(spec.prevalence, abs=0.06)

    def test_invalid_trial_rejected(self):
        with pytest.raises(ValueError, match="trial"):
            generate_market(builtin_scenarios()[0], trial=-1)


class TestDriver:
    def test_envelope_smoke(self):
        config = get_scenario("tiny_district")
        envelope = run_scenario(
            config,
            trials=2,
            engines=("heap", "vector"),
            executors=("serial", "process"),
        )
        assert envelope.trials == 2
        assert envelope.all_identical()
        assert envelope.identity == {
            "engines_identical": 1,
            "process_bitwise_identical": 1,
        }
        for key in ("disparity_norm_before", "ddp_after", "match_share_gap"):
            stats = envelope.fairness[key]
            assert stats["min"] <= stats["mean"] <= stats["max"]
        assert "fit_serial_seconds" in envelope.runtime
        assert "fit_process_seconds" in envelope.runtime
        assert "match_heap_seconds" in envelope.runtime

    def test_compensation_reduces_disparity(self):
        envelope = run_scenario(
            get_scenario("clustered_preferences").scaled(num_students=360), trials=1
        )
        fairness = envelope.fairness
        assert (
            fairness["disparity_norm_after"]["mean"]
            < fairness["disparity_norm_before"]["mean"]
        )
        assert (
            fairness["representation_gap_after"]["mean"]
            < fairness["representation_gap_before"]["mean"]
        )

    def test_rejects_unknown_grid_entries(self):
        config = get_scenario("tiny_district")
        with pytest.raises(ValueError, match="unknown engine"):
            run_scenario(config, engines=("warp",))
        with pytest.raises(ValueError, match="proposing"):
            run_scenario(config, proposing_sides=("nobody",))
        with pytest.raises(KeyError, match="unknown objective"):
            run_scenario(config, objectives=("novelty",), trials=1)
