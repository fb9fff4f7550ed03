"""Unit and behaviour tests for Core DCA, the refinement step, DCA, and Full DCA."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DCA,
    BonusVector,
    CoreDCA,
    DCAConfig,
    DisparityCalculator,
    DisparityObjective,
    FullDCA,
    fit_bonus_points,
)
from repro.ranking import ColumnScore
from repro.tabular import Table


def biased_population(n: int = 2000, seed: int = 0) -> Table:
    """A simple population where the protected group scores one point lower."""
    rng = np.random.default_rng(seed)
    protected = (rng.uniform(size=n) < 0.3).astype(float)
    score = rng.normal(10.0, 2.0, size=n) - 2.0 * protected
    return Table({"score": score, "protected": protected})


class TestDCAValidation:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DCA(["protected"], ColumnScore("score"), k=0.0)

    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            DCA([], ColumnScore("score"), k=0.1)

    def test_empty_table_rejected(self):
        dca = DCA(["protected"], ColumnScore("score"), k=0.1, config=DCAConfig(seed=0))
        with pytest.raises(ValueError):
            dca.fit(Table({"score": [], "protected": []}))


    @pytest.mark.parametrize(
        "bad_rows", [[3, 7], slice(None)], ids=["two-scores", "every-score"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad_rows, bad):
        population = biased_population(200)
        score = population.numeric("score").copy()
        score[bad_rows] = bad
        table = Table({"score": score, "protected": population.numeric("protected")})
        count = 200 - int(np.isfinite(score).sum())
        message = f"{count} of 200 base scores are not finite"
        config = DCAConfig(seed=0, iterations=5, refinement_iterations=5, sample_size=100)
        dca = DCA(["protected"], ColumnScore("score"), k=0.2, config=config)
        with pytest.raises(ValueError, match=message):
            dca.fit(table)
        full = FullDCA(["protected"], ColumnScore("score"), k=0.2, config=config)
        with pytest.raises(ValueError, match=message):
            full.fit(table)
        for executor in ("serial", "process"):
            with pytest.raises(ValueError, match=message):
                dca.fit_many(table, seeds=(1, 2), executor=executor, max_workers=2)

    @pytest.mark.parametrize(
        "bad_rows, bad", [([3, 7], np.nan), ([5], np.inf), ([9], -np.inf)],
        ids=["two-nan", "one-inf", "one-minus-inf"],
    )
    def test_non_finite_attributes_rejected(self, bad_rows, bad, monkeypatch):
        population = biased_population(200)
        eni = np.random.default_rng(1).uniform(size=200)
        eni[bad_rows] = bad
        table = population.with_column("eni", eni)
        message = f"fairness attribute 'eni' has {len(bad_rows)} of 200 values that are not finite"
        config = DCAConfig(seed=0, iterations=5, refinement_iterations=5, sample_size=100)
        attributes = ["protected", "eni"]
        dca = DCA(attributes, ColumnScore("score"), k=0.2, config=config)
        with pytest.raises(ValueError, match=message):
            dca.fit(table)
        full = FullDCA(attributes, ColumnScore("score"), k=0.2, config=config)
        with pytest.raises(ValueError, match=message):
            full.fit(table)

        def no_plane(*args, **kwargs):
            raise AssertionError("a shared-memory plane was built before the check")

        monkeypatch.setattr("repro.core.dca.SharedPopulationPlane", no_plane)
        for executor in ("serial", "process"):
            with pytest.raises(ValueError, match=message):
                dca.fit_many(table, seeds=(1, 2), executor=executor, max_workers=2)

    def test_finite_float_attributes_accepted(self):
        population = biased_population(300)
        # Finite values whose sum overflows to inf must not be mistaken for inf.
        huge = np.full(300, 1e308)
        table = population.with_column("huge", huge)
        config = DCAConfig(seed=0, iterations=3, refinement_iterations=0, sample_size=100)
        result = DCA(["protected", "huge"], ColumnScore("score"), k=0.2, config=config).fit(table)
        assert np.all(np.isfinite(result.bonus.values))

    def test_objective_attribute_order_must_match(self):
        reversed_objective = DisparityObjective(["b", "a"])
        for cls in (DCA, FullDCA):
            with pytest.raises(ValueError, match="must match the fairness attributes"):
                cls(["a", "b"], ColumnScore("score"), k=0.1, objective=reversed_objective)

    def test_full_dca_validates_config_eagerly(self):
        with pytest.raises(ValueError, match="iterations must be positive"):
            FullDCA(["protected"], ColumnScore("score"), k=0.1, config=DCAConfig(iterations=0))


class TestCoreDCA:
    def test_reduces_disparity_on_biased_population(self):
        table = biased_population()
        config = DCAConfig(seed=1, iterations=80, refinement_iterations=0, sample_size=400)
        objective = DisparityObjective(["protected"]).fit(table)
        core = CoreDCA(table, ColumnScore("score"), objective, k=0.2, config=config)
        bonus_values, traces = core.run()
        calculator = DisparityCalculator(["protected"]).fit(table)
        before = calculator.disparity(table, table.numeric("score"), 0.2)
        bonus = BonusVector(attribute_names=("protected",), values=bonus_values)
        after = calculator.disparity(table, bonus.apply(table, table.numeric("score")), 0.2)
        assert abs(after["protected"]) < abs(before["protected"]) / 2

    def test_bonus_stays_non_negative(self):
        table = biased_population()
        config = DCAConfig(seed=2, iterations=50, refinement_iterations=0, sample_size=300)
        objective = DisparityObjective(["protected"]).fit(table)
        core = CoreDCA(table, ColumnScore("score"), objective, k=0.2, config=config)
        bonus_values, traces = core.run()
        assert np.all(bonus_values >= 0.0)
        for trace in traces:
            assert np.all(trace.bonus_history >= 0.0)

    def test_traces_have_one_entry_per_learning_rate(self):
        table = biased_population(500)
        config = DCAConfig(seed=3, iterations=10, refinement_iterations=0, sample_size=200)
        objective = DisparityObjective(["protected"]).fit(table)
        core = CoreDCA(table, ColumnScore("score"), objective, k=0.2, config=config)
        _, traces = core.run()
        assert len(traces) == len(config.learning_rates)
        assert all(trace.iterations == config.iterations for trace in traces)

    def test_respects_max_bonus(self):
        table = biased_population()
        config = DCAConfig(
            seed=4, iterations=60, refinement_iterations=0, sample_size=300, max_bonus=0.5
        )
        objective = DisparityObjective(["protected"]).fit(table)
        core = CoreDCA(table, ColumnScore("score"), objective, k=0.2, config=config)
        bonus_values, _ = core.run()
        assert np.all(bonus_values <= 0.5 + 1e-12)

    def test_sample_size_rule_used_when_not_fixed(self):
        table = biased_population()
        config = DCAConfig(seed=5, sample_size=None)
        objective = DisparityObjective(["protected"]).fit(table)
        core = CoreDCA(table, ColumnScore("score"), objective, k=0.2, config=config)
        # rarest group ≈ 30%, k = 20% → max(30/0.2, 30/0.3) = 150, floored at 100.
        assert core.sample_size >= 100


class TestDCAFacade:
    @pytest.fixture(scope="class")
    def fitted(self):
        table = biased_population()
        config = DCAConfig(seed=11, iterations=60, refinement_iterations=80, sample_size=400)
        dca = DCA(["protected"], ColumnScore("score"), k=0.2, config=config)
        return table, dca, dca.fit(table)

    def test_result_contains_all_attributes(self, fitted):
        _, _, result = fitted
        assert result.attribute_names == ("protected",)
        assert set(result.as_dict()) == {"protected"}

    def test_disparity_nearly_eliminated(self, fitted):
        table, dca, result = fitted
        calculator = DisparityCalculator(["protected"]).fit(table)
        compensated = dca.compensated_scores(table, result.bonus)
        after = calculator.disparity(table, compensated, 0.2)
        assert abs(after["protected"]) < 0.03

    def test_bonus_rounded_to_granularity(self, fitted):
        _, _, result = fitted
        for value in result.bonus.values:
            assert value == pytest.approx(round(value / 0.5) * 0.5)

    def test_raw_bonus_close_to_rounded(self, fitted):
        _, _, result = fitted
        assert np.all(np.abs(result.raw_bonus.values - result.bonus.values) <= 0.25 + 1e-9)

    def test_traces_cover_core_and_refinement(self, fitted):
        _, _, result = fitted
        phases = [trace.phase for trace in result.traces]
        assert any(phase.startswith("core") for phase in phases)
        assert "refinement" in phases

    def test_elapsed_and_sample_size_recorded(self, fitted):
        _, _, result = fitted
        assert result.elapsed_seconds > 0
        assert result.sample_size == 400

    def test_summary_mentions_all_attributes(self, fitted):
        _, _, result = fitted
        assert "protected" in result.summary()

    def test_deterministic_given_seed(self):
        table = biased_population()
        config = DCAConfig(seed=42, iterations=40, refinement_iterations=40, sample_size=300)
        first = DCA(["protected"], ColumnScore("score"), k=0.2, config=config).fit(table)
        second = DCA(["protected"], ColumnScore("score"), k=0.2, config=config).fit(table)
        assert first.as_dict() == second.as_dict()

    def test_fit_bonus_points_helper(self):
        table = biased_population(800)
        config = DCAConfig(seed=1, iterations=30, refinement_iterations=30, sample_size=300)
        result = fit_bonus_points(table, ["protected"], ColumnScore("score"), 0.2, config=config)
        assert result.bonus["protected"] >= 0.0

    def test_refinement_improves_over_core(self):
        """On the school-sized problem the refinement should not hurt, and
        typically improves the residual disparity (paper Figure 8a)."""
        table = biased_population(4000, seed=9)
        base = DCAConfig(seed=7, iterations=60, sample_size=400, refinement_iterations=120)
        core_only = base.without_refinement()
        calculator = DisparityCalculator(["protected"]).fit(table)

        def residual(config):
            result = DCA(["protected"], ColumnScore("score"), k=0.1, config=config).fit(table)
            scores = result.bonus.apply(table, table.numeric("score"))
            return abs(calculator.disparity(table, scores, 0.1)["protected"])

        assert residual(base) <= residual(core_only) + 0.02


class TestFullDCA:
    def test_full_dca_eliminates_disparity(self):
        table = biased_population(1500)
        config = DCAConfig(seed=2, iterations=60, refinement_iterations=0)
        full = FullDCA(["protected"], ColumnScore("score"), k=0.2, config=config)
        result = full.fit(table)
        calculator = DisparityCalculator(["protected"]).fit(table)
        scores = result.bonus.apply(table, table.numeric("score"))
        assert abs(calculator.disparity(table, scores, 0.2)["protected"]) < 0.05

    def test_full_dca_is_deterministic(self):
        table = biased_population(800)
        config = DCAConfig(seed=3, iterations=30, refinement_iterations=0)
        a = FullDCA(["protected"], ColumnScore("score"), k=0.2, config=config).fit(table)
        b = FullDCA(["protected"], ColumnScore("score"), k=0.2, config=config).fit(table)
        assert a.as_dict() == b.as_dict()

    def test_full_dca_uses_whole_dataset(self):
        table = biased_population(800)
        config = DCAConfig(seed=4, iterations=10, refinement_iterations=0)
        result = FullDCA(["protected"], ColumnScore("score"), k=0.2, config=config).fit(table)
        assert result.sample_size == table.num_rows


class TestMultiAttribute:
    def test_overlapping_attributes_both_compensated(self):
        """Two correlated protected attributes both reach near-parity."""
        rng = np.random.default_rng(5)
        n = 3000
        a = (rng.uniform(size=n) < 0.3).astype(float)
        b = ((rng.uniform(size=n) < 0.5) & (a > 0)).astype(float)  # subset of a
        b += ((rng.uniform(size=n) < 0.1) & (a == 0)).astype(float)
        b = np.clip(b, 0, 1)
        score = rng.normal(10, 2, size=n) - 1.5 * a - 1.0 * b
        table = Table({"score": score, "a": a, "b": b})
        config = DCAConfig(seed=6, iterations=80, refinement_iterations=120, sample_size=500)
        result = DCA(["a", "b"], ColumnScore("score"), k=0.2, config=config).fit(table)
        calculator = DisparityCalculator(["a", "b"]).fit(table)
        compensated = result.bonus.apply(table, table.numeric("score"))
        after = calculator.disparity(table, compensated, 0.2)
        assert abs(after["a"]) < 0.05
        assert abs(after["b"]) < 0.05
