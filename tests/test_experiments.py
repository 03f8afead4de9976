"""Tests for the experiment harness and the registered experiments."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    get_experiment,
    list_experiments,
)
from repro.experiments.base import register_experiment

SMOKE = ExperimentConfig(seed=3, scale="smoke")

ALL_IDS = [eid for eid, _ in list_experiments()]


class TestConfig:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale="huge")

    def test_pick(self):
        cfg = ExperimentConfig(scale="smoke")
        assert cfg.pick(1, 2, 3) == 1
        assert ExperimentConfig(scale="full").pick(1, 2, 3) == 3


def _triple(x):
    return 3 * x


class TestParallelMap:
    def test_target_se_validation(self):
        with pytest.raises(ValueError, match="target_se"):
            ExperimentConfig(target_se=-0.1)

    def test_threads_match_serial(self):
        items = list(range(10))
        serial = ExperimentConfig(n_jobs=1).parallel_map(_triple, items)
        threads = ExperimentConfig(n_jobs=2).parallel_map(_triple, items)
        assert threads == serial == [3 * x for x in items]

    def test_estimator_kwargs_bundle(self, tmp_path):
        plain = ExperimentConfig().estimator_kwargs()
        assert plain == {}
        full = ExperimentConfig(
            target_se=0.01, cache_dir=str(tmp_path)
        ).estimator_kwargs()
        assert full["target_se"] == 0.01
        assert full["cache"] is not None
        assert ExperimentConfig().estimate_cache() is None


class TestRegistry:
    def test_expected_experiments_registered(self):
        assert set(ALL_IDS) == {
            "F1", "F2", "I0", "L1L2", "L3", "L5",
            "T2", "T3", "T4", "T5",
            "X1", "X2", "X3", "X4", "X5", "X6", "A1", "A2", "A3", "A4",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("NOPE")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment("F1", "dup")(lambda cfg: None)


class TestResultType:
    def test_to_table_contains_parts(self):
        res = ExperimentResult(
            experiment_id="T0",
            title="demo",
            claim="something holds",
            headers=["a", "b"],
            rows=[[1, 2.5]],
            observations=["seen it"],
        )
        table = res.to_table()
        assert "[T0] demo" in table
        assert "something holds" in table
        assert "observed: seen it" in table

    def test_column_extraction(self):
        res = ExperimentResult("T0", "t", "c", ["a", "b"], [[1, 2], [3, 4]])
        assert res.column("b") == [2, 4]

    def test_column_missing(self):
        res = ExperimentResult("T0", "t", "c", ["a"], [[1]])
        with pytest.raises(KeyError):
            res.column("zzz")


@pytest.mark.parametrize("eid", ALL_IDS)
class TestAllExperimentsSmoke:
    def test_runs_and_renders(self, eid):
        result = get_experiment(eid)(SMOKE)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == eid
        assert result.rows, f"{eid} produced no rows"
        assert result.observations, f"{eid} recorded no observations"
        table = result.to_table()
        assert eid in table


class TestPaperShapes:
    """The headline quantitative shapes, checked at smoke scale."""

    def test_f1_star_gain_goes_to_minus_three_eighths(self):
        result = get_experiment("F1")(SMOKE)
        gains = result.column("gain")
        directs = result.column("P_direct")
        delegs = result.column("P_delegation")
        assert all(p == pytest.approx(0.625) for p in delegs)
        assert directs[-1] > directs[0]
        assert gains[-1] < gains[0] < 0

    def test_f2_acyclic_and_upward(self):
        result = get_experiment("F2")(SMOKE)
        assert any("upward" in obs for obs in result.observations)
        assert not any("VIOLATED" in obs for obs in result.observations)

    def test_l3_bound_dominates_exact(self):
        result = get_experiment("L3")(SMOKE)
        flips = result.column("flip_exact")
        bounds = result.column("erf_bound")
        assert all(b >= f - 1e-9 for f, b in zip(flips, bounds))

    def test_l5_correctness_degrades_with_weight(self):
        result = get_experiment("L5")(SMOKE)
        probs = result.column("P_correct")
        assert probs[0] > probs[-1]
        assert probs == sorted(probs, reverse=True)

    def test_t2_spg_positive(self):
        result = get_experiment("T2")(SMOKE)
        spg_gains = [row[6] for row in result.rows if row[0] == "spg"]
        assert all(g > 0.05 for g in spg_gains)

    def test_t2_dnh_losses_small(self):
        result = get_experiment("T2")(SMOKE)
        dnh_gains = [row[6] for row in result.rows if row[0] == "dnh"]
        assert all(g > -0.05 for g in dnh_gains)

    def test_t3_spg_positive(self):
        result = get_experiment("T3")(SMOKE)
        spg_gains = [row[6] for row in result.rows if row[0] == "spg"]
        assert all(g > 0.0 for g in spg_gains)

    def test_x3_fig1_star_fails(self):
        result = get_experiment("X3")(SMOKE)
        fig1_rows = [r for r in result.rows if r[0] == "star(fig1-p)"]
        assert len(fig1_rows) == 1
        assert fig1_rows[0][5] is False or fig1_rows[0][5] == False  # noqa: E712
        # At smoke scale P_direct has not fully converged to 1 yet; the
        # loss approaches 3/8 from below as n grows.
        assert fig1_rows[0][6] < -0.3

    def test_a2_delegation_volume_monotone_in_threshold(self):
        result = get_experiment("A2")(SMOKE)
        delegators = result.column("delegators")
        assert delegators == sorted(delegators, reverse=True)
        assert delegators[-1] < delegators[0]
