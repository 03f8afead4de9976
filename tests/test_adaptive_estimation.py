"""Adaptive-precision (``target_se``) stopping-rule tests.

Pins the determinism contract: the stopping round is a function of the
seed alone — identical across repeated calls and across ``n_jobs`` —
and an adaptive run's values are a prefix of the same-seed fixed run's,
so truncating the fixed run at the stop round reproduces the adaptive
estimate exactly.
"""

from __future__ import annotations

import pytest
from numpy.random import SeedSequence

from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import complete_graph
from repro.mechanisms.threshold import ApprovalThreshold
from repro.voting.montecarlo import (
    ADAPTIVE_START,
    BatchEstimator,
    _reference_batch_rounds,
    estimate_ballot_probability,
    estimate_correct_probability,
    estimate_gain,
)
from repro.voting.outcome import TiePolicy


def _instance(n: int = 24, seed: int = 0) -> ProblemInstance:
    comp = bounded_uniform_competencies(n, 0.35, seed=seed)
    return ProblemInstance(complete_graph(n), comp, alpha=0.05)


MECH = ApprovalThreshold(2)


class TestAdaptiveStopping:
    def test_stop_round_deterministic(self):
        inst = _instance()
        runs = [
            estimate_correct_probability(
                inst, MECH, rounds=512, seed=SeedSequence(7),
                engine="batch", target_se=1e-4,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].rounds in {64, 128, 256, 512}

    @pytest.mark.parametrize("engine", ["batch"])
    def test_geometric_schedule_starts_at_adaptive_start(self, engine):
        est = estimate_correct_probability(
            _instance(), MECH, rounds=400, seed=SeedSequence(1),
            engine=engine, target_se=0.5,
        )
        assert est.rounds == ADAPTIVE_START
        assert est.converged

    def test_n_jobs_invariance(self):
        inst = _instance()
        baseline = estimate_correct_probability(
            inst, MECH, rounds=512, seed=SeedSequence(3),
            engine="batch", target_se=1e-4, n_jobs=1,
        )
        fanned = estimate_correct_probability(
            inst, MECH, rounds=512, seed=SeedSequence(3),
            engine="batch", target_se=1e-4, n_jobs=3,
        )
        assert baseline == fanned

    @pytest.mark.parametrize("engine", ["batch"])
    def test_target_met_or_cap_hit(self, engine):
        inst = _instance()
        easy = estimate_correct_probability(
            inst, MECH, rounds=400, seed=SeedSequence(2),
            engine=engine, target_se=0.05,
        )
        assert easy.converged and easy.std_error <= 0.05
        # The naive 0/1 estimator cannot reach SE 1e-3 in 100 rounds.
        hard = estimate_correct_probability(
            inst, MECH, rounds=100, seed=SeedSequence(2), engine=engine,
            exact_conditional=False, target_se=1e-3,
        )
        assert not hard.converged
        assert hard.rounds == 100
        assert hard.std_error > 1e-3

    @pytest.mark.parametrize("engine", ["batch"])
    def test_adaptive_prefix_matches_fixed_run(self, engine):
        """Truncating the fixed run at the stop round is the adaptive run."""
        inst = _instance()
        adaptive = estimate_correct_probability(
            inst, MECH, rounds=512, seed=SeedSequence(11),
            engine=engine, target_se=0.02,
        )
        fixed = estimate_correct_probability(
            inst, MECH, rounds=adaptive.rounds, seed=SeedSequence(11),
            engine=engine,
        )
        assert adaptive == fixed or (
            adaptive.probability == fixed.probability
            and adaptive.std_error == fixed.std_error
            and not adaptive.converged
        )

    @pytest.mark.parametrize("engine", ["batch"])
    def test_target_se_none_reproduces_fixed_rounds(self, engine):
        inst = _instance()
        plain = estimate_correct_probability(
            inst, MECH, rounds=80, seed=SeedSequence(4), engine=engine
        )
        explicit = estimate_correct_probability(
            inst, MECH, rounds=80, seed=SeedSequence(4), engine=engine,
            target_se=None,
        )
        assert plain == explicit
        assert plain.converged  # fixed-rounds estimates are trivially so

    def test_max_rounds_extends_beyond_rounds(self):
        inst = _instance()
        est = estimate_correct_probability(
            inst, MECH, rounds=64, seed=SeedSequence(5), engine="batch",
            exact_conditional=False, target_se=1e-3, max_rounds=256,
        )
        assert est.rounds == 256

    def test_batch_estimator_direct(self):
        est = BatchEstimator().estimate(
            _instance(), MECH, rounds=400, seed=SeedSequence(9),
            target_se=0.05, tie_policy=TiePolicy.COIN_FLIP,
        )
        assert est.converged
        assert est.rounds <= 400


class TestAdaptiveValidation:
    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="rounds"):
            estimate_correct_probability(_instance(), MECH, rounds=0)

    def test_target_se_must_be_positive(self):
        with pytest.raises(ValueError, match="target_se"):
            estimate_correct_probability(
                _instance(), MECH, rounds=10, target_se=0.0
            )

    def test_max_rounds_requires_target_se(self):
        with pytest.raises(ValueError, match="max_rounds requires"):
            estimate_correct_probability(
                _instance(), MECH, rounds=10, max_rounds=100
            )

    def test_max_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="max_rounds"):
            estimate_correct_probability(
                _instance(), MECH, rounds=10, target_se=0.1, max_rounds=0
            )

    def test_ballot_rounds_validated(self):
        with pytest.raises(ValueError, match="rounds"):
            estimate_ballot_probability(_instance(), MECH, rounds=0)


class TestAdaptiveSiblings:
    def test_estimate_gain_forwards_adaptive_knobs(self):
        gain, est, direct = estimate_gain(
            _instance(), MECH, rounds=512, seed=SeedSequence(6),
            engine="batch", target_se=0.05,
        )
        assert est.converged
        assert est.rounds < 512
        assert gain == pytest.approx(est.probability - direct)

    @pytest.mark.parametrize("engine", ["batch"])
    def test_ballot_adaptive(self, engine):
        est = estimate_ballot_probability(
            _instance(), MECH, rounds=400, seed=SeedSequence(8),
            engine=engine, target_se=0.05,
        )
        assert est.converged
        assert est.rounds <= 400

    def test_ballot_n_jobs_invariance(self):
        inst = _instance()
        one = estimate_ballot_probability(
            inst, MECH, rounds=96, seed=SeedSequence(10), engine="batch",
        )
        three = estimate_ballot_probability(
            inst, MECH, rounds=96, seed=SeedSequence(10), engine="batch",
            n_jobs=3,
        )
        assert one == three

    def test_ballot_matches_forest_estimate_for_never_abstaining(self):
        """Ballots of non-abstaining mechanisms equal the forest estimate.

        The ballot path samples per-round forests on child seeds — the
        reference engine's stream — so it is pinned against the
        ``_reference_batch_rounds`` oracle.
        """
        inst = _instance()
        batch_ballot = estimate_ballot_probability(
            inst, MECH, rounds=32, seed=SeedSequence(12), engine="batch"
        )
        reference = _reference_batch_rounds(
            inst, MECH, SeedSequence(12), 0, 32, TiePolicy.INCORRECT, True,
            512,
        )
        assert batch_ballot.probability == pytest.approx(reference.mean())
