"""Tests for the paper's extension experiments (§3.3 weighted fairness,
§5 least-information replay)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.fairness import run_weighted_fairness_experiment
from repro.experiments.information import run_information_experiment
from repro.experiments.replayability import ReplayScenario


class TestWeightedFairness:
    @pytest.mark.parametrize("scheme", ["lstf", "fq"])
    def test_throughput_tracks_weights(self, scheme):
        achieved, normalised, result = run_weighted_fairness_experiment(
            weights=(1.0, 2.0, 4.0), scheme=scheme, horizon=1.5
        )
        # Normalised (per-weight) rates should be nearly equal.
        assert normalised.max() / normalised.min() < 1.3
        assert result.final_fairness > 0.95
        # And the raw rates should be ordered by weight.
        assert achieved[0] < achieved[1] < achieved[2]

    def test_weights_applied(self):
        """Flow ``i`` (by flow id) carries ``weights[i]``: the normalised
        rates are the achieved ones divided by exactly that vector."""
        weights = (3.0, 1.0)
        achieved, normalised, _ = run_weighted_fairness_experiment(
            weights=weights, horizon=0.5
        )
        assert achieved.all()
        np.testing.assert_allclose(normalised * np.asarray(weights), achieved)

    def test_requires_two_flows(self):
        with pytest.raises(ValueError):
            run_weighted_fairness_experiment(weights=(1.0,), horizon=0.5)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_weighted_fairness_experiment(scheme="drr", horizon=0.5)


class TestInformationExperiment:
    def test_degradation_is_monotone_ish(self):
        scenario = ReplayScenario(name="info-test", duration=0.08, seed=2)
        points = run_information_experiment(
            steps_in_t=(0.0, 1.0, 16.0, 64.0), scenario=scenario
        )
        overdue = [p.fraction_overdue_beyond_t for p in points]
        # Robust to ~T of target error (§5) ...
        assert overdue[1] < overdue[0] + 0.02
        # ... exact information is at least as good as heavily quantised.
        assert overdue[0] <= overdue[-1]
        # Coarse quantisation must hurt noticeably.
        assert overdue[-1] > overdue[0] + 0.01

    def test_zero_step_matches_exact_replay(self):
        scenario = ReplayScenario(name="info-test", duration=0.08, seed=2)
        exact, = run_information_experiment(steps_in_t=(0.0,), scenario=scenario)
        again, = run_information_experiment(steps_in_t=(0.0,), scenario=scenario)
        assert exact.fraction_overdue == again.fraction_overdue

    def test_nearest_rounding_supported(self):
        scenario = ReplayScenario(name="info-test", duration=0.08, seed=2)
        points = run_information_experiment(
            steps_in_t=(2.0,), rounding="nearest", scenario=scenario
        )
        assert 0.0 <= points[0].fraction_overdue <= 1.0

    def test_bad_parameters_rejected(self):
        scenario = ReplayScenario(name="info-test", duration=0.05, seed=2)
        with pytest.raises(ConfigurationError):
            run_information_experiment(steps_in_t=(-1.0,), scenario=scenario)
        with pytest.raises(ConfigurationError):
            run_information_experiment(
                steps_in_t=(1.0,), rounding="up", scenario=scenario
            )
