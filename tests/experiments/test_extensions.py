"""Tests for the paper's extension experiments (§3.3 weighted fairness,
§5 least-information replay)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import ExperimentSpec
from repro.errors import ConfigurationError
from repro.experiments.fairness import run_weighted_fairness_experiment
from repro.experiments.information import _ROUNDINGS, run_information_experiment
from repro.experiments.replayability import (
    ReplayScenario,
    scenario_schedule_key,
    spec_recording,
)


class TestWeightedFairness:
    @pytest.mark.parametrize("scheme", ["lstf", "fq"])
    def test_throughput_tracks_weights(self, scheme):
        achieved, normalised, result = run_weighted_fairness_experiment(
            ExperimentSpec("weighted", schedulers=(scheme,), options={
                "weights": (1.0, 2.0, 4.0), "horizon": 1.5}))[scheme]
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
            ExperimentSpec("weighted", schedulers=("lstf",), options={
                "weights": weights, "horizon": 0.5}))["lstf"]
        assert achieved.all()
        np.testing.assert_allclose(normalised * np.asarray(weights), achieved)

    def test_requires_two_flows(self):
        with pytest.raises(ConfigurationError, match="at least two flows"):
            run_weighted_fairness_experiment(ExperimentSpec(
                "weighted", options={"weights": (1.0,), "horizon": 0.5}))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="scheme 'drr'"):
            run_weighted_fairness_experiment(ExperimentSpec(
                "weighted", schedulers=("drr",), options={"horizon": 0.5}))


class TestInformationExperiment:
    def test_the_spec_records_what_the_scenario_did(self):
        """The spec these tests pass names the recording a hand-built
        ``ReplayScenario`` with the same duration and seed names: one
        store key, so one schedule."""
        spec = ExperimentSpec("info", duration=0.08, seeds=(2,))
        assert scenario_schedule_key(spec_recording(spec, "random")) == (
            scenario_schedule_key(
                ReplayScenario(name="info-test", duration=0.08, seed=2)))

    def test_degradation_is_monotone_ish(self):
        points = run_information_experiment(ExperimentSpec(
            "info", duration=0.08, seeds=(2,),
            options={"steps_in_t": (0.0, 1.0, 16.0, 64.0)}))
        overdue = [p.fraction_overdue_beyond_t for p in points]
        # Robust to ~T of target error (§5) ...
        assert overdue[1] < overdue[0] + 0.02
        # ... exact information is at least as good as heavily quantised.
        assert overdue[0] <= overdue[-1]
        # Coarse quantisation must hurt noticeably.
        assert overdue[-1] > overdue[0] + 0.01

    def test_zero_step_matches_exact_replay(self):
        spec = ExperimentSpec("info", duration=0.08, seeds=(2,),
                              options={"steps_in_t": (0.0,)})
        exact, = run_information_experiment(spec)
        again, = run_information_experiment(spec)
        assert exact.fraction_overdue == again.fraction_overdue

    def test_nearest_rounding_supported(self):
        points = run_information_experiment(ExperimentSpec(
            "info", duration=0.08, seeds=(2,),
            options={"steps_in_t": (2.0,), "rounding": "nearest"}))
        assert 0.0 <= points[0].fraction_overdue <= 1.0

    def test_bad_parameters_rejected(self):
        spec = ExperimentSpec("info", duration=0.05, seeds=(2,))
        with pytest.raises(ConfigurationError):
            run_information_experiment(spec.with_(options={"steps_in_t": (-1.0,)}))
        with pytest.raises(ConfigurationError):
            run_information_experiment(spec.with_(
                options={"steps_in_t": (1.0,), "rounding": "up"}))

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_a_non_finite_step_is_rejected(self, step):
        """A NaN step slips past ``step < 0``, and an infinite one turns
        every target into NaN (``0 * inf``)."""
        with pytest.raises(ConfigurationError, match="finite"):
            run_information_experiment(ExperimentSpec(
                "info", duration=0.05, seeds=(2,),
                options={"steps_in_t": (step,)}))

    @given(outputs=st.lists(st.floats(0.0, 1e3), max_size=20),
           step=st.floats(1e-9, 1.0),
           halves=st.lists(st.integers(0, 1_000), max_size=10))
    def test_column_quantisation_is_the_per_packet_loop(self, outputs, step, halves):
        """``np.floor`` / ``np.rint`` of ``o / q`` give the targets the
        per-packet ``math.floor`` / ``round`` (half to even) loop gave, bit
        for bit — ties included."""
        outputs = outputs + [(k + 0.5) * step for k in halves]
        column = np.array(outputs, dtype=np.float64)
        for rounding, reference in (("down", math.floor), ("nearest", round)):
            got = (_ROUNDINGS[rounding](column / step) * step).tolist()
            assert got == [reference(o / step) * step for o in outputs]
