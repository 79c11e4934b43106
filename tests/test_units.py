"""Unit tests for units/conversions and the error hierarchy."""

from __future__ import annotations

import math

import pytest

from repro import errors
from repro.units import tx_time


class TestTxTime:
    def test_mtu_at_gigabit(self):
        assert tx_time(1500, 1e9) == pytest.approx(12e-6)

    def test_infinite_bandwidth(self):
        assert tx_time(10**12, math.inf) == 0.0

    def test_zero_size(self):
        assert tx_time(0, 1e9) == 0.0

    @pytest.mark.parametrize("bw", [0.0, -5.0])
    def test_invalid_bandwidth(self, bw):
        with pytest.raises(ValueError):
            tx_time(1500, bw)

    def test_negative_size(self):
        with pytest.raises(ValueError):
            tx_time(-1, 1e9)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            errors.ConfigurationError,
            errors.RoutingError,
            errors.SimulationError,
            errors.SchedulerError,
            errors.ReplayError,
            errors.WorkloadError,
        ):
            assert issubclass(exc, errors.ReproError)

    def test_routing_is_a_configuration_error(self):
        assert issubclass(errors.RoutingError, errors.ConfigurationError)

    def test_catching_the_base_class(self):
        with pytest.raises(errors.ReproError):
            raise errors.ReplayError("boom")
