"""Unit + property tests for the flow-size distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.distributions import (
    BoundedPareto,
    EmpiricalCdf,
    ExponentialSize,
    datacenter_distribution,
    distribution_names,
    internet_distribution,
    make_distribution,
    web_search_distribution,
)


class TestBoundedPareto:
    def test_samples_stay_in_bounds(self):
        dist = BoundedPareto(alpha=1.2, low=1_000, high=50_000)
        rng = np.random.default_rng(1)
        samples = [dist.sample(rng) for _ in range(2_000)]
        assert min(samples) >= 1_000
        assert max(samples) <= 50_000

    def test_empirical_mean_matches_analytic(self):
        dist = BoundedPareto(alpha=1.3, low=1_000, high=1_000_000)
        rng = np.random.default_rng(2)
        samples = [dist.sample(rng) for _ in range(60_000)]
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.08)

    def test_heavy_tail_shape(self):
        """Most flows are small; most bytes are in the large flows."""
        dist = BoundedPareto(alpha=1.1, low=1_000, high=10_000_000)
        rng = np.random.default_rng(3)
        samples = np.array([dist.sample(rng) for _ in range(20_000)])
        median = np.median(samples)
        assert median < dist.mean() / 2

    def test_deterministic_given_seed(self):
        dist = BoundedPareto()
        a = [dist.sample(np.random.default_rng(7)) for _ in range(10)]
        b = [dist.sample(np.random.default_rng(7)) for _ in range(10)]
        assert a == b

    @given(st.floats(min_value=-2.0, max_value=0.0))
    def test_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(WorkloadError):
            BoundedPareto(alpha=alpha)

    def test_rejects_bad_bounds(self):
        with pytest.raises(WorkloadError):
            BoundedPareto(low=100, high=100)

    def test_rejects_an_infinite_upper_bound(self):
        """It would sample NaN, which no flow size can be."""
        with pytest.raises(WorkloadError, match="< inf"):
            BoundedPareto(high=float("inf"))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_a_nan_or_infinite_alpha(self, alpha):
        with pytest.raises(WorkloadError, match="finite"):
            BoundedPareto(alpha=alpha)


class TestEmpiricalCdf:
    def test_preset_distributions_sample_in_range(self):
        rng = np.random.default_rng(4)
        for dist in (web_search_distribution(), datacenter_distribution(),
                     internet_distribution()):
            samples = [dist.sample(rng) for _ in range(500)]
            assert min(samples) >= 1
            assert max(samples) <= dist._sizes[-1]

    def test_mean_matches_montecarlo(self):
        dist = internet_distribution()
        rng = np.random.default_rng(5)
        samples = [dist.sample(rng) for _ in range(60_000)]
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.05)

    def test_rejects_decreasing_points(self):
        with pytest.raises(WorkloadError):
            EmpiricalCdf([(100, 0.0), (50, 1.0)])

    def test_rejects_cdf_not_ending_at_one(self):
        with pytest.raises(WorkloadError):
            EmpiricalCdf([(100, 0.0), (200, 0.9)])

    def test_rejects_single_point(self):
        with pytest.raises(WorkloadError):
            EmpiricalCdf([(100, 1.0)])


class TestExponentialSize:
    def test_mean(self):
        dist = ExponentialSize()
        rng = np.random.default_rng(6)
        samples = [dist.sample(rng) for _ in range(40_000)]
        assert dist.mean() == 30_000
        assert np.mean(samples) == pytest.approx(30_000, rel=0.05)


@settings(max_examples=25)
@given(
    alpha=st.floats(min_value=0.5, max_value=3.0),
    low=st.integers(min_value=100, max_value=10_000),
    span=st.integers(min_value=2, max_value=1_000),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_bounded_pareto_always_in_range(alpha, low, span, seed):
    dist = BoundedPareto(alpha=alpha, low=low, high=low * span)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        assert low <= dist.sample(rng) <= low * span


class TestNamedRegistry:
    def test_catalogue_contents(self):
        assert distribution_names() == (
            "data-mining", "exponential", "internet", "pareto", "web-search",
        )

    def test_empirical_preset_names_match_registry_keys(self):
        for name in ("web-search", "data-mining", "internet"):
            assert make_distribution(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            make_distribution("zipf")


# Every registered distribution, whatever its family, must uphold the
# sampler contract the scenario generators rely on: integer sizes >= 1,
# byte-identical streams per seed, and a mean() the samples agree with.

_names = st.sampled_from(distribution_names())


@settings(max_examples=30)
@given(name=_names, seed=st.integers(min_value=0, max_value=2**31))
def test_property_registered_sizes_positive_ints(name, seed):
    dist = make_distribution(name)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        size = dist.sample(rng)
        assert isinstance(size, int)
        assert size >= 1


@settings(max_examples=30)
@given(name=_names, seed=st.integers(min_value=0, max_value=2**31))
def test_property_registered_seeded_determinism(name, seed):
    a = [make_distribution(name).sample(np.random.default_rng(seed))
         for _ in range(10)]
    b = [make_distribution(name).sample(np.random.default_rng(seed))
         for _ in range(10)]
    assert a == b


@pytest.mark.parametrize("name", distribution_names())
def test_registered_sample_mean_tracks_declared_mean(name):
    dist = make_distribution(name)
    rng = np.random.default_rng(11)
    samples = [dist.sample(rng) for _ in range(60_000)]
    assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.1)
