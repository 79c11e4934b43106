"""Property-based tests of the scenario layer's determinism contracts.

The tentpole guarantees, stated as properties over randomized inputs:

* empirical CDF inverse-transform sampling is monotone in the uniform
  draw, and the declared mean matches the piecewise-linear table;
* the flow list is a pure function of (scenario, seed, duration) —
  byte-identical on repetition, over the whole catalogue;
* for the gadget patterns, distinct seeds yield disjoint flow-id streams
  (legs can always merge);
* Jain's index lands in (0, 1] on positive rates and is exactly 1 on
  equal allocations — the fairness figure embedded in every matrix leg.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.fairness import artifact_fairness, jain_index
from repro.scenarios import (
    GADGET_PATTERNS,
    get_scenario,
    scenario_flows,
    scenario_names,
)
from repro.workload.distributions import EmpiricalCdf, make_distribution

#: The empirical presets: the distributions defined by CDF tables.
_CDF_PRESETS = ("web-search", "data-mining", "internet")

seeds = st.integers(min_value=0, max_value=2**31)
builtin = st.sampled_from(scenario_names())
#: The paper's generators (``poisson``, ``long-lived``) number flows from
#: 1 under every seed, as per-flow scheduler state expects; the seed-range
#: fid promise is the gadget patterns' alone.
gadget = st.sampled_from([name for name in scenario_names()
                          if get_scenario(name).pattern in GADGET_PATTERNS])


# -- CDF inverse-transform sampling -------------------------------------


@settings(max_examples=40)
@given(
    name=st.sampled_from(_CDF_PRESETS),
    u1=st.floats(min_value=0.0, max_value=1.0),
    u2=st.floats(min_value=0.0, max_value=1.0),
)
def test_inverse_transform_is_monotone(name, u1, u2):
    """A larger uniform draw can never map to a smaller flow size."""
    dist = make_distribution(name)
    lo, hi = sorted((u1, u2))
    size_lo = float(np.interp(lo, dist._probs, dist._sizes))
    size_hi = float(np.interp(hi, dist._probs, dist._sizes))
    assert size_lo <= size_hi


@settings(max_examples=20)
@given(name=st.sampled_from(_CDF_PRESETS))
def test_declared_mean_matches_the_table(name):
    """mean() equals the dense-grid expectation of the inverse CDF."""
    dist = make_distribution(name)
    grid = np.linspace(0.0, 1.0, 200_001)
    dense_mean = float(np.trapezoid(np.interp(grid, dist._probs, dist._sizes),
                                    grid))
    assert abs(dist.mean() - dense_mean) <= 0.001 * dense_mean


@settings(max_examples=30)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10**7),
                   min_size=2, max_size=8, unique=True),
    seed=seeds,
)
def test_random_cdf_tables_sample_within_their_support(sizes, seed):
    points = sorted(sizes)
    n = len(points)
    cdf = EmpiricalCdf(
        [(s, i / (n - 1)) for i, s in enumerate(points)], name="random"
    )
    rng = np.random.default_rng(seed)
    for _ in range(10):
        assert points[0] <= cdf.sample(rng) <= points[-1] + 0.5


# -- flow-list determinism ----------------------------------------------


@settings(max_examples=25, deadline=None)
@given(name=builtin, seed=seeds)
def test_same_seed_yields_byte_identical_flow_lists(name, seed):
    # 6 ms at the default bandwidth scale is hundreds of Poisson flows
    # per paper topology (poisson_flows refuses an empty workload).
    scenario = get_scenario(name)
    a = scenario_flows(scenario, seed, 0.006)
    b = scenario_flows(scenario, seed, 0.006)
    assert a == b


@settings(max_examples=25, deadline=None)
@given(
    name=gadget,
    seed_a=st.integers(min_value=0, max_value=10_000),
    seed_b=st.integers(min_value=0, max_value=10_000),
)
def test_distinct_seeds_yield_disjoint_fid_streams(name, seed_a, seed_b):
    scenario = get_scenario(name)
    fids_a = {f.fid for f in scenario_flows(scenario, seed_a, 0.006)}
    fids_b = {f.fid for f in scenario_flows(scenario, seed_b, 0.006)}
    if seed_a == seed_b:
        assert fids_a == fids_b
    else:
        assert fids_a.isdisjoint(fids_b)


# -- Jain's fairness index ----------------------------------------------


@settings(max_examples=50)
@given(rates=st.lists(
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
    min_size=1, max_size=20,
))
def test_jain_in_unit_interval_on_positive_rates(rates):
    index = jain_index(rates)
    assert 0.0 < index <= 1.0 + 1e-12
    embedded = artifact_fairness(rates)
    assert 0.0 <= embedded <= 1.0


@settings(max_examples=50)
@given(
    rate=st.floats(min_value=1e-3, max_value=1e9),
    n=st.integers(min_value=1, max_value=50),
)
def test_jain_is_exactly_one_on_equal_allocations(rate, n):
    # Raw float arithmetic may be off by an ulp; the artifact rounding is
    # what guarantees equal allocations embed as exactly 1.0.
    assert jain_index([rate] * n) == 1.0 or (
        abs(jain_index([rate] * n) - 1.0) < 1e-9
    )
    assert artifact_fairness([rate] * n) == 1.0
