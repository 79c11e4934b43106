"""The §5 open question, made measurable: how much information does the
ingress need for LSTF replay?

"We showed existence of a UPS with omniscient header initialization, and
nonexistence with limited-information initialization.  What is the least
information we can use in header initialization in order to achieve
universality?"

This extension degrades the black-box information — the target output
time ``o(p)`` — by quantising it to a grid of step ``q`` before slack
initialisation, while still judging the replay against the true targets.
``q`` is expressed in multiples of the bottleneck transmission time ``T``
so results are scale-free:

* ``q = 0`` is the paper's exact replay;
* small ``q`` models an ingress learning targets at reduced precision
  (fewer header bits / coarser clocks);
* large ``q`` degrades toward "no information".

Both rounding directions are supported: ``"down"`` (targets can only get
*tighter*, so failures mean packets the original schedule could still
have satisfied) and ``"nearest"`` (unbiased noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import Table
from repro.api.registry import register_experiment
from repro.api.spec import ExperimentSpec
from repro.core.replay import replay_schedule
from repro.errors import ConfigurationError
from repro.experiments.replayability import (
    ReplayScenario,
    get_recorded_schedule,
    schedule_prerequisites,
    spec_recording,
)

__all__ = ["QuantisationPoint", "run_information_experiment"]


@dataclass(frozen=True, slots=True)
class QuantisationPoint:
    """Replay quality at one quantisation step."""

    step_in_t: float
    fraction_overdue: float
    fraction_overdue_beyond_t: float
    max_lateness: float


#: How each rounding quantises ``o(p) / q``: the same values ``math.floor``
#: and the builtin ``round`` (half to even) give, for every row at once.
_ROUNDINGS = {"down": np.floor, "nearest": np.rint}


def run_information_experiment(
    steps_in_t: tuple[float, ...] = (0.0, 0.5, 1.0, 4.0, 16.0, 64.0),
    rounding: str = "down",
    scenario: ReplayScenario | None = None,
) -> list[QuantisationPoint]:
    """Sweep quantisation steps and measure LSTF replay degradation.

    Returns one :class:`QuantisationPoint` per step (in units of the
    schedule's bottleneck transmission time ``T``).
    """
    if scenario is None:
        scenario = ReplayScenario(name="information", duration=0.15, seed=1)
    schedule = get_recorded_schedule(scenario)
    threshold = schedule.threshold

    points: list[QuantisationPoint] = []
    for step_t in steps_in_t:
        if not 0 <= step_t < math.inf:  # NaN compares false; inf * 0 is NaN
            raise ConfigurationError(
                f"quantisation step must be finite and >= 0, got {step_t!r}")
        targets = None
        if step_t != 0:
            if rounding not in _ROUNDINGS:
                raise ConfigurationError(
                    f"rounding must be 'down' or 'nearest', got {rounding!r}")
            step = step_t * threshold
            targets = _ROUNDINGS[rounding](schedule.output / step) * step
        result = replay_schedule(schedule, scenario.network, mode="lstf",
                                 targets=targets)
        points.append(
            QuantisationPoint(
                step_in_t=step_t,
                fraction_overdue=result.fraction_overdue,
                fraction_overdue_beyond_t=result.fraction_overdue_beyond_threshold,
                max_lateness=result.max_lateness,
            )
        )
    return points


def _info_scenario(spec: ExperimentSpec) -> ReplayScenario:
    """The single recording an info spec sweeps over."""
    return spec_recording(
        spec, spec.schedulers[0] if spec.schedulers else "random")


def _info_prerequisites(spec: ExperimentSpec) -> dict:
    """Registry hook: the recording :func:`_info_scenario` names."""
    return schedule_prerequisites([_info_scenario(spec)])


@register_experiment(
    "info",
    help="§5 extension: replay quality vs quantised slack information",
    options=("rounding", "steps_in_t"),
    params=("duration", "seeds", "bandwidth_scale", "schedulers",
            "topology", "utilization"),
    prerequisites=_info_prerequisites,
)
def _run_info(spec: ExperimentSpec) -> tuple[Table, dict]:
    scenario = _info_scenario(spec)
    rounding = spec.option("rounding", "down")
    steps = spec.option("steps_in_t")
    kwargs: dict = {"scenario": scenario, "rounding": str(rounding)}
    if steps is not None:
        kwargs["steps_in_t"] = tuple(float(s) for s in steps)
    table = Table(
        ["quantisation (T)", "overdue", "overdue > T", "max lateness (s)"],
        title="§5 extension — replay vs information precision",
    )
    for point in run_information_experiment(**kwargs):
        table.add_row([point.step_in_t, point.fraction_overdue,
                       point.fraction_overdue_beyond_t, point.max_lateness])
    return table, {"rounding": str(rounding)}
