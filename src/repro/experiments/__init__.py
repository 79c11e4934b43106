"""Experiment orchestration: one module per paper artefact.

Every module registers a declarative driver with
:mod:`repro.api.registry` (``table1``, ``fig1`` … ``gadgets``) that reads
one :class:`~repro.api.spec.ExperimentSpec`, the single place its
defaults live.  Where a caller wants more than the artefact's table, the
module's ``run_*`` function (``run_fct_experiment(spec)`` …) takes the
same spec and returns the structured results the driver renders; the
``examples/`` scripts and the paper-shape tests call those.  No module
builds a network or traffic inline: each names a catalogue
:class:`~repro.scenarios.Scenario` — one of the paper's five topologies
under Poisson load, or the long-lived dumbbell — and varies it with
``with_()``, so the scenario catalogue is the one description of every
simulated setting.  What a driver keeps is what its comparison varies:
the scheduler, transport, buffers and slack policy (docs/paper-map.md
has the scaling argument: all bandwidth ratios, utilisations, and
scheduler logic are preserved; only the event count shrinks).

The artefact itself comes from the runner::

    from repro.api import ExperimentSpec, run
    artifact = run(ExperimentSpec("fig2", duration=0.2))

* :mod:`repro.experiments.replayability` — Table 1, Figure 1, the §2.3(7)
  priority comparison and the §2.3(5) preemption ablation.
* :mod:`repro.experiments.fct` — Figure 2 (mean FCT vs SJF/SRPT/FIFO).
* :mod:`repro.experiments.tail` — Figure 3 (tail delays vs FIFO).
* :mod:`repro.experiments.fairness` — Figure 4 (convergence to fairness)
  and the §3.3 weighted-fairness extension.
* :mod:`repro.experiments.information` — the §5 information-precision
  extension.
* :mod:`repro.experiments.gadgets` — the appendix counter-examples.
* :mod:`repro.experiments.branch` — branch-from-checkpoint sweeps
  (simulate-once-branch-many; see ``docs/checkpointing.md``).
* :mod:`repro.experiments.scenario_matrix` — declarative scenarios ×
  schedulers × seeds with fairness/utilisation summaries (see
  ``docs/scenarios.md``).
"""

from repro.experiments.replayability import (
    ReplayOutcome,
    ReplayScenario,
    build_recorded_schedule,
    get_recorded_schedule,
    run_replay,
    scenario_schedule_key,
    spec_recording,
    table1_scenarios,
    validate_row_indices,
)
from repro.experiments.fct import FctExperimentResult, run_fct_experiment
from repro.experiments.tail import TailExperimentResult, run_tail_experiment
from repro.experiments.fairness import (
    FairnessExperimentResult,
    run_fairness_experiment,
    run_weighted_fairness_experiment,
)
from repro.experiments.information import QuantisationPoint, run_information_experiment
from repro.experiments import gadgets  # noqa: F401 - registers the "gadgets" driver
from repro.experiments.branch import (
    BranchPrefix,
    branch_checkpoint_key,
    build_branch_snapshot,
    get_branch_network,
    prefix_from_spec,
)
from repro.experiments.scenario_matrix import run_scenario_leg

__all__ = [
    "BranchPrefix",
    "FairnessExperimentResult",
    "FctExperimentResult",
    "QuantisationPoint",
    "ReplayOutcome",
    "ReplayScenario",
    "TailExperimentResult",
    "branch_checkpoint_key",
    "build_branch_snapshot",
    "build_recorded_schedule",
    "get_branch_network",
    "prefix_from_spec",
    "get_recorded_schedule",
    "run_fairness_experiment",
    "run_fct_experiment",
    "run_information_experiment",
    "run_replay",
    "run_scenario_leg",
    "run_tail_experiment",
    "run_weighted_fairness_experiment",
    "scenario_schedule_key",
    "spec_recording",
    "table1_scenarios",
    "validate_row_indices",
]
