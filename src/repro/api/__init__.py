"""The unified experiment API: spec → experiment table → runner → artifact.

Every paper artefact (and every future scenario) is driven the same way::

    from repro.api import ExperimentSpec, run, run_many

    artifact = run(ExperimentSpec("table1", duration=0.1))
    print(artifact.table().render())          # the ASCII table
    artifact.save("artifacts/")               # a JSON RunArtifact

    # a seed sweep across two worker processes
    sweep = ExperimentSpec("fig3", seeds=(1, 2, 3, 4)).sweep()
    artifacts = run_many(sweep, workers=2)

The pieces:

* :mod:`repro.api.spec` — :class:`ExperimentSpec`, the frozen,
  JSON-round-trippable description of one run or sweep;
* :mod:`repro.api.registry` — ``@register_experiment``, :func:`get`
  and :func:`experiment_names`, the one table mapping names like
  ``"fig2"`` to spec-driven drivers;
* :mod:`repro.api.runner` — :func:`run` / :func:`run_many`, serial,
  ``multiprocessing`` or job-queue execution with wall-time capture;
* :mod:`repro.api.results` — :class:`RunArtifact`, the structured
  result that serialises to JSON and renders through
  :class:`~repro.analysis.tables.Table`.
"""

from repro.api.registry import (
    RegisteredExperiment,
    experiment_names,
    get,
    register_experiment,
)
from repro.api.results import RunArtifact, load_artifact, spec_run_id
from repro.api.runner import cached_artifact, run, run_many
from repro.api.spec import ExperimentSpec

__all__ = [
    "ExperimentSpec",
    "RegisteredExperiment",
    "RunArtifact",
    "cached_artifact",
    "experiment_names",
    "get",
    "load_artifact",
    "register_experiment",
    "run",
    "run_many",
    "spec_run_id",
]
