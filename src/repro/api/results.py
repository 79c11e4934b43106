"""Structured run artifacts.

A :class:`RunArtifact` is what an experiment run *produces*: the spec
that configured it, the result rows (raw, JSON-scalar cells), free-form
metadata from the driver, and wall-time accounting.  Artifacts serialise
to JSON, persist under an ``--out`` directory with deterministic
filenames, and render through the existing ASCII
:class:`~repro.analysis.tables.Table` — one pipeline from simulation to
terminal, file, or downstream tooling.

Determinism contract: :meth:`RunArtifact.canonical_json` excludes the
timing section, so two runs of the same spec — serial or in parallel
worker processes — must produce byte-identical canonical JSON.  The test
suite guards this.  Engine accounting splits accordingly: the *event
count* is deterministic and lives in ``metadata["engine_events"]``; the
*events/sec* rate is wall-clock derived and lives next to ``wall_time_s``
in the (canonically excluded) timing section.

Because :func:`spec_run_id` derives the artifact filename from the spec
alone, an ``--out`` directory doubles as a content-addressed cache: the
runner can answer a spec from a previously saved artifact without
simulating (see :func:`repro.api.runner.run`).  That cache is
:class:`ArtifactStore`, a :class:`~repro.core.store.ContentStore` codec
like the schedule and checkpoint stores, under the same contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.tables import Table
from repro.api.spec import ExperimentSpec
from repro.core.store import ContentStore
from repro.errors import ConfigurationError, require_fields

__all__ = ["ArtifactStore", "RunArtifact", "load_artifact", "spec_run_id"]

#: 2: ``metadata["engine_events"]`` counts one event per uncontended hop;
#: an artifact a two-events-per-hop build cached reads as a miss.
_ARTIFACT_VERSION = 2

#: The JSON kind of every field :meth:`RunArtifact.from_dict` reads.
_FIELD_KINDS = {
    "version": "integer", "spec": "object", "title": "string",
    "headers": "array of string", "rows": "array of array",
    "metadata": "object", "timings": "object", "obs": "object or null",
}
_TIMING_KINDS = {"wall_time_s": "number", "events_per_sec": "number"}


def spec_run_id(spec: ExperimentSpec) -> str:
    """A short deterministic id derived from the canonical spec."""
    digest = hashlib.sha256(
        json.dumps(spec.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    return f"{spec.experiment}-{digest[:10]}"


@dataclass(slots=True)
class RunArtifact:
    """The structured result of one experiment run."""

    spec: ExperimentSpec
    title: str
    headers: list[str]
    rows: list[list[Any]]
    metadata: dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    events_per_sec: float = 0.0
    #: Telemetry summary from the run's :class:`~repro.obs.hub.MetricsHub`,
    #: or None when observability was off.  Serialised next to the timing
    #: section and excluded from the canonical JSON for the same reason:
    #: sampled series must never be able to change what a run *means*.
    obs: dict[str, Any] | None = field(default=None, compare=False)
    #: True when this artifact was answered from an ``--out`` cache rather
    #: than simulated; never serialised, never part of equality.
    from_cache: bool = field(default=False, compare=False)

    @classmethod
    def from_table(
        cls,
        spec: ExperimentSpec,
        table: Table,
        metadata: Mapping[str, Any] | None = None,
        wall_time_s: float = 0.0,
        events_per_sec: float = 0.0,
    ) -> "RunArtifact":
        """Wrap a driver's rendered ``table`` (plus accounting) as an artifact."""
        return cls(
            spec=spec,
            title=table.title,
            headers=table.headers,
            rows=table.rows,
            metadata=dict(metadata or {}),
            wall_time_s=wall_time_s,
            events_per_sec=events_per_sec,
        )

    def table(self) -> Table:
        """Rebuild the renderable table (ASCII / CSV views)."""
        table = Table(self.headers, title=self.title)
        for row in self.rows:
            table.add_row(row)
        return table

    # -- serialisation ----------------------------------------------------

    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        """The artifact as JSON-serialisable data (see :meth:`from_dict`).

        ``include_timings=False`` drops the wall-clock section — the
        canonical, determinism-checked view.
        """
        payload: dict[str, Any] = {
            "version": _ARTIFACT_VERSION,
            "spec": self.spec.to_dict(),
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
            "metadata": dict(self.metadata),
        }
        if include_timings:
            payload["timings"] = {
                "wall_time_s": self.wall_time_s,
                "events_per_sec": self.events_per_sec,
            }
            if self.obs is not None:
                payload["obs"] = self.obs
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunArtifact":
        """Rebuild an artifact from :meth:`to_dict` output (or a saved file);
        a malformed document raises :class:`ConfigurationError`."""
        data = require_fields("artifact", data, _FIELD_KINDS,
                              required=("spec", "headers", "rows"))
        version = data.get("version", _ARTIFACT_VERSION)
        if version != _ARTIFACT_VERSION:
            raise ConfigurationError(
                f"artifact version {version!r} not supported "
                f"(expected {_ARTIFACT_VERSION})"
            )
        timings = require_fields("artifact timings", data.get("timings", {}),
                                 _TIMING_KINDS, required=())
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            title=data.get("title", ""),
            headers=list(data["headers"]),
            rows=[list(r) for r in data["rows"]],
            metadata=dict(data.get("metadata", {})),
            wall_time_s=float(timings.get("wall_time_s", 0.0)),
            events_per_sec=float(timings.get("events_per_sec", 0.0)),
            obs=data.get("obs"),
        )

    def to_json(self) -> str:
        """The whole artifact, timings included, as JSON indented by 2 (the
        saved form; :meth:`canonical_json` is the timing-free one)."""
        return json.dumps(self.to_dict(), indent=2)

    def canonical_json(self) -> str:
        """Timing-free, key-sorted JSON — byte-identical across reruns."""
        return json.dumps(
            self.to_dict(include_timings=False), sort_keys=True, separators=(",", ":")
        )

    # -- persistence ------------------------------------------------------

    def run_id(self) -> str:
        """A short deterministic id derived from the canonical spec."""
        return spec_run_id(self.spec)

    def save(self, out_dir: str | Path) -> Path:
        """Persist into the :class:`ArtifactStore` at ``out_dir``; returns
        the path.  The put is atomic, so concurrent workers sharing one
        cache directory never see a torn JSON, and racing savers of one
        run-id both succeed (determinism makes the contents identical)."""
        return ArtifactStore(out_dir).put(self.run_id(), self)


class ArtifactStore(ContentStore):
    """The artifact cache: ``<out_dir>/<run_id>.json``, keyed by
    :func:`spec_run_id`, one :meth:`RunArtifact.to_json` document per
    entry.  The runner reads it with :meth:`get` and writes it through
    :meth:`RunArtifact.save`, neither of which logs."""

    __slots__ = ()

    SUFFIX = ".json"
    LOG_NAME = "artifacts.log"

    def encode(self, artifact: RunArtifact) -> bytes:
        return (artifact.to_json() + "\n").encode()

    def load(self, path: Path) -> RunArtifact:
        return RunArtifact.from_dict(json.loads(path.read_bytes()))


def load_artifact(path: str | Path) -> RunArtifact:
    """Read an artifact previously written by :meth:`RunArtifact.save`."""
    path = Path(path)
    return ArtifactStore(path.parent).load(path)
