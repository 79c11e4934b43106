"""Exception hierarchy for the ``repro`` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime events.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Mapping, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A simulation object was built or wired incorrectly.

    Examples: adding a duplicate node, linking a node to itself, installing
    a scheduler after the simulation has started, or requesting a route
    between disconnected nodes.
    """


class RoutingError(ConfigurationError):
    """No route exists between the requested endpoints."""


class SimulationError(ReproError):
    """An invariant was violated while the event loop was running."""


class SchedulerError(ReproError):
    """A scheduler was used in a way its contract forbids.

    Examples: popping from an empty queue, or feeding an omniscient
    scheduler a packet that carries no per-hop timetable.
    """


class ReplayError(ReproError):
    """A recorded schedule cannot be replayed as requested.

    Examples: replaying onto a topology that is missing nodes the recorded
    paths traverse, or asking for a replay mode that needs per-hop times
    when only black-box information was recorded.
    """


class CheckpointError(ReproError):
    """A checkpoint file cannot be loaded as requested.

    Examples: a foreign or truncated file, an unsupported format version,
    or a payload whose bytes no longer match the recorded content hash.
    """


class StoreError(ReproError):
    """A content-store entry exists but the filesystem refuses to read it.

    Examples: ``EIO`` from a failing disk, or ``EACCES`` on an entry
    another user wrote.  A missing or corrupt entry is not this error —
    it is a miss the store rebuilds and heals.
    """


class WorkloadError(ReproError):
    """A workload generator received unsatisfiable parameters."""


class ClusterError(ReproError):
    """The distributed queue/worker machinery failed or was misused.

    Examples: gathering jobs that were never submitted, a queue directory
    that is not a job queue, or a gather that timed out.
    """


class JobFailedError(ClusterError):
    """A queued job reached a terminal failure.

    Raised by :func:`repro.cluster.client.gather` when a job exhausted its
    retry budget (or failed fatally on a configuration error); carries the
    queue's recorded error string for each failed job.
    """


def require_positive_int(value: object, name: str) -> int:
    """Validate a count-like knob: an ``int`` >= 1 (bools rejected).

    Returns ``value`` unchanged, or raises :class:`ConfigurationError`
    naming ``name`` — the one validator behind ``workers`` /
    ``batch_size`` / claim sizes, so they can never drift apart.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(
            f"{name} must be an integer >= 1, got {value!r}"
        )
    return value


def require_positive_finite(value: object, name: str) -> float:
    """Validate a duration-like knob: a real number, finite and > 0.

    Returns ``float(value)``, or raises :class:`ConfigurationError`
    naming ``name`` (bools, NaN and infinities rejected) — the one
    validator behind leases, poll intervals, timeouts and the spec's
    horizons, so a NaN can never reach a deadline column or a wait.
    """
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (value > 0 and math.isfinite(value))):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def require_choice(values: Iterable[object], choices: Sequence, what: str) -> None:
    """Refuse the first of ``values`` outside ``choices``: a
    :class:`ConfigurationError` reading ``unknown <what> …; choose from …``."""
    for value in values:
        if value not in choices:
            raise ConfigurationError(
                f"unknown {what} {value!r}; choose from {choices}")


#: The JSON value kinds :func:`require_fields` checks (a bool is none of them).
_JSON_KINDS = {"string": str, "integer": int, "number": (int, float),
               "object": Mapping, "array": (list, tuple)}


def _is_kind(value: object, kind: str) -> bool:
    if kind.endswith(" or null"):
        return value is None or _is_kind(value, kind[:-len(" or null")])
    if kind.startswith("array of "):
        return isinstance(value, (list, tuple)) and all(
            _is_kind(item, kind[len("array of "):]) for item in value)
    return isinstance(value, _JSON_KINDS[kind]) and not isinstance(value, bool)


def require_fields(what: str, data: object, kinds: Mapping[str, str],
                   required: tuple[str, ...]) -> dict:
    """Validate a loaded JSON document; returns it as a new dict.

    The front half of every ``from_dict`` that accepts hand-written JSON:
    ``data`` must be an object holding every ``required`` field and no
    field ``kinds`` does not name, and each value must be of its declared
    kind — ``"string"``, ``"integer"``, ``"number"``, ``"object"`` or
    ``"array"`` (of anything), optionally as ``"array of <kind>"`` or
    ``"<kind> or null"``.  Anything
    else raises :class:`ConfigurationError` naming the field, so a
    malformed document never surfaces as a ``TypeError`` from deep inside
    a constructor.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"a {what} must be a JSON object, got {data!r}")
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} fields {sorted(map(str, unknown))}; "
            f"known: {sorted(kinds)}"
        )
    missing = [name for name in required if name not in data]
    if missing:
        raise ConfigurationError(f"{what} is missing required field(s) {missing}")
    for name, value in data.items():
        if not _is_kind(value, kinds[name]):
            raise ConfigurationError(
                f"{what} field {name!r} must be {kinds[name]}, got {value!r}"
            )
    return dict(data)
