"""The JSON loaders refuse bad input cleanly.

``ExperimentSpec.from_dict`` accepts hand-written JSON, and
``RunArtifact.from_dict`` reads whatever an ``--out`` cache or a
queue's artifact directory holds, so a document with one field dropped
or replaced by an arbitrary JSON value must either load — into a value
whose own ``to_dict`` round-trips losslessly (and that hashes, if its
class does) — or raise
:class:`~repro.errors.ConfigurationError`; never a ``TypeError``,
``AttributeError`` or ``ValueError`` from inside a constructor.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.results import RunArtifact
from repro.api.spec import ExperimentSpec
from repro.errors import ConfigurationError

_SPECS = [
    ExperimentSpec("table1"),
    ExperimentSpec("table1", name="row 0", schedulers=("fifo", "lstf"),
                   duration=0.05, seeds=(1, 2), slack_policy="constant:0.5",
                   replay_modes=("lstf", "edf"), options={"rows": (0, 13)}),
    ExperimentSpec("scenario-matrix", scenarios=("websearch-incast",),
                   options={"flag": True, "label": "x"}),
]

#: Arbitrary JSON, plus strings the loaders give meaning to, so a
#: replacement sometimes gets past the type check into validation.
_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6,
) | st.sampled_from([
    "", "lstf", "clairvoyant", "websearch-incast", "constant:abc",
    "virtual-clock", "poisson", "fattree", "web-search", "zipf",
])


def _mutated(documents: list[dict]) -> st.SearchStrategy[dict]:
    """One valid document with one field dropped or replaced."""

    @st.composite
    def build(draw) -> dict:
        document = dict(draw(st.sampled_from(documents)))
        key = draw(st.sampled_from(sorted(document)))
        if draw(st.booleans()):
            del document[key]
        else:
            document[key] = draw(_json)
        return document

    return build()


def _loads_or_refuses(cls, document: dict) -> None:
    try:
        loaded = cls.from_dict(document)
    except ConfigurationError:
        return
    wire = json.loads(json.dumps(loaded.to_dict()))
    assert cls.from_dict(wire) == loaded
    if cls.__hash__ is not None:
        hash(loaded)


@settings(max_examples=300, deadline=None)
@given(document=_mutated([spec.to_dict() for spec in _SPECS]))
def test_spec_loader_loads_or_raises_configuration_error(document):
    _loads_or_refuses(ExperimentSpec, document)


_ARTIFACTS = [
    RunArtifact(_SPECS[1], "Table 1", ["row", "overdue"], [[0, 0.25], ["x", None]],
                metadata={"engine_events": 7}, wall_time_s=0.5,
                events_per_sec=14.0, obs={"counters": {}}),
    RunArtifact(_SPECS[0], "", [], []),
]


@settings(max_examples=300, deadline=None)
@given(document=_mutated([a.to_dict() for a in _ARTIFACTS]))
def test_artifact_loader_loads_or_raises_configuration_error(document):
    _loads_or_refuses(RunArtifact, document)


_SPEC = ExperimentSpec("table1").to_dict()
_ARTIFACT = _ARTIFACTS[0].to_dict()


def _without(document: dict, key: str) -> dict:
    return {k: v for k, v in document.items() if k != key}


#: One document per way the loaders used to fail: an exception from
#: inside the constructor, or a silent load of a mistyped field.
_ESCAPES = {
    "spec-duration-object": (ExperimentSpec, {**_SPEC, "duration": {}}),
    "spec-utilization-object": (ExperimentSpec, {**_SPEC, "utilization": {}}),
    "spec-no-experiment": (ExperimentSpec, _without(_SPEC, "experiment")),
    "spec-schedulers-null": (ExperimentSpec, {**_SPEC, "schedulers": None}),
    "spec-seed-array": (ExperimentSpec, {**_SPEC, "seeds": [[1]]}),
    "spec-seed-string": (ExperimentSpec, {**_SPEC, "seeds": ["a"]}),
    "spec-slack-policy-array": (ExperimentSpec, {**_SPEC, "slack_policy": []}),
    "spec-slack-policy-grammar": (ExperimentSpec,
                                  {**_SPEC, "slack_policy": "constant:abc"}),
    "spec-options-array": (ExperimentSpec, {**_SPEC, "options": []}),
    "artifact-timings-array": (RunArtifact, {**_ARTIFACT, "timings": []}),
    "artifact-timings-text": (RunArtifact,
                              {**_ARTIFACT, "timings": {"wall_time_s": "1"}}),
    "artifact-rows-of-scalars": (RunArtifact, {**_ARTIFACT, "rows": [1, 2]}),
    "artifact-no-spec": (RunArtifact, _without(_ARTIFACT, "spec")),
}


@pytest.mark.parametrize("cls, document", list(_ESCAPES.values()),
                         ids=list(_ESCAPES))
def test_a_malformed_field_is_a_configuration_error(cls, document):
    with pytest.raises(ConfigurationError):
        cls.from_dict(document)


@pytest.mark.parametrize("field", ["duration", "bandwidth_scale",
                                   "utilization"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_json_number_is_a_configuration_error(field, token):
    """``json.loads`` reads these tokens as floats, so they reach the
    spec constructor as values, past the loader's type check."""
    document = json.loads(f'{{"experiment": "table1", "{field}": {token}}}')
    with pytest.raises(ConfigurationError, match="finite"):
        ExperimentSpec.from_dict(document)


@pytest.mark.parametrize("policy", ["constant:nan", "constant:inf",
                                    "flow-size:inf", "flow-size:nan",
                                    "virtual-clock:nan", "virtual-clock:inf"])
def test_a_non_finite_slack_policy_is_a_configuration_error(policy):
    """``float()`` parses these values, so they used to reach the LSTF
    keys as NaN or infinite slack."""
    with pytest.raises(ConfigurationError, match="finite"):
        ExperimentSpec.from_dict({**_SPEC, "slack_policy": policy})


def test_a_negative_json_seed_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="seeds"):
        ExperimentSpec.from_dict({**_SPEC, "seeds": [3, -1]})


@pytest.mark.parametrize("cls", [ExperimentSpec, RunArtifact])
@pytest.mark.parametrize("document", [[], "table1", None])
def test_a_document_that_is_not_an_object_is_refused(cls, document):
    with pytest.raises(ConfigurationError, match="JSON object"):
        cls.from_dict(document)
