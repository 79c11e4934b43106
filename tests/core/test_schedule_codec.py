"""The ``.sched`` store-entry codec: lossless, deterministic, verified.

Three contracts of :class:`~repro.core.trace_io.ScheduleStore`'s codec:

* ``load(encode(s))`` ≡ ``s`` for every schedule ``encode`` accepts, and
  a clear :class:`~repro.errors.ReplayError` for what it cannot carry —
  that is what licenses ``ScheduleStore.put`` to hand the built value to
  the next ``get`` without a parse;
* every damaged entry — one flipped byte anywhere, a truncation, wrong
  header counts, a foreign file — is a ``ReplayError`` inside the codec,
  a miss at ``ScheduleStore.get`` and one healing ``put`` through
  ``get_or_build``; never another exception, never a schedule;
* the portable JSON trace did not move: ``canonical_json()`` — formatted
  straight from the columns — is the key-sorted ``json.dumps`` text of
  the very document ``from_dict`` read, and its SHA-256 on a fixture is
  written below; a time JSON cannot carry is refused, never written as
  ``NaN``/``Infinity``.

Schedules are built the way a trace reader builds them: hypothesis draws
the portable document's rows, and ``RecordedSchedule.from_dict`` reads them.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import trace_io
from repro.core.replay import (
    SCHEDULE_FORMAT,
    SCHEDULE_FORMAT_VERSION,
    RecordedSchedule,
)
from repro.core.trace_io import ScheduleStore, load_schedule, save_schedule
from repro.errors import ReplayError

_EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308]
_floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(_EDGES))
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGES))
_ints = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([2**63 - 1, -(2**63), 0]),
)


@st.composite
def rows(draw, nodes, floats):
    """One packet row of the portable document."""
    path = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=12))
    hops = st.lists(floats, min_size=len(path) - 1, max_size=len(path) - 1)
    return {"dst": path[-1], "flow_id": draw(_ints), "flow_size": draw(_ints),
            "hop_tx": draw(hops), "hop_waits": draw(hops), "i": draw(floats),
            "o": draw(floats), "path": path, "pid": draw(_ints),
            "size": draw(_ints), "src": path[0]}


@st.composite
def documents(draw, floats=_floats):
    nodes = draw(st.lists(st.text(max_size=6), min_size=1, max_size=12,
                          unique=True))
    return {
        "description": draw(st.text(max_size=20)), "format": SCHEDULE_FORMAT,
        "packets": draw(st.lists(rows(nodes, floats), min_size=1, max_size=8)),
        "threshold": draw(floats), "version": SCHEDULE_FORMAT_VERSION,
    }


def _document(**first) -> dict:
    """Two packets; ``first`` overrides keys of the first row."""
    head = {"dst": "z", "flow_id": 1, "flow_size": 3000, "hop_tx": [0.0, 0.0015],
            "hop_waits": [0.0, 2.5e-4], "i": 0.0, "o": 0.00375,
            "path": ["hé", "r1", "z"], "pid": 7, "size": 1500, "src": "hé"}
    tail = {"dst": "z", "flow_id": 1, "flow_size": 3000,
            "hop_tx": [5e-324, 0.1, 0.2], "hop_waits": [0.0, 0.0, 1e-9],
            "i": -0.0, "o": 1e308, "path": ["a", "r1", "r2", "z"], "pid": 8,
            "size": 1500, "src": "a"}
    return {"description": "fixture/α", "format": SCHEDULE_FORMAT,
            "packets": [{**head, **first}, tail], "threshold": 0.0012,
            "version": SCHEDULE_FORMAT_VERSION}


def _fixture(**first) -> RecordedSchedule:
    return RecordedSchedule.from_dict(_document(**first))


class _Entry:
    """Entry bytes where the codec expects the entry's path."""

    def __init__(self, data: bytes) -> None:
        self.read_bytes = lambda: data


def pack(schedule: RecordedSchedule) -> bytes:
    return ScheduleStore("unused").encode(schedule)


def unpack(data: bytes) -> RecordedSchedule:
    return ScheduleStore("unused").load(_Entry(data))


def _columns(schedule: RecordedSchedule) -> list:
    return [schedule.nodes, *(getattr(schedule, name).tolist()
                              for name in RecordedSchedule.COLUMNS)]


# --- lossless and deterministic ------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(doc=documents())
def test_unpack_of_pack_is_the_schedule(doc):
    schedule = RecordedSchedule.from_dict(doc)
    data = pack(schedule)
    assert pack(schedule) == data  # byte-deterministic
    back = unpack(data)
    # repr tells -0.0 from 0.0 and 1 from 1.0 (and, unlike canonical_json,
    # carries infinities)
    assert _columns(back) == _columns(schedule)
    assert repr(_columns(back)) == repr(_columns(schedule))
    packets = doc["packets"]
    for key, column in (("pid", back.pid), ("i", back.ingress), ("o", back.output)):
        assert repr(column.tolist()) == repr([row[key] for row in packets])
    assert back.endpoints() == ([row["src"] for row in packets],
                                [row["dst"] for row in packets])
    assert (back.threshold, back.description) == (
        schedule.threshold, schedule.description)
    assert pack(back) == data


def test_pack_ignores_how_the_schedule_was_built():
    """Equal schedules pack to equal bytes — here, one rebuilt from its
    portable JSON."""
    schedule = _fixture()
    via_json = RecordedSchedule.from_dict(json.loads(schedule.canonical_json()))
    assert pack(via_json) == pack(schedule)


@pytest.mark.parametrize("field,value,message", [
    ("pid", 2**63, "width"),
    ("size", -(2**63) - 1, "width"),
    ("flow_id", True, "non-int"),
    ("flow_size", 1500.0, "non-int"),
    pytest.param("i", 0, "non-float", id="ingress_time-0-non-float"),
    ("hop_waits", [0.0, 1], "non-float"),
    ("src", "elsewhere", "ends of its path"),
    ("dst", "r1", "ends of its path"),
    ("hop_tx", [0.0], "ends of its path"),
    ("path", ["hé", "z"], "ends of its path"),
    ("path", ["hé", 3, "z"], "non-string"),
    ("path", ("hé", "r1", "z"), "ends of its path"),
])
def test_put_refuses_what_the_layout_cannot_give_back(
        tmp_path, field, value, message):
    """A schedule holds only what its columns give back exactly, so what
    the layout cannot carry is refused as the document is read and never
    gets as far as the store."""
    store = ScheduleStore(tmp_path)
    with pytest.raises(ReplayError, match=message):
        store.put("k", _fixture(**{field: value}))
    assert store.keys() == []  # nothing half-written, nothing memoised
    assert store.get("k") is None


# --- every read is verified ------------------------------------------------------


def _boundaries(data: bytes) -> list[int]:
    """Offsets where each part of a store entry starts, then its end:
    magic, CRC, header length, header, then the ten columns — the layout
    restated independently of the codec."""
    (header_len,) = struct.unpack_from("<I", data, 16)
    header = json.loads(data[20:20 + header_len])
    n, h = header["packets"], header["hops"]
    sizes = [12, 4, 4, header_len, *[8 * n] * 6, 4 * n, 4 * (n + h),
             8 * h, 8 * h]
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    assert offsets[-1] == len(data)
    return offsets


def _resealed(data: bytes, header: bytes, columns: bytes) -> bytes:
    """An entry with a valid checksum over a doctored body."""
    body = struct.pack("<I", len(header)) + header + columns
    return data[:12] + struct.pack("<I", zlib.crc32(body)) + body


def _damaged_entries(data: bytes) -> dict[str, bytes]:
    offsets = _boundaries(data)
    damaged = {}
    for start, end in zip(offsets, offsets[1:]):
        for at in {start, (start + end) // 2, end - 1}:
            flipped = bytearray(data)
            flipped[at] ^= 0x01
            damaged[f"flip@{at}"] = bytes(flipped)
        damaged[f"truncate@{end}"] = data[:end - 1]
        damaged[f"truncate-at@{start}"] = data[:start]
    header = json.loads(data[offsets[3]:offsets[4]])
    columns = data[offsets[4]:]
    for name, change in {
        "packets+1": {"packets": header["packets"] + 1},
        "packets-1": {"packets": header["packets"] - 1},
        "hops+1": {"hops": header["hops"] + 1},
        "hops=0": {"hops": 0},
        "packets<0": {"packets": -header["packets"]},
        "packets-not-a-count": {"packets": "many"},
        "nodes-too-few": {"nodes": header["nodes"][:1]},
        "nodes-not-a-table": {"nodes": 7},
        # still indexable, but not the table encode writes: names would
        # silently swap, or a name no path uses would ride along
        "nodes-unsorted": {"nodes": header["nodes"][::-1]},
        "nodes-unused-name": {"nodes": [*header["nodes"], "~unused"]},
    }.items():
        doctored = json.dumps({**header, **change}).encode()
        damaged[f"header:{name}"] = _resealed(data, doctored, columns)
    missing = {k: v for k, v in header.items() if k != "hops"}
    damaged["header:missing-key"] = _resealed(
        data, json.dumps(missing).encode(), columns)
    damaged["header:not-utf8"] = _resealed(
        data, b'{"description": "\xff\xfe"}', columns)
    damaged["header:not-an-object"] = _resealed(data, b"[1,2]", columns)
    damaged["foreign:json-entry"] = b'{"format":"repro.recorded_schedule"}'
    damaged["foreign:magic-only"] = data[:12]
    damaged["empty"] = b""
    return damaged


def test_every_damaged_entry_is_a_replay_error_a_miss_and_heals(tmp_path):
    schedule = _fixture()
    store = ScheduleStore(tmp_path)
    store.put("k", schedule)
    good = store.path("k").read_bytes()
    assert good == pack(schedule)
    damaged = _damaged_entries(good)
    assert len(damaged) > 80
    for name, data in damaged.items():
        with pytest.raises(ReplayError):
            unpack(data)
        store.path("k").write_bytes(data)
        trace_io._PARSE_MEMO.clear()  # a cold reader: another process
        assert store.get("k") is None, name
        assert not store.readable("k"), name
    puts = len(store.recorded_keys())
    healed = store.get_or_build("k", _fixture)
    assert healed.content_hash() == schedule.content_hash()
    assert store.path("k").read_bytes() == good
    assert len(store.recorded_keys()) == puts + 1  # one put line heals it


# --- the portable trace did not move ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(doc=documents(_finite))
def test_column_formatted_json_is_json_dumps_of_the_document(doc):
    """The fast writer against ``json`` itself, on the document the
    schedule was read from: −0.0, subnormals, 1e308, the int64 bounds and
    unicode names included (and ASCII-escaped exactly as ``json`` escapes
    them)."""
    reference = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    schedule = RecordedSchedule.from_dict(doc)
    assert schedule.canonical_json() == reference
    assert schedule.content_hash() == hashlib.sha256(reference.encode()).hexdigest()


@pytest.mark.parametrize("where", ["i", "o", "hop_tx", "hop_waits", "threshold"],
                         ids=["ingress_time", "output_time", "hop_tx", "hop_waits",
                              "threshold"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_canonical_json_refuses_a_time_json_cannot_carry(tmp_path, where, value):
    if where == "threshold":
        schedule = _fixture()
        schedule.threshold = value
    elif where.startswith("hop_"):
        schedule = _fixture(**{where: [0.0, value]})
    else:
        schedule = _fixture(**{where: value})
    with pytest.raises(ReplayError, match="not finite"):
        schedule.canonical_json()
    with pytest.raises(ReplayError, match="not finite"):
        save_schedule(schedule, tmp_path / "trace.json")


def test_fixture_hashes_are_the_parents(tmp_path):
    """Pinned at the commit before the columnar store: the content hash
    and the ``save_schedule`` bytes of the fixture."""
    schedule = _fixture()
    assert schedule.content_hash() == (
        "9c1c7d63f779ec6883e3d10ae01d364842b7cc755862ea96ef9a3273a956e97a")
    path = tmp_path / "trace.json"
    save_schedule(schedule, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "778fd1faa0c0df79f25fafa6228d02e485d91e24376ca433654a77db6ddd7acb")
    assert load_schedule(path).content_hash() == schedule.content_hash()
