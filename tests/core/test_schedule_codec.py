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
* the schedule's identity did not move: ``canonical_json()`` — formatted
  straight from the columns — is the key-sorted ``json.dumps`` text of
  the document the schedule was built from, and its SHA-256 on a fixture
  is written below; a time JSON cannot carry is refused, never written
  as ``NaN``/``Infinity``.

Hypothesis draws a document's rows, and the test adapter
(``tests.sim.reference_tracer.schedule``) builds the schedule from them
through the column constructor.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import replay, trace_io
from repro.core.replay import (
    SCHEDULE_FORMAT,
    SCHEDULE_FORMAT_VERSION,
    RecordedSchedule,
)
from repro.core.trace_io import ScheduleStore
from repro.errors import ReplayError
from tests.sim.reference_tracer import schedule as from_document

_EDGES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308]
_floats = st.one_of(st.floats(allow_nan=False), st.sampled_from(_EDGES))
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGES))
_ints = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([2**63 - 1, -(2**63), 0]),
)


def _rows(floats, hop_floats):
    """The packet rows of a canonical document, each path as indices into
    the document's node table.  The edge values ride in ``i``, ``o`` and
    the threshold; the hop logs, formatted and packed by the same code,
    draw plain floats, one choice a value where ``floats`` takes two."""
    hops = [st.lists(hop_floats, min_size=k, max_size=k) for k in range(12)]

    @st.composite
    def row(draw):
        at = draw(st.binary(min_size=2, max_size=12))  # one choice, not 24
        return {"flow_id": draw(_ints), "flow_size": draw(_ints),
                "hop_tx": draw(hops[len(at) - 1]),
                "hop_waits": draw(hops[len(at) - 1]), "i": draw(floats),
                "o": draw(floats), "path": list(at), "pid": draw(_ints),
                "size": draw(_ints)}

    return st.lists(row(), min_size=1, max_size=8)


_ROWS = {_floats: _rows(_floats, st.floats(allow_nan=False)),
         _finite: _rows(_finite, st.floats(allow_nan=False, allow_infinity=False))}
_NODES = st.lists(st.text(max_size=6), min_size=1, max_size=12, unique=True)


@st.composite
def documents(draw, floats=_floats):
    nodes = draw(_NODES)
    packets = draw(_ROWS[floats])
    for row in packets:
        row["path"] = path = [nodes[k % len(nodes)] for k in row["path"]]
        row["src"], row["dst"] = path[0], path[-1]
    return {
        "description": draw(st.text(max_size=20)), "format": SCHEDULE_FORMAT,
        "packets": packets, "threshold": draw(floats),
        "version": SCHEDULE_FORMAT_VERSION,
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
    return from_document(_document(**first))


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
    schedule = from_document(doc)
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
    paths = np.split(back.path, np.cumsum(back.hops + 1)[:-1])
    assert [[back.nodes[k] for k in path.tolist()] for path in paths] == [
        row["path"] for row in packets]
    assert (back.threshold, back.description) == (
        schedule.threshold, schedule.description)
    assert pack(back) == data


def test_pack_ignores_how_the_schedule_was_built():
    """Equal schedules pack to equal bytes — here, one rebuilt from its
    canonical JSON."""
    schedule = _fixture()
    via_json = from_document(json.loads(schedule.canonical_json()))
    assert pack(via_json) == pack(schedule)


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
    puts = len(store.built_keys())
    healed = store.get_or_build("k", _fixture)
    assert healed.content_hash() == schedule.content_hash()
    assert store.path("k").read_bytes() == good
    assert len(store.built_keys()) == puts + 1  # one put line heals it


@pytest.mark.parametrize("where", ["threshold", "i", "o", "hop_tx", "hop_waits"])
def test_a_nan_time_is_a_replay_error_a_miss_and_heals(tmp_path, where):
    """Every comparison with NaN is false, so a NaN ``o(p)`` would never
    count as overdue and a NaN threshold would judge every row on time:
    an entry holding one is refused as it is read, like a bad checksum,
    and rebuilt.  (Infinities compare, and stay legal.)"""
    if where == "threshold":
        bad = _fixture()
        bad.threshold = math.nan
    elif where.startswith("hop_"):
        bad = _fixture(**{where: [0.0, math.nan]})
    else:
        bad = _fixture(**{where: math.nan})
    with pytest.raises(ReplayError, match="NaN"):
        unpack(pack(bad))
    store = ScheduleStore(tmp_path)
    store.put("k", bad)
    trace_io._PARSE_MEMO.clear()  # a cold reader: another process
    assert store.get("k") is None
    healed = store.get_or_build("k", _fixture)
    assert healed.content_hash() == _fixture().content_hash()
    assert store.path("k").read_bytes() == pack(_fixture())
    assert store.built_keys() == ["k"]  # one put line: the rebuild


@pytest.mark.parametrize("change", [
    {"threshold": "0.0012"}, {"threshold": None}, {"threshold": True},
    {"description": 7},
], ids=["threshold-text", "threshold-null", "threshold-bool", "description-number"])
def test_a_header_field_of_the_wrong_type_is_a_replay_error(tmp_path, change):
    """A foreign writer's header, checksummed, whose threshold is not a
    number or description not text, is refused as it is read — never a
    schedule that fails later — and is a miss at the store."""
    data = pack(_fixture())
    offsets = _boundaries(data)
    header = json.loads(data[offsets[3]:offsets[4]])
    doctored = _resealed(data, json.dumps({**header, **change}).encode(),
                         data[offsets[4]:])
    with pytest.raises(ReplayError, match="threshold not a number"):
        unpack(doctored)
    store = ScheduleStore(tmp_path)
    store.path("k").parent.mkdir(parents=True, exist_ok=True)
    store.path("k").write_bytes(doctored)
    assert store.get("k") is None


# --- the schedule's identity did not move ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(doc=documents(_finite))
def test_column_formatted_json_is_json_dumps_of_the_document(doc):
    """The fast writer against ``json`` itself, on the document the
    schedule was read from: −0.0, subnormals, 1e308, the int64 bounds and
    unicode names included (and ASCII-escaped exactly as ``json`` escapes
    them)."""
    reference = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    schedule = from_document(doc)
    assert schedule.canonical_json() == reference
    assert schedule.content_hash() == hashlib.sha256(reference.encode()).hexdigest()


#: The block size :func:`test_the_document_is_the_same_across_block_edges`
#: patches in, so that a handful of rows spans several blocks (and a block
#: edge splits rows 2 and 3, which share their ingress time).
_B = 3


def _rows_document(count: int) -> dict:
    """``count`` rows of 1-3 hops; −0.0 times and ingress times shared by
    pairs of rows."""
    packets = []
    for k in range(count):
        hops = 1 + k % 3
        path = [f"h{k % 2}", *(f"r{j}" for j in range(hops - 1)), "z"]
        i = -0.0 if k < 2 else (k // 2) * 1e-3
        packets.append({
            "dst": "z", "flow_id": k // 3, "flow_size": 4500,
            "hop_tx": [i + 1.2e-4 * j for j in range(hops)],
            "hop_waits": [-0.0, *(1e-5 * k + j for j in range(hops - 1))],
            "i": i, "o": i + 0.1 / 3, "path": path, "pid": k, "size": 1500,
            "src": path[0]})
    return {"description": "blocks", "format": SCHEDULE_FORMAT,
            "packets": packets, "threshold": 0.0012,
            "version": SCHEDULE_FORMAT_VERSION}


@pytest.mark.parametrize("count", [1, _B - 1, _B, _B + 1, 2 * _B + 3])
def test_the_document_is_the_same_across_block_edges(monkeypatch, count):
    """The document is written a block of rows at a time; cut anywhere,
    it is still ``json.dumps`` of the document, and the hash fed block by
    block is the hash of the whole text."""
    monkeypatch.setattr(replay, "_BLOCK_ROWS", _B)
    doc = _rows_document(count)
    reference = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    schedule = from_document(doc)
    assert len(list(schedule._blocks())) == 2 + -(-count // _B)
    assert schedule.canonical_json() == reference
    assert schedule.content_hash() == hashlib.sha256(
        schedule.canonical_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def deep() -> RecordedSchedule:
    """A 16 384-packet, 2-hop schedule, built once for the module."""
    n = 16_384
    rng = np.random.default_rng(1)
    ingress = np.sort(rng.random(n)) * 0.01
    hop_tx = (ingress[:, None] + rng.random((n, 2)) * 1e-3).ravel()
    hop_waits = rng.random(2 * n) * 1e-4
    ids = np.arange(n, dtype=np.int64)
    return RecordedSchedule(
        0.0012, "deep", ["a", "b", "sw"], ids, ids // 8,
        np.full(n, 12_000), np.full(n, 1500), ingress, hop_tx[1::2] + 1e-3,
        np.full(n, 2), np.tile([0, 2, 1], n), hop_tx, hop_waits)


def test_hashing_a_deep_schedule_holds_a_block_not_the_document(deep):
    """``content_hash`` of a 16 384-packet, 2-hop schedule peaks within
    4 MB of where it starts; building the whole text to hash it took
    about 20 MB."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        digest = deep.content_hash()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(deep.canonical_json().encode()).hexdigest()
    assert peak - start <= 4 * 2**20, f"{(peak - start) / 2**20:.1f} MB"


def test_encoding_holds_one_entry_not_three(deep):
    """``encode`` casts the columns into one preallocated buffer and
    checksums it in place: it peaks within 1.3x the entry it returns.
    Joining ``tobytes()`` copies and prefixing the checksum held about
    twice that."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        entry = pack(deep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _columns(unpack(entry)) == _columns(deep)
    assert peak - start <= 1.3 * len(entry), f"{(peak - start) / len(entry):.3f}x"


@pytest.mark.parametrize("where", ["i", "o", "hop_tx", "hop_waits", "threshold"],
                         ids=["ingress_time", "output_time", "hop_tx", "hop_waits",
                              "threshold"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_canonical_json_refuses_a_time_json_cannot_carry(where, value):
    if where == "threshold":
        schedule = _fixture()
        schedule.threshold = value
    elif where.startswith("hop_"):
        schedule = _fixture(**{where: [0.0, value]})
    else:
        schedule = _fixture(**{where: value})
    with pytest.raises(ReplayError, match="not finite"):
        schedule.canonical_json()


def test_fixture_hash_is_the_parents():
    """Pinned at the commit before the columnar store: the fixture's
    content hash."""
    assert _fixture().content_hash() == (
        "9c1c7d63f779ec6883e3d10ae01d364842b7cc755862ea96ef9a3273a956e97a")
