"""Host work a block at a time: each block form equals its per-item oracle.

* (a) :class:`repro.formats.soap.SoapParser`, behind ``read_soap`` and
  ``StreamingSoapReader``, against a per-record reader that runs
  :func:`parse_soap_record` line by line (firing the
  ``formats.soap.record`` site once per record) and the cross-record
  rules after it, over random files (ids, strands, hits above 255,
  unsorted positions, CRLF, blank lines) with planted errors: the same
  ``AlignmentBatch`` fields and dtypes, or the same exception type and
  text; the same quarantine bytes and ``record-quarantine`` events; the
  same fault-clock count under a truncate plan; at block sizes 1, 2, 7
  and the default.  Streamed windows equal ``WindowReader(read_soap(p))``.
* (b) ``pack_bits``/``unpack_bits`` against the bit-matrix forms, widths
  1-64, including ``n = 0`` and the overflow and short-payload errors.
* (c) The closed-form ``span_tx`` against its per-warp form.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align.records import AlignmentBatch
from repro.compress.bitpack import pack_bits, unpack_bits
from repro.errors import CodecError, FormatError, PipelineError
from repro.faults.degrade import DegradationWarning
from repro.faults.plan import FaultPlan, FaultSpec, fault_plan, fault_point
from repro.formats import soap
from repro.formats.soap import (
    parse_soap_record, quarantine_record, read_soap,
)
from repro.formats.stream import StreamingSoapReader
from repro.formats.window import WindowReader
from repro.gpusim.primitives.sweep import span_tx
from repro.gpusim.spec import GpuSpec

_TIER1 = settings(max_examples=80, derandomize=True, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
_WIDE = settings(max_examples=1500, deadline=None, database=None,
                 suppress_health_check=list(HealthCheck))

# ---------------------------------------------------------------------------
# (a) the block SOAP parser
# ---------------------------------------------------------------------------

#: Planted faults: each replaces one record's fields.
ERRORS = (
    "fields", "base", "empty", "qual_low", "qual_high", "length_text",
    "pos_text", "hits_text", "length", "strand", "hits_negative", "pos_zero",
    "pos_huge", "chrom_utf8", "mixed_length", "mixed_chrom", "unsorted",
    "past_end", "bare_cr", "truncated",
)


@st.composite
def soap_files(draw):
    """``(text, n_sites)``: a random SOAP file, possibly with faults."""
    read_len = draw(st.integers(1, 9))
    n = draw(st.integers(0, 30))
    n_sites = draw(st.integers(read_len, 400))
    pos = sorted(draw(st.lists(st.integers(1, n_sites - read_len + 1),
                               min_size=n, max_size=n)))
    if draw(st.booleans()):  # unsorted positions (a stream error)
        pos = draw(st.permutations(pos))
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    chrom = draw(st.sampled_from([b"chr21", b"c"]))
    rows = []
    for i, p in enumerate(pos):
        seq = bytes(draw(st.lists(st.sampled_from(b"ACGT"),
                                  min_size=read_len, max_size=read_len)))
        qual = bytes(draw(st.lists(st.integers(33, 96), min_size=read_len,
                                   max_size=read_len)))
        hits = draw(st.sampled_from([0, 1, 2, 255, 256, 1000, 2**70]))
        rows.append([
            draw(st.sampled_from([f"r{i}", "read", "x y"])).encode(), seq,
            qual, str(hits).encode(), str(read_len).encode(),
            draw(st.sampled_from([b"+", b"-"])), chrom, str(p).encode(),
        ])
    broken = st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=3,
                      unique=True) if rows else st.just([])
    for i in draw(broken):  # at most one planted error a record
        plant(rows[i], draw(st.sampled_from(ERRORS)), n_sites, read_len)
    lines = [b"\t".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), b"")
    text = b"".join(line + eol for line in lines)
    if draw(st.booleans()) and text:  # no final newline
        text = text[: -len(eol)]
    return text, n_sites


def plant(row: list, kind: str, n_sites: int, read_len: int) -> None:
    """Break one record ``row`` (its eight fields) in place."""
    if kind == "fields":
        del row[3:]
    elif kind == "base":
        row[1] = b"N" + row[1][1:]
    elif kind == "empty":
        row[1] = row[2] = b""
        row[4] = b"0"
    elif kind in ("qual_low", "qual_high"):
        row[2] = (b" " if kind == "qual_low" else b"a") + row[2][1:]
    elif kind.endswith("_text"):
        row[{"length": 4, "pos": 7, "hits": 3}[kind[:-5]]] = b"1.5"
    elif kind == "length":
        row[4] = str(read_len + 1).encode()
    elif kind == "strand":
        row[5] = b"*"
    elif kind == "hits_negative":
        row[3] = b"-3"
    elif kind == "pos_zero":
        row[7] = b"0"
    elif kind == "pos_huge":
        row[7] = b"9" * 25
    elif kind == "chrom_utf8":
        row[6] = b"chr\xff"
    elif kind == "mixed_length":
        row[1], row[2], row[4] = row[1] + b"A", row[2] + b"I", str(
            read_len + 1).encode()
    elif kind == "mixed_chrom":
        row[6] = b"other"
    elif kind == "unsorted":
        row[7] = b"1"
    elif kind == "past_end":
        row[7] = str(n_sites).encode()
    elif kind == "bare_cr":
        row[:] = [b"\r"]
    else:  # truncated mid-record
        row[:] = [b"\t".join(row)[: 7]]


def oracle(path, quarantine=None, n_sites=None) -> AlignmentBatch:
    """The per-record reader: one ``parse_soap_record`` per line."""
    recs, read_len, chrom, last, n_q = [], 0, "", 0, 0
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.rstrip(b"\n")
            if not raw:
                continue
            raw = fault_point("formats.soap.record", key=lineno, value=raw)
            try:
                rec = parse_soap_record(raw, lineno, path)
            except FormatError as exc:
                if quarantine is None:
                    raise
                quarantine_record(quarantine, path, lineno, raw, str(exc))
                n_q += 1
                continue
            where = f"{path}:{lineno}"
            if not read_len:
                read_len, chrom = rec[3].size, rec[5]
            elif rec[3].size != read_len:
                raise FormatError(
                    f"{where}: mixed read lengths not supported "
                    f"(expected {read_len}, got {rec[3].size})")
            elif rec[5] != chrom:
                raise FormatError(
                    f"{where}: mixed chromosomes not supported "
                    f"(expected {chrom!r}, got {rec[5]!r})")
            if n_sites is not None:
                if rec[0] < last:
                    raise FormatError(f"{where}: positions not sorted")
                if rec[0] + read_len > n_sites:
                    raise PipelineError(
                        f"{where}: read extends past the reference end")
                last = rec[0]
            recs.append(rec)
    if not recs:
        raise FormatError(f"{path}:1: empty alignment file" + (
            f" ({n_q} record(s) quarantined)" if n_q else ""))
    pos = np.array([r[0] for r in recs], dtype=np.int64)
    order = np.argsort(pos, kind="stable") if n_sites is None else slice(None)
    return AlignmentBatch(
        chrom=chrom, read_len=read_len, pos=pos[order],
        strand=np.array([r[1] for r in recs], np.uint8)[order],
        hits=np.array([r[2] for r in recs], np.uint8)[order],
        bases=np.vstack([r[3] for r in recs])[order],
        quals=np.vstack([r[4] for r in recs])[order],
    )


def outcome(call, quarantine=None):
    """What a reader leaves: its value (or error), quarantine bytes and
    degradation events."""
    if quarantine is not None and quarantine.exists():
        quarantine.unlink()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegradationWarning)
        try:
            value = call()
        except (FormatError, PipelineError) as exc:
            value = (type(exc).__name__, str(exc))
    events = [str(w.message) for w in caught
              if isinstance(w.message, DegradationWarning)]
    kept = b""
    if quarantine is not None and quarantine.exists():
        kept = quarantine.read_bytes()
    return value, kept, events


def batch_fields(batch) -> dict:
    if not isinstance(batch, AlignmentBatch):
        return batch
    return {name: (v.dtype.str, v.shape, v.tobytes())
            if isinstance(v, np.ndarray) else v
            for name, v in vars(batch).items()}


def windows(reader) -> list:
    return [(w.start, w.end, batch_fields(w.reads)) for w in reader]


def check_parser(case, block_lines):
    text, n_sites = case
    with tempfile.TemporaryDirectory() as tmp:
        path, qpath = Path(tmp) / "in.soap", Path(tmp) / "q.txt"
        path.write_bytes(text)
        with mock.patch.object(soap, "BLOCK_LINES", block_lines):
            for q in (None, qpath):
                got = outcome(lambda: read_soap(path, quarantine=q), q)
                want = outcome(lambda: oracle(path, quarantine=q), q)
                assert (batch_fields(got[0]), *got[1:]) == (
                    batch_fields(want[0]), *want[1:])
                window = max(1, n_sites // 3)
                reader = StreamingSoapReader(path, n_sites, window,
                                             quarantine=q)
                got = outcome(lambda: windows(reader), q)
                want = outcome(lambda: windows(WindowReader(
                    oracle(path, quarantine=q, n_sites=n_sites), n_sites,
                    window)), q)
                assert got == want
                if isinstance(got[0], list):
                    assert reader.bytes_read == len(text)


@_TIER1
@given(soap_files(), st.sampled_from([1, 2, 7, soap.BLOCK_LINES]))
def test_block_parser_equals_per_record_reader(case, block_lines):
    check_parser(case, block_lines)


@pytest.mark.tier2
@_WIDE
@given(soap_files(), st.sampled_from([1, 2, 7, soap.BLOCK_LINES]))
def test_block_parser_equals_per_record_reader_wide(case, block_lines):
    check_parser(case, block_lines)


@pytest.mark.parametrize("kind", ERRORS)
def test_every_planted_error_kind(kind, tmp_path):
    """Each fault kind at every line of a small file, block size 2."""
    rows = [[b"r", b"ACGT", b"IIII", b"1", b"4", b"+", b"c", b"%d" % p]
            for p in (1, 5, 5, 9)]
    for at in range(len(rows)):
        broken = [list(r) for r in rows]
        plant(broken[at], kind, 20, 4)
        text = b"".join(b"\t".join(r) + b"\n" for r in broken)
        check_parser((text, 20), 2)


@pytest.mark.parametrize("block_lines", [1, 3, soap.BLOCK_LINES])
def test_truncate_plan_fires_once_per_record(block_lines, tmp_path):
    """A ``formats.soap.record`` truncate plan: the same outcome and the
    same fault-clock count as the per-record reader, quarantined or not."""
    text = b"".join(b"r\tACGT\tIIII\t1\t4\t+\tc\t%d\n" % p
                    for p in range(1, 12)) + b"\n"
    path, q = tmp_path / "in.soap", tmp_path / "q.txt"
    path.write_bytes(text)
    for quarantine in (None, q):
        runs = []
        for read in (read_soap, oracle):
            plan = FaultPlan([FaultSpec(site="formats.soap.record",
                                        kind="truncate", after=4, arg=0.5)])
            with fault_plan(plan), mock.patch.object(
                    soap, "BLOCK_LINES", block_lines):
                got = outcome(lambda: read(path, quarantine=quarantine),
                              quarantine)
            runs.append((batch_fields(got[0]), *got[1:], plan.fired,
                         plan.clock.counts))
        assert runs[0] == runs[1]
        assert runs[0][-1] == [11 if quarantine else 5]


def test_empty_file_stream_raises_like_read_soap(tmp_path):
    """An empty file, or one whose every record was quarantined: the
    stream raises ``read_soap``'s error before its first window."""
    p, q = tmp_path / "e.soap", tmp_path / "q.txt"
    p.write_bytes(b"")
    with pytest.raises(FormatError, match=r"e\.soap:1: empty alignment"):
        read_soap(p)
    with pytest.raises(FormatError, match=r"e\.soap:1: empty alignment"):
        next(iter(StreamingSoapReader(p, 3000, 1000)))
    p.write_bytes(b"bad\n\nworse\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradationWarning)
        with pytest.raises(FormatError,
                           match=r"empty alignment file \(2 record"):
            next(iter(StreamingSoapReader(p, 3000, 1000, quarantine=q)))

# ---------------------------------------------------------------------------
# (b) bit packing
# ---------------------------------------------------------------------------


def matrix_pack(values, width: int) -> bytes:
    """The bit-matrix form: an ``(n, width)`` matrix of each value's bits."""
    v = np.asarray(values).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return np.packbits(((v[:, None] >> shifts) & 1).astype(np.uint8)).tobytes()


def matrix_unpack(data: bytes, width: int, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, np.uint8))[: count * width]
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bits.reshape(count, width).astype(np.uint64) * weights).sum(
        axis=1, dtype=np.uint64)


def check_bitpack(width, n, seed):
    rng = np.random.default_rng(seed)
    top = (1 << width) - 1
    v = rng.integers(0, top, n, dtype=np.uint64, endpoint=True)
    if n:
        v[rng.integers(0, n)] = top
    data = pack_bits(v, width)
    assert data == (matrix_pack(v, width) if n else b"")
    tail = data + bytes(rng.integers(0, 256, 3, dtype=np.uint8))
    out = unpack_bits(tail, width, n)
    assert out.dtype == np.uint64
    assert np.array_equal(out, matrix_unpack(tail, width, n))
    if n:
        with pytest.raises(CodecError, match="too short"):
            unpack_bits(data[:-1], width, n)
    if n and width < 64:
        v[rng.integers(0, n)] = top + 1
        with pytest.raises(CodecError, match="does not fit"):
            pack_bits(v, width)


@_TIER1
@given(st.integers(1, 64), st.one_of(st.sampled_from([0, 1, 7, 8, 9]),
                                      st.integers(0, 300)),
       st.integers(0, 2**32 - 1))
def test_bitpack_equals_bit_matrix(width, n, seed):
    check_bitpack(width, n, seed)


@pytest.mark.tier2
@_WIDE
@given(st.integers(1, 64), st.integers(0, 5000), st.integers(0, 2**32 - 1))
def test_bitpack_equals_bit_matrix_wide(width, n, seed):
    check_bitpack(width, n, seed)

# ---------------------------------------------------------------------------
# (c) closed-form span_tx
# ---------------------------------------------------------------------------


class _Device:
    def __init__(self, spec):
        self.spec = spec


def per_warp_span_tx(device, n, itemsize, lag=0) -> int:
    """The per-warp form: each warp's first and last segment."""
    if n <= 0:
        return 0
    ws, seg = device.spec.warp_size, device.spec.segment_bytes
    if itemsize > seg:
        itemsize = seg = 1
    first = np.arange(0, n, ws, dtype=np.int64)
    last = np.minimum(first + ws, n) - 1
    first = np.maximum(first - lag, 0) * itemsize // seg
    last = np.maximum(last - lag, 0) * itemsize // seg
    return int((last - first).sum()) + first.size


#: Lags, and offsets (negative lags: thread t reads t + offset).
LAGS = (0, 1, 2, 31, 32, 33, 100, -1, -31, -32, -33, -1024)
ITEMSIZES = (1, 2, 4, 8, 16, 129)
DEVICES = [_Device(GpuSpec()),
           _Device(GpuSpec(warp_size=16, segment_bytes=96, num_sms=7))]


def check_span_tx(ns):
    for device in DEVICES:
        for n in ns:
            for lag in LAGS:
                for itemsize in ITEMSIZES:
                    assert span_tx(device, n, itemsize, lag) == (
                        per_warp_span_tx(device, n, itemsize, lag)
                    ), (device.spec, n, lag, itemsize)


def test_span_tx_equals_per_warp_form_small_n():
    check_span_tx(range(0, 700))


@pytest.mark.tier2
def test_span_tx_equals_per_warp_form_every_n_to_5000():
    check_span_tx(range(0, 5001))


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(st.integers(5001, 10**6))
def test_span_tx_equals_per_warp_form_large_n(n):
    check_span_tx([n])


@pytest.mark.tier2
@settings(max_examples=500, deadline=None, database=None)
@given(st.integers(5001, 10**6))
def test_span_tx_equals_per_warp_form_large_n_wide(n):
    check_span_tx([n])
