"""Hostile input: every decoder decodes or fails typed, with coordinates.

Valid encodings (result streams, the temp-input container, each column
codec, ``.cns`` text, SOAP files read whole or streamed) take 1-4 byte
flips, deletions, insertions or truncations.  Each mutant must decode or
raise ``CodecError`` naming the byte (and a container's column) or
``FormatError`` naming ``file:line`` — never a bare exception, and never
an allocation sized by a corrupt header.
"""

import re
import struct
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import JobSpec, create_pipeline
from repro.compress import (
    decode_alignments, decode_table, delta_decode, delta_encode,
    dict_decode, dict_encode, encode_alignments, exception_decode,
    exception_encode, pack_bits, rle_dict_decode, rle_dict_encode,
    sparse_decode, sparse_encode, twobit_decode, twobit_encode, unpack_bits,
)
from repro.errors import CodecError, FormatError, PipelineError
from repro.formats.cns import format_rows, read_cns
from repro.formats.soap import read_soap, write_soap
from repro.formats.stream import StreamingSoapReader
from repro.seqsim.datasets import DatasetSpec, generate_dataset

N_SITES = 600
COLUMN = np.array([0, 0, 3, 0, 7, 7, 7, 0, 1, 0] * 6, dtype=np.uint8)


@lru_cache(maxsize=None)
def run():
    ds = generate_dataset(DatasetSpec(name="hostile", n_sites=N_SITES,
                                      depth=5.0, coverage=0.9, read_len=30,
                                      seed=5))
    pipe = create_pipeline(spec=JobSpec(engine="gsnp_cpu", window=200))
    return ds, pipe.run(ds)


def stream() -> bytes:
    """Three window blocks."""
    return run()[1].compressed_output


def cns_text() -> bytes:
    return b"".join(format_rows(run()[1].table).splitlines(True)[:40])


@lru_cache(maxsize=None)
def soap_text() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.soap"
        write_soap(path, run()[0].reads.slice(0, 60))
        return path.read_bytes()


def decode_stream(data: bytes) -> None:
    offset = 0
    while offset < len(data):  # every block, as a file reader walks them
        _, offset = decode_table(data, offset)


def codec(decode, container=False):
    def check(data, path):
        try:
            decode(data)
        except CodecError as exc:
            assert exc.offset is not None and 0 <= exc.offset <= len(data)
            assert exc.column is not None or not container, exc
            return exc
    return check


def text(parse):
    def check(data, path):
        path.write_bytes(data)
        try:
            parse(path)
        except (FormatError, PipelineError) as exc:  # Pipeline: past the end
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), exc
            return exc
    return check


#: name -> (valid encoding, check); column codecs get the length their
#: container would pass.
DECODERS = {
    "decode_table": (stream, codec(decode_stream, container=True)),
    "decode_alignments": (
        lambda: encode_alignments(run()[0].reads),
        codec(decode_alignments, container=True),
    ),
    "sparse": (lambda: sparse_encode(COLUMN, 0),
               codec(lambda b: sparse_decode(b, COLUMN.size))),
    "exception": (
        lambda: exception_encode(COLUMN, np.zeros_like(COLUMN)),
        codec(lambda b: exception_decode(b, np.zeros_like(COLUMN))),
    ),
    "dictionary": (lambda: dict_encode(COLUMN), codec(dict_decode)),
    "delta": (lambda: delta_encode(np.cumsum(COLUMN, dtype=np.int64)),
              codec(delta_decode)),
    "twobit": (lambda: twobit_encode(COLUMN % 4), codec(twobit_decode)),
    "rle_dict": (lambda: rle_dict_encode(COLUMN),
                 codec(lambda b: rle_dict_decode(b, COLUMN.size))),
    "bitpack": (lambda: pack_bits(COLUMN, 3),
                codec(lambda b: unpack_bits(b, 3, COLUMN.size))),
    "cns": (cns_text, text(read_cns)),
    "read_soap": (soap_text, text(read_soap)),
    "stream": (soap_text, text(
        lambda p: list(StreamingSoapReader(p, N_SITES, 100)))),
}


@st.composite
def mutants(draw, data: bytes) -> bytes:
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "delete", "insert", "truncate")))
        i = draw(st.integers(0, max(len(buf) - 1, 0)))
        if kind == "insert":
            buf.insert(i, draw(st.integers(0, 255)))
        elif buf and kind == "flip":
            buf[i] ^= 1 << draw(st.integers(0, 7))
        elif buf and kind == "delete":
            del buf[i]
        elif buf:
            del buf[i:]
    return bytes(buf)


def fuzz(name, workdir, n, derandomize):
    source, check = DECODERS[name]
    path = workdir / f"fuzz.{name}"

    @settings(max_examples=n, derandomize=derandomize, deadline=None,
              database=None, suppress_health_check=list(HealthCheck))
    @given(mutants(source()))
    def prop(data):
        check(data, path)

    prop()


@pytest.mark.parametrize("name", list(DECODERS))
def test_mutants_decode_or_fail_typed(name, tmp_path):
    fuzz(name, tmp_path, 200, derandomize=True)


@pytest.mark.tier2
@pytest.mark.parametrize("name", list(DECODERS))
def test_mutants_decode_or_fail_typed_wide(name, tmp_path):
    fuzz(name, tmp_path, 5000, derandomize=False)


def with_field(data: bytes, line: int, field: int, value: bytes) -> bytes:
    """``data`` with one tab-separated field of one line replaced."""
    lines = data.split(b"\n")
    parts = lines[line].split(b"\t")
    parts[field] = value
    lines[line] = b"\t".join(parts)
    return b"\n".join(lines)


def flipped(data: bytes, at: int, value: int) -> bytes:
    return data[:at] + bytes([value]) + data[at + 1:]


def long_runs() -> bytes:
    values = dict_encode(np.array([1], dtype=np.uint8))
    lengths = dict_encode(np.array([0xFFFFFFFF], dtype=np.uint32))
    return struct.pack("<II", len(values), len(lengths)) + values + lengths


#: name -> inputs that escaped as a bare exception, or sized an allocation
#: by a corrupt header, before decoders failed typed: each must now fail
#: typed, with coordinates.
PINNED = {
    "decode_table": (
        lambda: stream()[:10],  # struct.error
        lambda: flipped(stream(), 8, 0xFF),  # chromosome not UTF-8
        lambda: stream().replace(b"ref_base", b"ref_bose", 1),  # KeyError
        # A sparse column claiming 2**32 - 1 entries.
        lambda: flipped(stream(), stream().index(b"second_base") + 11, 0xFF),
    ),
    "sparse": (  # the entry count, then the exception-position count
        lambda: flipped(sparse_encode(COLUMN, 0), 3, 0xFF),
        lambda: flipped(sparse_encode(COLUMN, 0), 24, 0xFF),
    ),
    "rle_dict": (long_runs,),
    "cns": tuple(
        lambda f=f, v=v: with_field(cns_text(), 1, f, v)
        for f, v in ((2, b"\xff"), (2, b"X"), (4, b"12x"), (4, b"300"),
                     (1, b"9" * 20))
    ),
    "read_soap": tuple(
        lambda f=f, v=v: with_field(soap_text(), 2, f, v)
        for f, v in ((3, b"-3"), (7, b"0"), (6, b"chr\xff"))
    ),
}
PINNED["stream"] = PINNED["read_soap"]


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_hostile_inputs_fail_typed(name, tmp_path):
    for build in PINNED[name]:
        assert DECODERS[name][1](build(), tmp_path / "pinned") is not None


def test_container_error_names_column_and_byte():
    data = PINNED["decode_table"][3]()
    at = stream().index(b"second_base") + len(b"second_base")
    with pytest.raises(CodecError, match="column 'second_base', byte") as err:
        decode_stream(data)
    assert (err.value.column, err.value.offset) == ("second_base", at)
