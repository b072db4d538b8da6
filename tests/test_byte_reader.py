"""The jsonl byte reader against text read with universal newlines.

trace._jsonl_chunks reads a jsonl file as bytes, _JSONL_CHUNK * 256 at a
time, and cuts it into chunks of _JSONL_CHUNK lines. Its oracle is the
text a TextIOWrapper reads from the same bytes with universal newlines,
utf-8-sig and surrogateescape: the chunks joined must hold that text,
every chunk must end in LF, and every chunk but the last must hold
exactly _JSONL_CHUNK lines. parse_trace, read in such chunks from bytes
or from a file, must give the Trace, or the error (type, line and
message), that line_by_line() gives.
"""

import codecs
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtrace import EmptyTrace, MalformedRecord, trace
from test_bulk_parse import assert_same_outcome, line_by_line, outcome
from test_layout_parse import chunks_of

CHUNK = 3
READ = CHUNK * 256  # the bytes of one read


def job(i: int, name: str = "n") -> bytes:
    return ('{"job_id":%d,"name":"%s","submit_time":%d}' % (i, name, 100 - i)).encode()


def universal_text(data: bytes) -> bytes:
    """The bytes of data's text as read with universal newlines, ending in LF."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                            errors="surrogateescape").read()
    out = text.encode("utf-8", "surrogateescape")
    return out if not out or out.endswith(b"\n") else out + b"\n"


def assert_chunks_match_text(data: bytes, lines: int = CHUNK):
    chunks = chunks_of(data, lines)
    assert b"".join(chunks) == universal_text(data)
    assert all(chunk.endswith(b"\n") for chunk in chunks)
    assert all(chunk.count(b"\n") == lines for chunk in chunks[:-1])


def check(data: bytes, tmp_path):
    """data's chunks, and its outcome read from bytes and from a file
    against line_by_line(); returns that outcome."""
    assert_chunks_match_text(data)
    with line_by_line():
        want = outcome(data)
    path = tmp_path / "t.jsonl"
    path.write_bytes(data)
    with mock.patch.object(trace, "_JSONL_CHUNK", CHUNK):
        assert_same_outcome(outcome(data), want)
        assert_same_outcome(outcome(path), want)
    return want


def first_read_ending_in_cr(newline: bytes, after: bytes) -> bytes:
    """Job lines whose first read ends in the CR of a line end, with
    `after` next and then more lines."""
    head = newline.join(job(i) for i in range(2)) + newline
    fill = READ - len(head) - len(job(2, "")) - 1
    head += job(2, "x" * fill) + b"\r"
    assert len(head) == READ
    return head + after + newline.join(job(i) for i in range(3, 12)) + newline


@pytest.mark.parametrize("newline, after", [
    (b"\r\n", b"\n"),  # a CRLF split between two reads
    (b"\r\n", b"\r\n"),  # CR, then a blank line in CRLF
    (b"\r", b""),  # CR-only endings
    (b"\r", b"\r"),  # CR, then a blank CR line
    (b"\n", b"\n"),  # CR, then a blank LF line
], ids=["crlf-split", "cr-then-crlf", "cr", "cr-then-cr", "cr-then-lf"])
def test_cr_at_the_end_of_a_read(tmp_path, newline, after):
    data = first_read_ending_in_cr(newline, after)
    assert data[READ - 1:READ] == b"\r"
    want = check(data, tmp_path)
    assert len(want) == 12


def test_cr_only_line_endings(tmp_path):
    data = b"\r".join([job(i) for i in range(10)] + [b"", b" "] + [job(i) for i in range(10, 30)])
    assert len(check(data, tmp_path)) == 30
    assert len(check(data + b"\r", tmp_path)) == 30


def test_bom_at_the_start_is_dropped(tmp_path):
    data = b"\n".join(job(i) for i in range(20)) + b"\n"
    want = check(codecs.BOM_UTF8 + data, tmp_path)
    assert_same_outcome(outcome(data), want)


@pytest.mark.parametrize("line_no", [2, 4, 9], ids=["mid-chunk", "chunk-start", "chunk-end"])
def test_bom_mid_file_raises_at_its_line(tmp_path, line_no):
    lines = [job(i) for i in range(12)]
    lines[line_no - 1] = codecs.BOM_UTF8 + lines[line_no - 1]
    want = check(b"\n".join(lines), tmp_path)
    assert isinstance(want, MalformedRecord) and want.line_no == line_no


def test_invalid_utf8_in_a_later_chunk_with_a_valid_non_ascii_name(tmp_path):
    lines = [job(i, "中") for i in range(12)]
    lines[6] = job(6, "é")
    lines[7] = job(7, "a\xff").replace("\xff".encode(), b"\xff")
    want = check(b"\n".join(lines) + b"\n", tmp_path)
    assert isinstance(want, MalformedRecord) and want.line_no == 8
    assert str(want) == "line 8: invalid UTF-8"


@pytest.mark.parametrize("count", [CHUNK * 3, CHUNK * 3 + 1], ids=["whole-chunks", "short-chunk"])
def test_missing_final_newline(tmp_path, count):
    names = ["b", "a", "b", "c", "é", "d", "", "b", "a", "e"]
    lines = [job(i, names[i % len(names)]) for i in range(count)]
    data = b"\n".join(lines)
    want = check(data, tmp_path)
    assert len(want) == count
    assert chunks_of(data, CHUNK)[-1].endswith(lines[-1] + b"\n")


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r", b""])
@pytest.mark.parametrize("reads", [1, 2])
def test_file_size_a_multiple_of_the_read_size(tmp_path, ending, reads):
    between = ending or b"\n"  # b"": no final newline
    body = between.join(job(i) for i in range(5)) + between
    fill = reads * READ - len(body) - len(job(5, "")) - len(ending)
    data = body + job(5, "x" * fill) + ending
    assert len(data) == reads * READ
    assert len(check(data, tmp_path)) == 6


@pytest.mark.parametrize("data", [b"", b"\n", b"\r\n\r\n", b"\r\r \t\r", b" \n" * 400,
                                  codecs.BOM_UTF8, codecs.BOM_UTF8 + b"\r\n"])
def test_blank_lines_only(tmp_path, data):
    assert isinstance(check(data, tmp_path), EmptyTrace)


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r", b"\r\r\n", b"{}", b"x" * 97,
                                        b"\xc3\xa9", b"\xff", codecs.BOM_UTF8]), max_size=60),
       bom=st.booleans(), lines=st.integers(1, 4))
def test_chunks_hold_the_universal_newline_text(pieces, bom, lines):
    data = (codecs.BOM_UTF8 if bom else b"") + b"".join(pieces)
    assert_chunks_match_text(data, lines)
