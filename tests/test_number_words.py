"""The word-at-a-time number reader against the per-digit one it replaced.

trace._number_values reads each number text of a layout chunk through
8-byte words that end where the text ends. number_oracle.digit_values
spreads every digit into arrays of its own. For every batch of texts
both must decline alike, and where they read it, give the same digit
count, digit count after the dot and value: the digits mod 2**64, which
the oracle gives exactly up to 20 digits.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mrtrace import trace
from number_oracle import digit_values

# Bytes a text may be spoiled with: the neighbours of the digits, ASCII
# letters and bytes that are not ASCII.
SPOILERS = [b"/", b":", b"\x80", b"\xff", b"\xb0", b" ", b"-", b"e", b"\x00"]
# Bytes between the texts, which the words read before a text's start.
FILLER = st.lists(st.sampled_from(list(b"0123456789./:x\x80")), max_size=9).map(bytes)


@st.composite
def number_text(draw, max_size=40, max_dots=2):
    """Digits with up to max_dots dots, 1 to max_size bytes long; now and
    then with a leading zero."""
    dots = draw(st.integers(0, max_dots))
    n = draw(st.integers(max(1 - dots, 0), max_size - dots))
    body = draw(st.sampled_from("1234567890")) if n else ""
    body += draw(st.text("0123456789", min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    for _ in range(dots):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + "." + body[at:]
    return body.encode()


@st.composite
def spoiled_text(draw):
    text = bytearray(draw(number_text(39)) or b"1")
    at = draw(st.integers(0, len(text)))
    text[at:at] = draw(st.sampled_from(SPOILERS))
    return bytes(text)


text = st.one_of(number_text(), number_text(), spoiled_text())
# Texts both readers take, so that a batch of them is read, not declined.
readable = number_text(max_dots=1).filter(
    lambda t: t[:1] != b"." and t[-1:] != b"." and (t[:1] != b"0" or t[1:2] in (b"", b".")))


def lay_out(texts, gaps):
    """buf, start, end with texts in order, each with at least 8 bytes
    before it, the gaps between them drawn from digits and dots."""
    buf, start, end = bytearray(b"{\"k\":000"), [], []
    for t, gap in zip(texts, gaps):
        buf += gap
        start.append(len(buf))
        buf += t
        end.append(len(buf))
        buf += b","
    buf += bytes(8)
    return np.frombuffer(bytes(buf), dtype=np.uint8), np.array(start), np.array(end)


def assert_same_reading(texts, gaps=None):
    buf, start, end = lay_out(texts, gaps or [b""] * len(texts))
    want = digit_values(buf, start, end)
    got = trace._number_values(buf, start, end)
    assert (got is None) == (want is None), texts
    if want is None:
        return
    value, digits, fraction = got
    assert digits.tolist() == want[1].tolist(), texts
    assert fraction.tolist() == want[2].tolist(), texts
    assert value.dtype == np.uint64
    short = digits <= 20
    assert value[short].tolist() == want[0][short].tolist(), texts
    assert value.tolist() == [int(t.replace(b".", b"")) % 2**64 for t in texts]


@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts=st.one_of(st.lists(text, min_size=1, max_size=6),
                      st.lists(readable, min_size=1, max_size=6)),
       gaps=st.lists(FILLER, min_size=6, max_size=6))
def test_word_reader_matches_digit_reader(texts, gaps):
    for t in texts:
        assert_same_reading([t])
        event(f"{len(t)} bytes")
    buf, start, end = lay_out(texts, gaps)
    event("batch declined" if digit_values(buf, start, end) is None else "batch read")
    assert_same_reading(texts, gaps)


def around(n):
    """Texts of n digits, with a dot at each place, a leading zero and a
    spoiled byte at each end."""
    digits = "".join(str((7 * i + 3) % 10) for i in range(n - 1))
    plain = ["9" + digits, "1" + digits, "0" + digits]
    dotted = [t[:i] + "." + t[i:] for t in plain for i in range(len(t) + 1)]
    spoiled = [b + t for t in plain[:1] for b in ("/", ":", "\x80")] + \
              [t + b for t in plain[:1] for b in ("/", ":", "\xff")]
    return [t.encode("latin-1") for t in plain + dotted + spoiled]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 32, 33])
def test_word_and_block_edges(n):
    for t in around(n):
        assert_same_reading([t])
    assert_same_reading([t for t in around(n) if t.count(b".") <= 1 and b"\x80" not in t][:3])


NEAR_LIMITS = [str(v) for base in (2**63, 2**64) for v in range(base - 2, base + 3)] + [
    "9" * 19, "1" + "0" * 18, "9" * 20, "1" + "0" * 19, "2" + "0" * 19, "1" + "8" * 19,
    str(2**64 - 1)[:-1] + "6", "922337203685477580.8", "1844674407370955161.5",
    "18446744073709551.615"]


@pytest.mark.parametrize("literal", NEAR_LIMITS)
def test_19_and_20_digit_values_near_2_63_and_2_64(literal):
    assert_same_reading([literal.encode()])
    assert_same_reading([b"7", literal.encode(), b"12.5"])


def test_long_literals_are_read_mod_2_64():
    for literal in [str(int(1.7976931348623157e308)), "1" * 400 + ".0", "0." + "0" * 400 + "1"]:
        buf, start, end = lay_out([literal.encode()], [b""])
        value, digits, fraction = trace._number_values(buf, start, end)
        assert int(value[0]) == int(literal.replace(".", "")) % 2**64
        assert int(digits[0]) == len(literal.replace(".", ""))
        assert int(fraction[0]) == len(literal.partition(".")[2])
