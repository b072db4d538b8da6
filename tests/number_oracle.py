"""The per-digit number reader that ``trace._number_values`` replaced,
kept as the oracle for the differential tests in ``test_number_words.py``.

It spreads every digit into arrays of its own, one entry per digit, and
sums digit times power of ten per text. Past 20 digits it clamps the power
at 10**19, so there its value is not the digits mod 2**64; the layout
reader never uses such a value: it converts a float text past 15 digits
from its bytes and declines an integer past 20.
"""

import numpy as np


def digit_values(buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Parse the number texts buf[start:end] (nonempty and in order): the
    integer of each text's digits, wrapping mod 2**64, so exact up to 19
    digits; its digit count; and its digit count after the dot. None when
    a byte is neither a digit nor a dot, or a text has a leading zero, two
    dots, or a dot at either end."""
    start, end = start.astype(np.int32), end.astype(np.int32)  # halves the byte arrays
    length = end - start
    offset = np.cumsum(length, dtype=np.int32) - length
    pos = np.repeat(start - offset, length) + np.arange(offset[-1] + length[-1], dtype=np.int32)
    digit = buf[pos] - 48  # uint8: "." wraps to 254
    dots = np.flatnonzero(digit == 254)
    if np.count_nonzero(digit > 9) != dots.size:
        return None
    # The power of ten of each digit, one less before a dot. The arrays of
    # one entry per digit set the reader's working set, so they are
    # updated in place and dropped once read.
    power = np.repeat(end - 1, length)
    power -= pos
    dot_pos = pos[dots]
    del pos
    fraction = np.zeros(start.size, dtype=np.int64)
    if dots.size:
        span = np.searchsorted(offset, dots, "right") - 1
        fraction[span] = end[span] - 1 - dot_pos
        if np.any(np.diff(span) == 0) or np.any((fraction[span] == 0) | (dot_pos == start[span])):
            return None
        before = np.zeros(power.size + 1, dtype=np.int8)
        before[offset[span]] = 1
        before[dots] = -1
        power -= np.cumsum(before[:-1], dtype=np.int8)
        digit[dots] = 0
    if np.any((buf[start] == 48) & (length > 1) & (buf[start + 1] != 46)):
        return None
    np.minimum(power, 19, out=power)  # texts past 20 digits are decided by the caller
    scaled = (10 ** np.arange(20, dtype=np.uint64))[power]
    del power
    scaled *= digit
    value = np.add.reduceat(scaled, offset)
    return value, length - (fraction > 0), fraction
