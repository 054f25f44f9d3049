"""Enumeration caps.

Several operations enumerate a full field, its point pairs, the codes
the hyperplane decider draws its candidates from, or the code tables
behind the exhaustive oracle.  Those loops are exact but grow with the
field, so each one refuses to start when its step count would exceed
the cap in force.  The default keeps everything interactive on a
desktop; the CURVADD_CAP environment variable, the one way to set a
cap, overrides it for users who want to push further (or clamp harder).
"""

import os
import sys

from .errors import CapExceeded

DEFAULT_FIELD_CAP = 1 << 20

_ENV_VAR = "CURVADD_CAP"


def effective_cap(default=DEFAULT_FIELD_CAP):
    """The cap in force: CURVADD_CAP when set, else `default`
    (DEFAULT_FIELD_CAP unless a caller passes its own)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def check_cap(what, needed, default=DEFAULT_FIELD_CAP, exp=1):
    """Refuse `what` before it starts when its needed**exp steps exceed
    the cap in force.  The power is compared by bit length first:
    needed**exp >= 2^b for b = exp * (bit_length(needed**64) - 1) // 64,
    so once 2^b passes the cap and 10^(0.30102 b) Python's int
    string-conversion limit, it is refused unbuilt, as more than that."""
    limit = effective_cap(default)
    bits = exp * ((needed**64).bit_length() - 1) // 64
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if bits >= limit.bit_length() and bits * 30102 // 100000 > digits:
        raise CapExceeded(what, None, limit, bits)
    if (count := needed**exp) > limit:
        raise CapExceeded(what, count, limit)
