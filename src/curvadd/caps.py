"""Enumeration caps.

Several operations enumerate a full field, all hyperplanes, or every
additive map on a field.  Those loops are exact but exponential, so each
one takes an explicit cap and refuses to start when the loop count would
exceed it.  The defaults keep everything interactive on a desktop; the
CURVADD_CAP environment variable overrides both at once for users who
want to push further (or clamp harder).
"""

import os

DEFAULT_FIELD_CAP = 1 << 20
DEFAULT_ORACLE_CAP = 1 << 24

_ENV_VAR = "CURVADD_CAP"


def effective_cap(cap=None, default=DEFAULT_FIELD_CAP):
    """The cap in force: an explicit cap wins, then CURVADD_CAP, then
    the default (DEFAULT_FIELD_CAP for field, hyperplane and point
    enumeration, DEFAULT_ORACLE_CAP for the exhaustive all-maps scan)."""
    if cap is not None:
        return int(cap)
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
