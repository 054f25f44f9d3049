"""Enumeration caps.

Several operations enumerate a full field, all hyperplanes, or every
additive map on a field.  Those loops are exact but exponential, so each
one refuses to start when its step count would exceed the cap in force.
The defaults keep everything interactive on a desktop; the CURVADD_CAP
environment variable, the one way to set a cap, overrides both at once
for users who want to push further (or clamp harder).
"""

import os

from .errors import CapExceeded

DEFAULT_FIELD_CAP = 1 << 20
DEFAULT_ORACLE_CAP = 1 << 24

_ENV_VAR = "CURVADD_CAP"


def effective_cap(default=DEFAULT_FIELD_CAP):
    """The cap in force: CURVADD_CAP when set, else `default`
    (DEFAULT_FIELD_CAP for field, hyperplane and point enumeration,
    DEFAULT_ORACLE_CAP for the exhaustive all-maps scan)."""
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


def fits(needed, default=DEFAULT_FIELD_CAP):
    """Whether `needed` steps fit the cap in force; for stages that are
    skipped, not refused, when they do not."""
    return needed <= effective_cap(default)


def check_cap(what, needed, default=DEFAULT_FIELD_CAP):
    """Refuse `what` before it starts when its `needed` steps exceed
    the cap in force."""
    limit = effective_cap(default)
    if needed > limit:
        raise CapExceeded(what, needed, limit)
