"""Enumeration caps.

Several operations enumerate a full field, its point pairs, the codes
the hyperplane decider draws its candidates from, or the code tables
behind the exhaustive oracle.  Those loops are exact but grow with the
field, so each one refuses to start when its step count would exceed
the cap in force.  The default keeps
everything interactive on a desktop; the CURVADD_CAP environment
variable, the one way to set a cap, overrides it for users who want to
push further (or clamp harder).
"""

import os

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


def check_cap(what, needed, default=DEFAULT_FIELD_CAP):
    """Refuse `what` before it starts when its `needed` steps exceed
    the cap in force."""
    limit = effective_cap(default)
    if needed > limit:
        raise CapExceeded(what, needed, limit)
