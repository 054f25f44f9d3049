"""Exception hierarchy, and Frozen, the base of every value type and
record.

Everything raised on purpose by this package derives from CurvaddError,
so callers can catch one type.  The CLI maps these onto exit codes:
ParseError -> 1, ValueError / CapExceeded -> 2, Inconsistent -> 3.
"""

from operator import attrgetter


class CurvaddError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CurvaddError, ValueError):
    """Malformed expression or curve file.

    ``position`` is the 0-based character offset of the first offending
    character in the input string, or None when the error is not tied to
    a single position (e.g. a bad header line in a curve file).
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CapExceeded(CurvaddError, RuntimeError):
    """An enumeration would exceed its cap; nothing was computed."""

    def __init__(self, what, needed, cap):
        super().__init__(f"{what} needs {needed} steps, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


class ContextMismatch(CurvaddError, ValueError):
    """Operands live in different field contexts."""


class Inconsistent(CurvaddError, RuntimeError):
    """Two routes that must agree did not, or a proven bound failed.

    This is never a user error: it means either an internal bug or an
    input that violates a hypothesis some conclusion depends on.  The
    message says which.
    """


class Frozen:
    """An immutable value with named fields, compared and hashed by them.

    The base of the six value types, of every record (the pipeline's
    reports, and the CodeTables and FibreScan the scans share), of
    FqContext and of the finite-field coefficient domains: the package
    builds no record any other way, and it generates no code.  The
    fields are the base class's, then the class's own __slots__ if it
    declares them, else its own annotations in order.  A class
    attribute named like a field is that field's default.

    The generic __init__ takes the fields by position or by keyword,
    raises TypeError for a missing, unknown or repeated one, and stores
    them as the instance's __dict__ in one step: it serves the records.
    The slotted classes define their own.

    Assigning or deleting any name raises AttributeError.  An instance
    equals only an instance of the same class with equal fields, and
    prints as Name(field=value, ...).  copy, deepcopy and pickle
    rebuild the fields directly, without running a validating __init__
    again.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        names = tuple(own.get("__slots__", own.get("__annotations__", ())))
        cls._fields = cls._fields + names
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: own[n] for n in names if n in own}}
        if len(cls._fields) < 2:
            raise TypeError(f"{cls.__name__} needs at least two fields")
        # the tuple of field values, read in C (not a method: no self)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **values):
        cls = type(self)
        names = cls._fields
        clash = False
        if args:
            clash = len(args) > len(names)
            if values:
                clash = clash or not values.keys().isdisjoint(names[: len(args)])
            values.update(zip(names, args))
        if len(values) < len(names):
            values = {**cls._defaults, **values}
        if clash or values.keys() != cls._field_set:
            raise TypeError(
                f"{cls.__name__}() takes its fields ({', '.join(names)}) once "
                "each, by position or keyword, and every field without a default"
            )
        object.__setattr__(self, "__dict__", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return _rebuild, (type(self), self._values(self))


def _rebuild(cls, values):
    """The instance of cls with these field values (Frozen.__reduce__)."""
    self = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(self, name, value)
    return self
