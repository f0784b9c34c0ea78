"""The one base of the package's immutable values.

A value class names its fields once, `__slots__ = _fields = (...)`, in the
order its validating constructor takes them.  Its `__init__` validates and
stores them with `_set`; a value the library has just computed skips the
validation through the trusted constructor `_of`.  Fields cannot be
assigned afterwards, a pickled value is rebuilt through the validating
constructor, and two values are equal when they have exactly the same type
and equal fields, compared through the per-class key `attrgetter(*_fields)`.
"""
from operator import attrgetter

_setattr = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    @classmethod
    def _of(cls, *values):
        """Trusted construction from fields the library has just produced:
        nothing is checked.  It runs once per partition enumerated, so it
        writes the slots itself rather than through `_set`."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            _setattr(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"
