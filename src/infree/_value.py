"""The one base of the package's immutable values.

A value class names its fields once, `__slots__ = _fields = (...)`, in the
order its validating constructor takes them.  Its `__init__` validates and
stores them with `_set`; a value the library has just computed skips the
validation through the trusted constructor `_of`.  Both write the slots
through `_setters`, the `__set__` of each field's slot descriptor, bound
once per class when the class is created, so a write looks up no attribute
name.  A class whose trusted constructor runs once per computed scalar
unpacks `_setters` itself.  Fields cannot be assigned afterwards, a pickled
value is rebuilt through the validating constructor, and two values are
equal when they have exactly the same type and equal fields, compared
through the per-class key `attrgetter(*_fields)`.
"""
from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)
        # class access to a slot gives its member descriptor, wherever in
        # the bases the slot is declared
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _of(cls, *values):
        """Trusted construction from fields the library has just produced:
        nothing is checked.  It runs once per partition enumerated, so it
        writes the slots itself rather than through `_set`."""
        self = object.__new__(cls)
        for setter, value in zip(cls._setters, values):
            setter(self, value)
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
