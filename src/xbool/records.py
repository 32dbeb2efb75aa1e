"""Small value records over `__slots__`.

A record's fields are its `__slots__`, in order.  Its own `__init__`
gives the signature (keywords and defaults) and stores the values with
`_fill`.  Records compare equal when they have the same class and
field values, and print as `Name(field=value, ...)`.  A `Frozen` record
also hashes by value and refuses assignment after construction; a
plain `Record` is mutable and, like any mutable value, unhashable.
"""

from __future__ import annotations

_set = object.__setattr__  # bypasses Frozen.__setattr__ while a record is built


class Record:
    __slots__ = ()
    __hash__ = None

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the default slot-state
        # restore assigns each field, which a Frozen record refuses
        return type(self), self._values()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
