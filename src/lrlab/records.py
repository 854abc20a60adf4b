"""Immutable records with value semantics.

A record's fields are its ``__slots__``, set once by its ``__init__``
through ``setfield`` (the record refuses plain assignment).
It equals only a record of its own class with equal fields, hashes as
the tuple of its fields, and reads back as ``Name(field=value, ...)``.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)
