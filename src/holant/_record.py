"""Frozen value records, the part of frozen dataclasses this package uses.

Importing `dataclasses` pulls in `inspect`, `ast` and `dis`, and building
each dataclass compiles generated methods; on Python 3.11 that was a
quarter of the start-up time of `holant.cli` and about 1 MB of memory.
"""

from __future__ import annotations


class Record:
    """A value object whose fields are the subclass's ``__slots__``.

    The subclass's ``__init__`` passes every field, in slot order, to
    ``_init``; after that, assignment raises.  Equality (same class only),
    hash and repr read every field.
    """

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
