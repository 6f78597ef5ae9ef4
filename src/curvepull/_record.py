"""The base of the records that a ``NamedTuple`` would not serve: those
that must not equal a record of another type with the same fields, that
check their fields, or that keep more than their fields."""

from __future__ import annotations


class Record:
    """An immutable record with the fields named in ``_fields``.

    Two records are equal when their types and their fields are; a record
    hashes its fields, shows them in its repr, and refuses assignment and
    deletion.  A subclass's ``__init__`` names its fields and passes them
    to ``Record.__init__`` in ``_fields`` order, then checks them.  It
    lists ``_fields`` in ``__slots__``, plus any attribute it keeps
    beside them; one that caches with ``cached_property`` has no
    ``__slots__``, so that it has the ``__dict__`` the cache needs.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
