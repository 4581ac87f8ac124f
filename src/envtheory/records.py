"""Immutable records.

Every system, spec, solution and report of the package is a
``collections.namedtuple`` subclass with ``__slots__ = ()`` and the
``Record`` mixin in front of it.  A named tuple class is built without the
generated-method execs of a dataclass, which keeps ``import envtheory``
cheap; its fields are read-only, and ``_replace`` returns a copy with some
fields changed.  A record that validates its fields does so in ``__new__``.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Mixin of the package's named tuples: type-strict equality, checked copies.

    A plain named tuple equals any tuple with the same items.  A record
    equals only a record of its own class with equal fields, never a plain
    tuple or a record of another class; it hashes as the tuple of its
    fields.  ``_make``, and with it ``_replace``, builds through the class,
    so the checks of a record's ``__new__`` also run on a copy.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
