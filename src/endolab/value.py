"""The base of endolab's value types: plain classes with ``__slots__``.

A value type names its fields in ``__slots__`` and sets them in its own
``__init__``, through ``object.__setattr__`` when it is frozen.  The base gives
it ``==`` and ``hash`` on the tuple of fields, between objects of the same
class only; the repr ``Cls(field=value, ...)``; and an ``AttributeError`` on
assignment.  It generates no code at import and imports only `operator`, so
a command starts fast.  The hot types (`Weight`, `WeylElement`, `SquareClass`,
`Place`, `QuadraticSpace`) spell out ``==`` and ``hash`` on their fields,
which is faster than the generic key here.  ``frozen=False`` makes a mutable,
unhashable type.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True):
        super().__init_subclass__()
        names = cls.__slots__
        get = attrgetter(*names) if names else lambda self: ()
        # a one-field key is a 1-tuple too, so every hash is that of the field tuple
        cls._key = staticmethod(get if len(names) != 1 else lambda self: (get(self),))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Unpickling and `copy` restore the slots past the frozen `__setattr__`."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
