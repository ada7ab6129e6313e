"""The immutable-value base class every model and protocol value derives from.

A value class lists its fields in ``__slots__``, in constructor order.
``Value.__init__`` binds them as a call binds parameters: positionally in
field order, then by keyword; a call gives every field.  A class writes
its own ``__init__`` only when it checks or converts its arguments; that
one ends by handing the checked values to ``Value.__init__`` in field
order, so this module alone binds fields.
``Value`` supplies the rest from the slots, without generating code at
import time, which ``dataclasses`` does for every class in every process.
A slot whose name starts with ``_`` holds state derived from the fields,
such as a cache; it is not a field.
"""

from __future__ import annotations


class Value:
    """Immutable; equal, and hashing equal, when the fields are equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # Each field's slot setter, in field order: it stores past the
        # refusing __setattr__ without looking the name up on each call.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        # Each checking __init__ passes every field by position; any other
        # call binds its keywords first.
        if kwargs or len(args) != len(setters):
            fields = self._fields
            if len(args) > len(fields):
                raise TypeError(f"{self.__class__.__name__} takes {len(fields)} fields "
                                f"{fields} but {len(args)} were given")
            missing = None
            for field, store in zip(fields[len(args):], setters[len(args):]):
                if field in kwargs:
                    store(self, kwargs.pop(field))
                elif missing is None:
                    missing = field
            # As in a call, a wrong keyword is named before a missing field.
            for field in kwargs:
                if field in fields:
                    raise TypeError(f"{self.__class__.__name__} got field {field!r} twice")
                raise TypeError(f"{self.__class__.__name__} has no field {field!r}")
            if missing is not None:
                raise TypeError(f"{self.__class__.__name__} is missing field {missing!r}")
        for store, value in zip(setters, args):
            store(self, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Copy and pickle rebuild through the constructor, which checks
        # the value again; setting slots one by one would be refused.
        return self.__class__, self._astuple()
