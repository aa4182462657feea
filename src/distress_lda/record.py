"""Frozen value records: the one base of the package's data types.

A record class lists its fields as class annotations, in order, and its
__match_args__ names them in that order, as for a dataclass. A value assigned
in the class body is that field's default; a dict default is copied for each
record. Records take their fields by position or keyword, refuse assignment
and deletion, compare and hash by value within one class, and print as
Name(field=value, ...). Each record is one slotted object without a
per-instance dict. A class may define _validate, which every construction
runs once the fields are set.

Building a record class compiles no code and imports no module, unlike a
dataclass, so the package's start-up pays for neither.
"""
from __future__ import annotations


class _RecordType(type):
    """Turns a class body's annotations into slots and its field values into defaults."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {key: namespace.pop(key) for key in fields if key in namespace}
        namespace.update(__slots__=fields, __match_args__=fields, _defaults=defaults)
        cls = super().__new__(mcls, name, bases, namespace)
        # Each field's slot setter, bound once: the constructor's one step per field.
        cls._setters = tuple(getattr(cls, key).__set__ for key in fields)
        return cls


class Record(metaclass=_RecordType):
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._arguments(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self._validate()

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in field order, of a call that is not one positional value per field."""
        fields = cls.__match_args__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{cls.__name__}() got multiple values for field {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing field {key!r}")
                default = cls._defaults[key]
                values[key] = dict(default) if isinstance(default, dict) else default
        return [values[key] for key in fields]

    def _validate(self) -> None:
        """Raise ValueError for field values the class refuses; by default none."""

    def _values(self) -> tuple:
        return tuple([getattr(self, key) for key in self.__match_args__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through the constructor, so a copy or an unpickled record is validated too.
        return type(self), self._values()
