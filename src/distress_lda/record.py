"""Frozen value records: the one base of the package's data types.

A record class lists its fields as class annotations, in order, and its
__match_args__ names them in that order, as for a dataclass. No field has a
default: a record takes every field, by position or keyword, and a class body
giving a field a value is refused. A record is a tuple of its fields in that
order: it unpacks, iterates and indexes as one, and each field is a read-only
property by position. Records refuse assignment, deletion and ordering,
compare and hash by value within one class (a plain tuple never equals a
record), and print as Name(field=value, ...). A class may define _validate,
which its every construction runs once the fields are set.

Building a record class compiles no code and imports no module, unlike a
dataclass, so the package's start-up pays for neither.
"""
from __future__ import annotations

from operator import itemgetter


class _RecordType(type):
    """Turns a class body's annotations into field properties."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        for key in fields:
            if key in namespace:  # the field's property would silently replace the value
                raise TypeError(f"{name}.{key}: a record field takes no default")
        namespace.update({key: property(itemgetter(at)) for at, key in enumerate(fields)})
        namespace.update(__slots__=(), __match_args__=fields)
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=_RecordType):
    _validate = None  # or a method that raises ValueError for field values the class refuses

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            args = cls._arguments(args, kwargs)
        record = tuple.__new__(cls, args)
        if cls._validate is not None:
            record._validate()
        return record

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
                raise TypeError(f"{cls.__name__}() missing field {key!r}")
        return [values[key] for key in fields]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # tuple's own __eq__ would answer for another tuple, records of other classes included.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError(f"{type(self).__name__} records have no order")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(self.__match_args__, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through the constructor, so a copy or an unpickled record is validated too.
        return type(self), tuple(self)
