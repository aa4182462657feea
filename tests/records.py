"""fields, astuple and replace, as in dataclasses, for the package's value
records, which are not dataclasses. A record's fields, in order, are its
class's __match_args__.
"""


def fields(cls) -> tuple[str, ...]:
    """The field names of a record class, in order."""
    return cls.__match_args__


def astuple(record) -> tuple:
    """The record's field values, in field order."""
    return tuple(getattr(record, name) for name in fields(type(record)))


def replace(record, **changes):
    """A new record of the same class: the given fields changed, the others kept."""
    kept = {name: getattr(record, name) for name in fields(type(record)) if name not in changes}
    return type(record)(**kept, **changes)
