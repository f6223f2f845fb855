"""Test-side stand-ins for what `dataclasses` gave the record classes.

`replace` rebuilds a record with some fields changed, through its
class's `__init__` (so `__post_init__` checks the result), as
`dataclasses.replace` did.  `dataclass_twin` is the oracle the record
classes are compared with: a frozen dataclass with the same fields and
defaults, whose `__init__`, `__eq__`, `__hash__` and `__repr__` come
from `dataclasses`, and which inherits the rest, `__post_init__`
included, from the record class.  Only the tests import `dataclasses`.
"""

import dataclasses


def replace(obj, **changes):
    """`obj` with `changes` applied; a name that is not a field is a TypeError."""
    fields = {name: getattr(obj, name) for name in type(obj).__match_args__}
    return type(obj)(**{**fields, **changes})


def dataclass_twin(cls):
    """`dataclasses.make_dataclass(..., frozen=True)` with `cls`'s fields, on `cls`."""
    fields = [
        (name, kind, dataclasses.field(default=cls.__dict__[name]))
        if name in cls.__dict__ else (name, kind)
        for name, kind in cls.__dict__["__annotations__"].items()
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, bases=(cls,), frozen=True)
