"""Test-side stand-ins for what `dataclasses` gave the record classes.

`replace` rebuilds a record with some fields changed, through its
class's `__init__` (so `__post_init__` checks the result), as
`dataclasses.replace` did.  `dataclass_twin` is the oracle the record
classes are compared with: a frozen dataclass with the same fields and
defaults, whose `__init__`, `__eq__`, `__hash__` and `__repr__` come
from `dataclasses`, and which inherits the rest, `__post_init__`
included, from the record class.  Only the tests import `dataclasses`.
`compiled_per_class` is how `record` built its methods before one
template served every class of a shape: one `compile` per class, whose
bytecode, names, defaults and errors the shared templates must give.
"""

# as in `mptypes.record`, whose compiled code inherits the flag
from __future__ import annotations

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


def compiled_per_class(cls) -> dict:
    """`cls`'s `__init__`, `__eq__` and `__hash__`, compiled from a block
    written out for its own fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in names)
    mine = "".join(f"self.{f}, " for f in names)
    theirs = "".join(f"other.{f}, " for f in names)
    lines = [f"def __init__(self, {params}):"]
    lines += [f"    _set(self, {f!r}, {f})" for f in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    lines += [
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    if self._hash is None: _set(self, '_hash', hash(({mine})))",
        "    return self._hash",
    ]
    methods = {"_defaults": defaults, "_set": object.__setattr__}
    exec(compile("\n".join(lines), f"<record {cls.__qualname__}>", "exec"), methods)
    return {name: methods[name] for name in ("__init__", "__eq__", "__hash__")}
