"""Frozen value classes: `record`, the one decorator behind every one.

`record` reads a class's annotated fields, in order, with a class-level
value as the field's default.  As `collections.namedtuple` does, it
compiles one small block per class: an `__init__` (positional, keyword
and default arguments) that sets each field with `object.__setattr__`
and then calls `__post_init__` when the class has one, `__eq__` (same
class only), and `__hash__` on the tuple of fields, cached on first use.
One shared `__repr__` prints `Name(field=value!r, ...)`, and assigning
or deleting an attribute raises `FrozenInstanceError`.  A method the
class body defines itself is kept: `refine.DMPPair` hashes at construction.

The fields are not written through `self.__dict__`: asking for it makes
CPython build a dict per instance in place of the inline attribute
values, and every later attribute read about three times slower.

It takes no options.  It stands in for `dataclasses`, whose import and
per-class code generation would cost every CLI start more than a
typical job.
"""

from __future__ import annotations

__all__ = ["FrozenInstanceError", "record"]


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record of its annotated fields."""
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
    methods.update(__repr__=_repr, __setattr__=_setattr, __delattr__=_delattr)
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        if name not in cls.__dict__:
            setattr(cls, name, methods[name])
    cls.__match_args__, cls._hash = names, None
    return cls
