"""Frozen value classes: `record`, the one decorator behind every one.

`record` reads a class's annotated fields, in order, with a class-level
value as the field's default (defaults come last, as in a signature).
Its methods come from one compiled template per shape, that is per
(field count, whether the class has `__post_init__`), written on
placeholder fields and compiled on the first class of that shape: an
`__init__` (positional, keyword and default arguments) that sets each
field with `object.__setattr__` and then calls `__post_init__` when the
class has one, `__eq__` (same class only), and `__hash__` on the tuple
of fields, cached on first use.  Each class gets copies of the
template's code objects with its own field names and the file name
`<record Name>`, so it runs the bytecode a per-class compile would give
without paying for that compile.  One shared `__repr__` prints
`Name(field=value!r, ...)`, and assigning or deleting an attribute
raises `FrozenInstanceError`.  A method the class body defines itself is
kept: `refine.DMPPair` hashes at construction.

The fields are not written through `self.__dict__`: asking for it makes
CPython build a dict per instance in place of the inline attribute
values, and every later attribute read about three times slower.

It takes no options.  It stands in for `dataclasses`, whose import and
per-class code generation would cost every CLI start more than a
typical job.
"""

from __future__ import annotations

from functools import lru_cache
from types import CodeType, FunctionType

__all__ = ["FrozenInstanceError", "record"]

_set = object.__setattr__  # the generated methods' one global


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _placeholders(count: int) -> tuple:
    return tuple(f"_f{i}" for i in range(count))


@lru_cache(maxsize=None)
def _template(count: int, post_init: bool) -> tuple:
    """The `__init__`, `__eq__` and `__hash__` code of a record of this shape,
    on the fields `_placeholders(count)`; compiled once per shape."""
    names = _placeholders(count)
    mine = "".join(f"self.{f}, " for f in names)
    theirs = "".join(f"other.{f}, " for f in names)
    lines = [f"def __init__(self, {', '.join(names)}):"]
    lines += [f"    _set(self, {f!r}, {f})" for f in names]
    if post_init:
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
    module = compile("\n".join(lines), "<record>", "exec")
    return tuple(c for c in module.co_consts if isinstance(c, CodeType))


def record(cls):
    """Make `cls` a frozen record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name in cls.__dict__ for name in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    field = dict(zip(_placeholders(len(names)), names)).get
    methods = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}
    for code in _template(len(names), hasattr(cls, "__post_init__")):
        code = code.replace(
            co_filename=f"<record {cls.__qualname__}>",
            co_varnames=tuple(field(n, n) for n in code.co_varnames),
            co_names=tuple(field(n, n) for n in code.co_names),
            co_consts=tuple(field(c, c) if type(c) is str else c for c in code.co_consts),
        )
        methods[code.co_name] = FunctionType(code, globals())
    methods["__init__"].__defaults__ = defaults or None
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        if name not in cls.__dict__:
            setattr(cls, name, methods[name])
    cls.__match_args__, cls._hash = names, None
    return cls
