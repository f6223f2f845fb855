"""Span tracing for the traced benchmark run.

The library is left untouched: every named public function is replaced,
at every module binding it was imported into, by a wrapper that records
one span (name, parent span, start, end) per call.  Spans stay in memory
and are summarised once, after the traced pass:

    self time of a span = its duration - the durations of its child spans

which is exact because the run is single-threaded, so child spans nest
inside their parent and never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path) of every traced layer; a dotted path names a method
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("apartment", "mp_lattice"),
    ("apartment", "breakpoints"),
    ("apartment", "convexity_check"),
    ("apartment", "graded_support"),
    ("laurent", "LMatrix.charpoly"),
    ("laurent", "LMatrix.rank"),
    ("gf", "ExtField.mul"),
    ("gf", "rref"),
    ("gf", "rank"),
    ("graded", "is_degenerate"),
    ("graded", "unipotent_orbit_count"),
    ("orbits", "jordan_type"),
    ("orbits", "minimality_probe"),
    ("orbits", "sl2_complete"),
    ("refine", "enumerate_and_classify"),
    ("measures", "count_measure"),
    ("measures", "build_measure_table"),
    ("finite_types", "verify_fork_identity"),
    ("finite_types", "hom_dim"),
    ("solver", "assemble_and_invert"),
    ("solver", "solve_expansion"),
    ("jsonio", "dump"),
    ("jsonio", "matrix_from_json"),
    ("cli", "main"),
)

LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)
CHARPOLY_SIZES = (2, 3, 4)


def source_modules() -> List[str]:
    """The stem of every source file of the mptypes package, sorted."""
    import mptypes

    return sorted(p.stem for p in Path(mptypes.__file__).parent.glob("*.py"))


def _bindable_modules() -> list:
    """Every mptypes module that can hold a binding: the package and each
    submodule but ``__main__``, which exits on import."""
    return [
        importlib.import_module("mptypes" if m == "__init__" else f"mptypes.{m}")
        for m in source_modules()
        if m != "__main__"
    ]


def _count_key(fn: Callable) -> Callable:
    sig = inspect.signature(fn)

    def key(args, kwargs, result):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        # lam=None means "the pair's strict lattice": a key of its own
        return (a["cfg"].n, a["cfg"].q, a["orbit"].parts, a["pair"], a["K"], a["lam"])

    return key


def _notes() -> Dict[str, Callable]:
    """Per-layer extra data taken from a call's arguments or result."""
    from mptypes import measures

    return {
        "laurent.LMatrix.charpoly": lambda args, kwargs, result: args[0].nrows,
        "apartment.breakpoints": lambda args, kwargs, result: len(result.intervals),
        "refine.enumerate_and_classify": lambda args, kwargs, result: (
            len(result),
            sum(1 for c in result if c.tag == "B"),
        ),
        "measures.count_measure": _count_key(measures.count_measure),
        "jsonio.dump": lambda args, kwargs, result: len(result.encode("utf-8")),
    }


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        # one span: [name, parent index (-1 at top level), start, end, note]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._originals: Dict[str, object] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self._modules: list = []
        self.bindings: List[Tuple[str, str]] = []

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self._modules = _bindable_modules()
        notes = _notes()
        for mod_name, path in LAYERS:
            name = f"{mod_name}.{path}"
            owner = importlib.import_module(f"mptypes.{mod_name}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._originals[name] = original
                self._patch(cls, meth, self._wrap(name, original, notes.get(name)))
                self.bindings.append((f"mptypes.{mod_name}", path))
                continue
            original = getattr(owner, path)
            self._originals[name] = original
            wrapper = self._wrap(name, original, notes.get(name))
            for mod in self._modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
                        self.bindings.append((mod.__name__, attr))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def unwrapped_bindings(self) -> List[Tuple[str, str]]:
        """Bindings that still reach an original function; empty when complete."""
        originals = {id(v): k for k, v in self._originals.items()}
        left = []
        for mod in self._modules:
            name = mod.__name__
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    left.append((name, attr))
                elif inspect.isclass(value) and value.__module__ == name:
                    for meth, fn in vars(value).items():
                        if id(fn) in originals:
                            left.append((name, f"{attr}.{meth}"))
        return left

    def summary(self) -> Dict[str, float]:
        """Per-layer calls, self time and the extra counters, by metric name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {n: 0 for n in LAYER_NAMES}
        self_s = {n: 0.0 for n in LAYER_NAMES}
        notes: Dict[str, list] = {n: [] for n in LAYER_NAMES}
        for k, (name, parent, start, end, note) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
            if note is not None:
                notes[name].append(note)
        out: Dict[str, float] = {}
        for n in LAYER_NAMES:
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.self_s"] = self_s[n]
        sizes = notes["laurent.LMatrix.charpoly"]
        for k in CHARPOLY_SIZES:
            out[f"laurent.LMatrix.charpoly.n{k}"] = sum(1 for s in sizes if s == k)
        out["apartment.breakpoints.intervals"] = sum(notes["apartment.breakpoints"])
        members = notes["refine.enumerate_and_classify"]
        total = sum(m for m, _ in members)
        out["refine.enumerate_and_classify.subcosets"] = total
        out["refine.enumerate_and_classify.b_share"] = (
            sum(b for _, b in members) / total if total else 0.0
        )
        keys = notes["measures.count_measure"]
        out["measures.count_measure.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        out["jsonio.dump.bytes"] = sum(notes["jsonio.dump"])
        return out
