"""The record classes against frozen dataclass twins built by `dataclasses`.

Every class `mptypes.record.record` builds is collected from the
package; each gets samples from real library objects and a twin from
`record_oracle.dataclass_twin`.  Both must agree on `==`, `hash`,
`repr`, `__match_args__` and argument binding, and both refuse
assignment and deletion.
"""

import importlib
import itertools
import pkgutil
import random
import sys
import warnings
from fractions import Fraction as Q

import pytest

import mptypes
from mptypes.apartment import ApartmentPoint, GroupConfig, breakpoints, graded_support, mp_lattice
from mptypes.errors import ValidationError
from mptypes.finite_types import FiniteModule, fork_field
from mptypes.graded import GradedElement
from mptypes.laurent import LMatrix
from mptypes.measures import build_measure_table
from mptypes.orbits import sl2_complete
from mptypes.record import FrozenInstanceError, record
from mptypes.refine import DMPPair
from mptypes.selftest import CriterionResult, relation_instances, worked_decompositions
from mptypes.solver import MultiplicityVector, assemble_and_invert, choose_probes, solve_expansion

from record_oracle import compiled_per_class, dataclass_twin, replace


def record_classes() -> set:
    """Every class of the package that `record` built."""
    found = set()
    for info in pkgutil.iter_modules(mptypes.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"mptypes.{info.name}")
        found |= {
            value for value in vars(mod).values()
            if isinstance(value, type) and value.__module__ == mod.__name__
            and "__match_args__" in vars(value)
        }
    return found


def _walk(obj, out: dict) -> None:
    """Collect the records reachable from obj through fields and sequences."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            _walk(item, out)
    elif "__match_args__" in vars(type(obj)):
        same = out.setdefault(type(obj), [])
        if len(same) < 6 and obj not in same:
            same.append(obj)
        for name in type(obj).__match_args__:
            _walk(getattr(obj, name), out)


def pt(*coords) -> ApartmentPoint:
    return ApartmentPoint.of([Q(c) for c in coords])


@pytest.fixture(scope="module")
def samples() -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = GroupConfig(n=2, q=5, m=16)
        roots = [cfg, GroupConfig(n=3, q=7), CriterionResult("criterion", True, "detail", 0.5)]
    worked = worked_decompositions(cfg)
    roots += worked
    # the worked relations, then seeded ones from `refine_relation`
    roots += relation_instances(cfg, worked=worked)
    phi = GradedElement.make(cfg, pt(Q(1, 2), 0), Q(-1, 2), {(0, 1): 1})
    roots += [sl2_complete(cfg, phi), breakpoints(cfg, pt(0, 0), 1, pt(Q(1, 2), 0), Q(1, 2))]
    roots += [mp_lattice(cfg, pt(Q(1, 4), 0), Q(1, 2), strict) for strict in (False, True)]
    roots += [graded_support(cfg, pt(Q(1, 2), 0), degree) for degree in (Q(-1, 2), 0)]
    roots += [FiniteModule.random(cfg, fork_field(cfg), pt(0, 0), 1, 2, random.Random(0))]
    roots += [LMatrix.from_rows(5, [[((0, 1),), ()], [((-1, 2), (3, 4)), ((0, 1),)]])]
    probes = choose_probes(cfg, 0)
    table = build_measure_table(cfg, probes, 1)
    cm = assemble_and_invert(cfg, table)
    vector = MultiplicityVector.make(0, {p: k for k, p in enumerate(probes)})
    roots += [table, cm, vector, solve_expansion(cfg, vector, cm)]
    out: dict = {}
    _walk(roots, out)
    return out


def attempt(fn):
    """What fn() returns, or the type of what it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc)


def outcome(build):
    """The fields of what build() returns, or the type of what it raises."""
    obj = attempt(build)
    return obj if isinstance(obj, type) else tuple(getattr(obj, f) for f in obj.__match_args__)


def with_field(obj, name, value):
    """A copy of obj with one field set, past `__init__` and its checks."""
    copy = object.__new__(type(obj))
    vars(copy).update(vars(obj), **{name: value})
    return copy


def test_every_record_class_has_samples(samples):
    assert set(samples) == record_classes()


def test_equality_hash_and_repr_match_the_dataclass_twin(samples):
    for cls, objs in samples.items():
        twin = dataclass_twin(cls)
        assert cls.__match_args__ == twin.__match_args__, cls
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            twins = [twin(**{f: getattr(o, f) for f in cls.__match_args__}) for o in objs]
        for obj, tw in zip(objs, twins):
            assert repr(obj) == repr(tw), cls
            assert attempt(lambda: hash(obj)) == attempt(lambda: hash(tw)), cls
            assert (obj == tw) is False and (obj != tw) is True, cls
        for (a, ta), (b, tb) in itertools.product(zip(objs, twins), repeat=2):
            assert (a == b) is (ta == tb) and (a != b) is (ta != tb), cls
        # every field takes part in equality
        sentinel = object()
        for obj, tw in zip(objs, twins):
            for name in cls.__match_args__:
                a, ta = with_field(obj, name, sentinel), with_field(tw, name, sentinel)
                assert (a == obj) is (ta == tw) is False, (cls, name)
                same, twin_same = with_field(obj, name, sentinel), with_field(tw, name, sentinel)
                assert (a == same) is (ta == twin_same) is True, (cls, name)


def test_repr_has_the_dataclass_format():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert repr(GroupConfig(2, 5)) == "GroupConfig(n=2, q=5, m=1)"


def test_binding_matches_the_dataclass_twin(samples):
    for cls, objs in samples.items():
        twin = dataclass_twin(cls)
        obj = objs[0]
        names = cls.__match_args__
        values = [getattr(obj, f) for f in names]
        fields = dict(zip(names, values))
        defaulted = [f for f in names if f in vars(cls)]
        calls = {
            "positional": (values, {}),
            "keyword": ([], fields),
            "mixed": (values[:1], dict(list(fields.items())[1:])),
            "defaults": ([], {f: v for f, v in fields.items() if f not in defaulted}),
            "missing": ([], dict(list(fields.items())[1:])),
            "extra": ([], {**fields, "unknown": 1}),
            "duplicate": (values[:1], fields),
            "too many": (values + [None], {}),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for what, (args, kwargs) in calls.items():
                mine = outcome(lambda: cls(*args, **kwargs))
                assert mine == outcome(lambda: twin(*args, **kwargs)), (cls, what)
                if what in ("missing", "extra", "duplicate", "too many"):
                    assert mine is TypeError, (cls, what)
                elif what != "defaults" or not defaulted:
                    assert mine == tuple(values), (cls, what)


def test_omitted_fields_take_the_class_defaults():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert GroupConfig(2, 5) == GroupConfig(n=2, q=5, m=1) != GroupConfig(2, 5, 3)
    vector = MultiplicityVector(r=Q(0), entries=())
    assert vector.source == "" and vector == MultiplicityVector(Q(0), (), "")


def test_assignment_and_deletion_are_refused(samples):
    assert issubclass(FrozenInstanceError, AttributeError)
    for cls, objs in samples.items():
        obj = objs[0]
        first = cls.__match_args__[0]
        before = outcome(lambda: obj)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{first}'"):
            setattr(obj, first, getattr(obj, first))
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{first}'"):
            delattr(obj, first)
        with pytest.raises(FrozenInstanceError):
            obj.unknown = 1
        assert outcome(lambda: obj) == before, cls


def test_post_init_still_refuses_bad_fields():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = GroupConfig(n=2, q=5)
        for build in (GroupConfig, dataclass_twin(GroupConfig), lambda n, q: replace(cfg, q=q)):
            with pytest.raises(ValidationError, match="is not prime"):
                build(2, 4)
    point = pt(Q(1, 2), 0)
    for build in (ApartmentPoint, dataclass_twin(ApartmentPoint), lambda c: replace(point, coords=c)):
        with pytest.raises(ValidationError, match="normalized"):
            build((Q(1), Q(1)))


def test_cached_hash_is_kept_and_recomputed_on_replace(samples):
    pair = samples[DMPPair][0]
    assert DMPPair.__hash__.__qualname__ == "DMPPair.__hash__"  # the class body's own
    other = replace(pair, s=pair.s + 1)
    assert hash(other) == hash((other.s, other.x, other.phi, other.lift)) != hash(pair)
    with pytest.raises(TypeError):
        replace(pair, unknown=1)


CODE_FIELDS = ("co_code", "co_varnames", "co_names", "co_consts", "co_filename", "co_name",
               "co_argcount", "co_flags", "co_stacksize", "co_firstlineno")


def generated(cls) -> dict:
    """The methods `record` built for cls, not those its body defines."""
    return {name: fn for name, fn in compiled_per_class(cls).items()
            if vars(cls)[name].__code__.co_filename == f"<record {cls.__qualname__}>"}


def test_methods_run_the_bytecode_of_a_per_class_compile():
    classes = record_classes()
    assert len(classes) == 21
    for cls in classes:
        want = generated(cls)
        assert {"__init__", "__eq__"} <= set(want), cls
        for name, oracle in want.items():
            mine = vars(cls)[name]
            assert (mine.__qualname__, mine.__defaults__) == (oracle.__qualname__, oracle.__defaults__)
            for attr in CODE_FIELDS:
                assert getattr(mine.__code__, attr) == getattr(oracle.__code__, attr), (cls, name, attr)
            assert list(mine.__code__.co_lines()) == list(oracle.__code__.co_lines()), (cls, name)


def type_error(init, *args, **kwargs) -> str:
    with pytest.raises(TypeError) as exc:
        init(*args, **kwargs)
    return str(exc.value)


def test_binding_errors_equal_a_per_class_compile():
    for cls in record_classes():
        oracle = compiled_per_class(cls)["__init__"]
        first, count = cls.__match_args__[0], len(cls.__match_args__)
        for args, kwargs in [((), {}), ((None,) * count, {"unknown": 1}), ((None,), {first: None}),
                             ((None,) * (count + 1), {})]:
            mine = type_error(cls, *args, **kwargs)
            assert mine == type_error(oracle, object.__new__(cls), *args, **kwargs), (cls, mine)


def test_small_q_warning_points_at_the_line_that_built_the_config():
    # GroupConfig warns with stacklevel=3: past __post_init__ and __init__
    oracle = compiled_per_class(GroupConfig)["__init__"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        GroupConfig(2, 3); line = sys._getframe().f_lineno  # noqa: E702 - one line
        oracle(object.__new__(GroupConfig), 2, 3); below = sys._getframe().f_lineno  # noqa: E702
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line), (__file__, below)]


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    # a per-class compile refused it as a signature would; defaults given as
    # a tuple would otherwise shift onto the last fields
    class Bad:
        a: int = 1
        b: int

    with pytest.raises(SyntaxError):
        compiled_per_class(Bad)
    with pytest.raises(TypeError, match="without a default follows"):
        record(Bad)
