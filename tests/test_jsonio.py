"""Serialization round trips and canonical forms."""

import enum
import json
import random
import warnings
from collections import Counter, defaultdict
from fractions import Fraction as Q

import pytest

import geodesic_oracle
from mptypes import jsonio
from mptypes.apartment import ApartmentPoint, GroupConfig, breakpoints
from mptypes.errors import ValidationError
from mptypes.graded import GradedElement
from mptypes.refine import DMPPair
from mptypes.solver import MultiplicityVector
from record_oracle import replace


def make_cfg():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=2, q=5, m=16)


CFG = make_cfg()


def test_frac_forms():
    assert jsonio.frac_str(Q(1, 2)) == "1/2"
    assert jsonio.frac_str(3) == "3/1"
    assert jsonio.parse_frac("-5/8") == Q(-5, 8)
    with pytest.raises(ValidationError):
        jsonio.parse_frac("1/0")


@pytest.mark.parametrize("value", [0.1, 1.0, True, False])
def test_parse_frac_refuses_floats_and_bools(value):
    with pytest.raises(ValidationError, match="not an a/b string") as err:
        jsonio.parse_frac(value)
    assert err.value.where == "jsonio.parse_frac"
    assert jsonio.parse_frac(-3) == Q(-3)


def test_parse_frac_equals_the_fraction_constructor():
    # parse_frac reads "-?digits/digits" as two ints; Fraction(str) decides
    # every string, and its value or its error must come out either way
    rng = random.Random("parse-frac")
    alphabet = "0123456789" * 3 + "-+/ _.e٣²１"
    texts = [" 1/2", "+1/2", "01/2", "1/02", "1/0", "-1/0", "1_0/3", "/2", "1/", "-/2",
             "--1/2", "1//2", "1/2/3", "-0/5", "7", "-7", "", "/", "٣/4", "1/٣",
             "1/²", "１/2", "1 / 2", "1/2 ", "9" * 5000 + "/1", "1/" + "9" * 5000]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 8))) for _ in range(3000)]
    texts += [f"{rng.choice(['', '-'])}{rng.randrange(10**rng.randrange(1, 30))}/{rng.randrange(10**rng.randrange(1, 30))}"
              for _ in range(1000)]
    fast = 0
    for text in texts:
        try:
            want = Q(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(ValidationError) as err:
                jsonio.parse_frac(text)
            assert str(err.value) == f"bad rational {text!r}: {exc}", text
            assert err.value.where == "jsonio.parse_frac"
        else:
            got = jsonio.parse_frac(text)
            assert type(got) is Q and got == want, text
        fast += text.isascii() and "/" in text
    assert fast > 1000


def test_pair_round_trip():
    x = ApartmentPoint.of([Q(1, 2), 0])
    phi = GradedElement.make(CFG, x, Q(-1, 2), {(0, 1): 2})
    pair = DMPPair.make(CFG, Q(1, 2), x, phi)
    data = jsonio.pair_to_json(pair)
    assert data["phi"] == [[1, 2, 2]]  # 1-based externally
    back = jsonio.pair_from_json(CFG, data)
    assert back == pair
    data_bad = dict(data)
    data_bad["lift"] = [1, 1]
    with pytest.raises(ValidationError):
        jsonio.pair_from_json(CFG, data_bad)


def test_pair_from_json_reuses_a_pair_with_the_same_text():
    x = ApartmentPoint.of([Q(1, 2), 0])
    pair = DMPPair.make(CFG, Q(1, 2), x, GradedElement.make(CFG, x, Q(-1, 2), {(0, 1): 2}))
    data = jsonio.pair_to_json(pair)
    seen = {}
    first = jsonio.pair_from_json(CFG, data, seen)
    # the same text up to key order is the same pair object
    assert jsonio.pair_from_json(CFG, dict(reversed(list(data.items()))), seen) is first
    # an equal pair spelled differently is read and checked on its own
    no_lift = {k: v for k, v in data.items() if k != "lift"}
    other = jsonio.pair_from_json(CFG, no_lift, seen)
    assert other == first and other is not first
    # a refused pair is not kept: it is refused again
    for _ in range(2):
        with pytest.raises(ValidationError, match="stored lift"):
            jsonio.pair_from_json(CFG, {**data, "lift": [1, 1]}, seen)
    assert len(seen) == 2


def test_pair_from_json_refuses_a_position_given_twice():
    # the parent kept the last coefficient: this read as the pair with phi = e12
    data = {"s": "1/2", "x": ["1/2", "0/1"], "phi": [[1, 2, 3], [1, 2, 1]]}
    seen = {}
    for _ in range(2):
        with pytest.raises(ValidationError, match=r"position \(1,2\) given twice") as err:
            jsonio.pair_from_json(CFG, data, seen)
        assert err.value.where == "jsonio.pair_from_json"
    assert seen == {}


def test_mult_vector_refuses_a_negative_depth_bound():
    with pytest.raises(ValidationError, match="depth bound must be >= 0") as err:
        jsonio.mult_vector_from_json(CFG, {"r": "-3/1", "entries": []})
    assert err.value.where == "solver.MultiplicityVector"


def test_mult_vector_round_trip():
    x = ApartmentPoint.of([0, 0])
    pair = DMPPair.make(CFG, 1, x, GradedElement.zero(x, -1))
    v = MultiplicityVector.make(0, {pair: 7}, source="by-hand")
    back = jsonio.mult_vector_from_json(CFG, jsonio.mult_vector_to_json(v))
    assert back == v


def test_dump_is_stable():
    payload = {"b": [1, 2], "a": "x"}
    assert jsonio.dump(payload) == jsonio.dump({"a": "x", "b": [1, 2]})


def test_frac_str_of_fractions_and_ints():
    assert jsonio.frac_str(Q(6, 8)) == "3/4"
    assert jsonio.frac_str(Q(-3, 4)) == "-3/4"
    assert jsonio.frac_str(Q(-7)) == "-7/1"
    assert jsonio.frac_str(Q(0)) == "0/1"
    assert jsonio.frac_str(-2) == "-2/1"
    assert jsonio.frac_str(0) == "0/1"
    assert jsonio.frac_str(2**70) == f"{2**70}/1"


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII in and beyond the
# BMP (escaped as surrogate pairs) and the JSON-legal line separator
CHARS = 'ab Z09"\\/\n\r\t\b\f\x00\x01\x1f\x7f\xe9\u00ff\u2028\u20ac\U0001f600'


def random_str(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_value(rng, depth=0, pool=()):
    """A random payload; with a `pool` of lists, about one value in five
    is one of those list objects, so the payload holds it several times."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.randrange(-1000, 1000)
    if kind == 1:
        return rng.choice((-1, 1)) * (2**64 + rng.getrandbits(80))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return random_str(rng)
    if kind == 4:  # an int row with bools among the ints
        return [rng.choice((rng.randrange(-9, 9), True, False)) for _ in range(rng.randrange(5))]
    if kind in (5, 6):
        return [random_value(rng, depth + 1, pool) for _ in range(rng.randrange(5))]
    if kind == 7:
        return {
            random_str(rng): random_value(rng, depth + 1, pool) for _ in range(rng.randrange(5))
        }
    return rng.choice(([], {}, [[]], [{}], {"": []}, {"a": {}}, [[], [{}]]))


def test_dump_matches_the_stdlib_on_random_payloads():
    rng = random.Random(11)
    for _ in range(400):
        obj = random_value(rng)
        assert jsonio.dump(obj) == oracle(obj)


def shared_pool(rng):
    """Lists for one payload to hold several times: an empty list, a row of
    ints with bools among them, and a list holding that row at two depths."""
    row = [rng.choice((rng.randrange(-9, 9), True, False)) for _ in range(1 + rng.randrange(4))]
    return [[], row, [row, random_str(rng), [row, None]]]


def list_places(obj, depth=0, out=None):
    """(id, depth) of every list in `obj`, once per place it is held."""
    out = [] if out is None else out
    if type(obj) is list:
        out.append((id(obj), depth))
    if type(obj) in (list, dict):
        for item in obj.values() if type(obj) is dict else obj:
            list_places(item, depth + 1, out)
    return out


def test_dump_matches_the_stdlib_on_payloads_that_share_lists():
    rng = random.Random(13)
    same_depth, other_depth, empty, bools = 0, 0, 0, 0
    for _ in range(400):
        pool = shared_pool(rng)
        obj = [random_value(rng, 1, pool), rng.choice(pool), {"k": random_value(rng, 2, pool)}]
        assert jsonio.dump(obj) == oracle(obj)
        places = list_places(obj)
        held = Counter(places)
        depths = defaultdict(set)
        for i, d in places:
            depths[i].add(d)
        same_depth += any(held[(id(p), d)] > 1 for p in pool for d in depths[id(p)])
        other_depth += any(len(depths[id(p)]) > 1 for p in pool)
        empty += sum(i == id(pool[0]) for i, _ in places) > 1
        bools += sum(i == id(pool[1]) for i, _ in places) > 1 and any(
            type(v) is bool for v in pool[1]
        )
    assert min(same_depth, other_depth, empty, bools) > 20, (same_depth, other_depth, empty, bools)


def test_dump_keeps_no_text_between_calls():
    row = [1, 2]
    obj = {"a": row, "b": [row], "c": row}
    assert jsonio.dump(obj) == oracle(obj)
    row.append(True)
    assert jsonio.dump(obj) == oracle(obj)
    assert jsonio.dump(row) == oracle(row)


@pytest.mark.parametrize("bad", [[1, (2,)], [0.5], [[], [1, 2.0]]])
def test_dump_refuses_a_shared_list_holding_another_type(bad):
    for obj in ([bad, bad], {"a": bad, "b": [bad]}, [[bad], bad]):
        with pytest.raises(TypeError):
            jsonio.dump(obj)


def test_dump_of_cyclic_input_raises_recursion_error():
    loop = [1]
    loop.append(loop)
    ring = {"a": []}
    ring["a"].append(ring)
    for obj in (loop, ring, [loop, loop]):
        with pytest.raises(RecursionError):
            jsonio.dump(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, [[]], {"a": {}}, [[], {}, [[{}]]], "", 0, -1, 2**64, -(2**64) - 1,
        True, False, None, [1, True, 0, False, None],
        'a"b\\c/d\ne\x00\x1f\x7f\xe9\u2028\U0001f600',
        {'"': 1, "\\": 2, "\n": 3, "\xe9": 4, "\U0001f600": 5, "": 6, "B": 7, "a": 8},
    ],
)
def test_dump_matches_the_stdlib_on_edge_cases(obj):
    assert jsonio.dump(obj) == oracle(obj)


class Small(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "obj",
    [1.5, (1, 2), Q(1, 2), Small.ONE, [1, [2, (3,)]], {"a": 0.0}, {1: "a"}, {"a": Small.ONE}],
)
def test_dump_refuses_other_types(obj):
    with pytest.raises(TypeError):
        jsonio.dump(obj)


def test_dump_does_not_call_the_stdlib_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.encoder.JSONEncoder, "encode", refuse)
    assert jsonio.dump({"b": [1, "x"], "a": None}) == (
        '{\n  "a": null,\n  "b": [\n    1,\n    "x"\n  ]\n}\n'
    )


def seeded_plans():
    """For each n = 2..5, seeded GL_n geodesic plans (210 in all), then one
    at level 0 throughout and one from level -1/2 to 1/2."""
    rng = random.Random(23)
    denoms = [1, 2, 3, 4, 6, 8, 12, 16, 48]
    for n in (2, 3, 4, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = GroupConfig(n=n, q=5, m=48)
        for _ in range(60 if n < 5 else 30):
            d0, d1 = rng.choice(denoms), rng.choice(denoms)
            x0, x1 = (
                ApartmentPoint.of([Q(rng.randrange(-2 * d, 2 * d + 1), d) for _ in range(n)])
                for d in (d0, d1)
            )
            s0, s1 = (Q(rng.randrange(-2 * d, 2 * d + 1), d) for d in (d0, d1))
            yield breakpoints(cfg, x0, s0, x1, s1)
        x = ApartmentPoint.of([Q(k, 4) for k in range(n)])
        yield breakpoints(cfg, x, 0, x, 0)
        yield breakpoints(cfg, x, Q(-1, 2), ApartmentPoint.of([0] * n), Q(1, 2))


def test_dump_writes_a_plan_as_the_stdlib_writes_its_oracle_value():
    # the plan's text straight from its flat certificates, at three
    # indents, against json.dumps of the one-list-per-row oracle value
    plans = one_interval = level_zero = 0
    for plan in seeded_plans():
        value = geodesic_oracle.plan_to_json(plan)
        text = jsonio.dump(plan)
        assert text == oracle(value)
        assert jsonio.dump({"plan": plan}) == oracle({"plan": value})
        assert jsonio.dump([1, {"a": plan}]) == oracle([1, {"a": value}])
        plans += 1
        one_interval += len(plan.intervals) == 1
        if any(cert.s == 0 for cert in plan.intervals):
            level_zero += 1
            assert "-0/1" not in text
    assert plans == 218 and one_interval >= 8 and level_zero >= 4


@pytest.mark.parametrize("bad", [True, False, Q(1), Q(1, 2)])
@pytest.mark.parametrize("where", [0, -1])
def test_dump_refuses_a_certificate_bound_that_is_not_an_int(bad, where):
    # in the first and the last certificate: True, False and Fraction(1)
    # equal an int, so a block holding one equals a block written before
    plan = next(p for p in seeded_plans() if len(p.intervals) > 2)
    intervals = list(plan.intervals)
    cert = intervals[where]
    intervals[where] = replace(cert, six=(bad,) + cert.six[1:])
    forged = replace(plan, intervals=tuple(intervals))
    for payload in (forged, {"plan": forged}):
        with pytest.raises(TypeError, match="not an int"):
            jsonio.dump(payload)
