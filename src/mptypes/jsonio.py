"""Canonical JSON forms for every exchanged object.

Textual formats only: rationals are strings "a/b", apartment points are
arrays of rationals, partitions are descending integer arrays, matrix
positions are 1-based in external data.  Serialization is stable
(sorted keys, fixed separators) so equal inputs give identical bytes.

`dump` writes the canonical form, the bytes of
`json.dumps(obj, sort_keys=True, indent=2)` plus a newline, for str,
int, bool, None, list, dict with str keys and `apartment.GeodesicPlan`.
Any other type, a float, tuple, Fraction or int subclass among them,
raises TypeError.  It builds each container's text once and joins it
into its parent's.  A plan is written straight from its certificates'
flat `six` tuples, the one reader of that layout, as its value would be:
the endpoints, the breakpoints, and per interval the sample and six
`shape_to_json` shapes in `_WITNESSES` order, block k of n^2 entries of
`six` being witness k's bound matrix, row-major.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from .apartment import ApartmentPoint, GeodesicPlan, GroupConfig, _WITNESSES
from .apartment import LatticeShape, check_level, check_point
from .errors import ValidationError
from .graded import GradedElement
from .measures import MeasureTable
from .orbits import OrbitLabel
from .refine import DMPPair, RelationRecord
from .solver import CoefficientMatrix, ExpansionResult, MultiplicityVector, matrix_problem

Q = Fraction

__all__ = [
    "frac_str",
    "parse_frac",
    "dump",
    "point_to_json",
    "point_from_json",
    "orbit_to_json",
    "orbit_from_json",
    "pair_to_json",
    "pair_from_json",
    "shape_to_json",
    "record_to_json",
    "table_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "mult_vector_to_json",
    "mult_vector_from_json",
    "expansion_to_json",
]


def frac_str(x: Q | int) -> str:
    f = x if type(x) is Q else Q(x)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str | int) -> Q:
    """A rational from its "a/b" string or an int; a float or bool is refused.
    An ASCII "-?digits/digits" string is read as Fraction(int, int): the same value."""
    if isinstance(s, (float, bool)):
        raise ValidationError(
            f"bad rational {s!r}: not an a/b string or an integer", where="jsonio.parse_frac"
        )
    try:
        if type(s) is str and s.isascii():
            num, _, den = s.partition("/")
            if den.isdigit() and num.removeprefix("-").isdigit():
                return Q(int(num), int(den))
        return Q(s)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {s!r}: {exc}", where="jsonio.parse_frac")


def dump(obj: Any) -> str:
    """The canonical JSON text of `obj`, newline-terminated.

    Each container's text is built once and joined into its parent's, and
    the int and str items of a list are written inline.  Nothing is kept
    between calls, and within a call only a plan's rendered bound
    matrices are (`_plan_text`).
    """
    return _text(obj, "\n") + "\n"


def _text(o: Any, nl: str) -> str:
    """The text of `o`; `nl` is a newline and o's indent."""
    t = type(o)  # exact types: bool and IntEnum are not int here
    if t is str:
        return _quote(o)
    if t is int:
        return repr(o)
    if t is list:
        if not o:
            return "[]"
        inner = nl + "  "
        parts = []
        for item in o:
            ti = type(item)
            if ti is int:
                parts.append(repr(item))
            elif ti is str:
                parts.append(_quote(item))
            else:
                parts.append(_text(item, inner))
        return f"[{inner}{(',' + inner).join(parts)}{nl}]"
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        parts = []
        for name in sorted(o):
            if type(name) is not str:
                raise TypeError(f"dict key {name!r} is not a str")
            parts.append(f"{_quote(name)}: {_text(o[name], inner)}")
        return f"{{{inner}{(',' + inner).join(parts)}{nl}}}"
    if t is GeodesicPlan:
        return _plan_text(o, nl)
    if o is True:
        return "true"
    if o is False:
        return "false"
    if o is None:
        return "null"
    raise TypeError(f"cannot write {t.__name__} as canonical JSON")


def _plan_text(plan: GeodesicPlan, nl: str) -> str:
    """The text of the plan's value (module docstring) at indent `nl`.

    Each certificate's point and three levels are formatted once, and a
    `six` holding anything but exact ints raises TypeError; each distinct
    n^2-int block is rendered once per call.  Each shape is one f-string
    of these pieces, and the text is joined once.
    """
    i1, i2, i3, i4, i5, i6, i7 = (nl + "  " * k for k in range(1, 8))
    n = len(plan.x0.coords)
    N = n * n
    endpoints = {"x0": point_to_json(plan.x0), "s0": frac_str(plan.s0),
                 "x1": point_to_json(plan.x1), "s1": frac_str(plan.s1)}
    out = [
        f'{{{i1}"breakpoints": {_text([frac_str(t) for t in plan.ts], i1)},'
        f'{i1}"endpoints": {_text(endpoints, i1)},{i1}"intervals": ['
    ]
    # (start of block k, level sign, strict flag, text before the shape)
    witnesses = [
        (k * N, sign, "true" if strict else "false", "," + i4 if k else i4)
        for k, (sign, strict) in enumerate(_WITNESSES)
    ]
    row_sep, entry_sep = "," + i6, "," + i7
    blocks: Dict[Tuple[int, ...], str] = {}
    lead = i2
    for cert in plan.intervals:
        six = cert.six
        # per certificate, not per rendered block: True and Fraction(1)
        # equal 1, so a block holding one would find the int block's text
        if {*map(type, six)} != {int}:
            raise TypeError("a certificate's bound is not an int")
        x = _text(point_to_json(cert.x), i6)
        levels = ('"0/1"', f'"{frac_str(cert.s)}"', f'"{frac_str(-cert.s)}"')
        out.append(f'{lead}{{{i3}"sample": "{frac_str(cert.sample)}",{i3}"shapes": [')
        for start, sign, strict, before in witnesses:
            block = six[start:start + N]
            bounds = blocks.get(block)
            if bounds is None:
                rows = (entry_sep.join(map(repr, block[r:r + n])) for r in range(0, N, n))
                bounds = blocks[block] = f"[{i6}{row_sep.join(f'[{i7}{r}{i6}]' for r in rows)}{i5}]"
            out.append(
                f'{before}{{{i5}"bounds": {bounds},{i5}"provenance": {{{i6}"s": {levels[sign]},'
                f'{i6}"strict": {strict},{i6}"x": {x}{i5}}}{i4}}}'
            )
        out.append(f"{i3}]{i2}}}")
        lead = "," + i2
    out.append(f"{i1}]{nl}}}")
    return "".join(out)


def _fields(data: Any, what: str, where: str, *keys: str) -> None:
    """Refuse `data` unless it is a JSON object holding every key in `keys`."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} is not a JSON object", where=where)
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValidationError(f"{what} lacks the key(s) {', '.join(missing)}", where=where)


def _items(data: Any, what: str, where: str, kind: type = object, width: int = -1) -> list:
    """`data` if it is a JSON array of `kind` items, each of `width` items if
    given; a bool is never an item (JSON `true` is not the integer 1)."""
    if not isinstance(data, list) or not all(
        isinstance(item, kind) and not isinstance(item, bool)
        and (width < 0 or len(item) == width)
        for item in data
    ):
        raise ValidationError(f"{what} is not an array of the expected items", where=where)
    return data


def point_to_json(x: ApartmentPoint) -> List[str]:
    return [frac_str(c) for c in x.coords]


def point_from_json(data: Sequence[str]) -> ApartmentPoint:
    _items(data, "a point", "jsonio.point_from_json")
    return ApartmentPoint.of([parse_frac(c) for c in data])


def orbit_to_json(o: OrbitLabel) -> List[int]:
    return list(o.parts)


def orbit_from_json(data: Sequence[int]) -> OrbitLabel:
    _items(data, "an orbit", "jsonio.orbit_from_json", int)
    return OrbitLabel.of(data)


def pair_to_json(p: DMPPair) -> Dict[str, Any]:
    return {
        "s": frac_str(p.s),
        "x": point_to_json(p.x),
        "phi": [[i + 1, j + 1, c] for (i, j), c in p.phi.coeffs],
        "lift": orbit_to_json(p.lift),
    }


def pair_from_json(
    cfg: GroupConfig, data: Mapping[str, Any], seen: Dict[str, DMPPair] | None = None
) -> DMPPair:
    """The pair `data` names, with its point and level checked against
    cfg, its element checked by DMPPair.make, and its stored lift, if
    any, checked against the computed one.

    `seen`, when given, maps the canonical text (`json.dumps` with sorted
    keys) of each JSON pair already read to its pair: data with the same
    text is that pair and is not checked again, and a new pair is added.
    The text, not Python equality, keys it, so `true` is not 1, 1.0 is
    not 1, and the stored lift counts.
    """
    if seen is None:
        return _pair_from_json(cfg, data)
    text = json.dumps(data, sort_keys=True)
    pair = seen.get(text)
    if pair is None:
        pair = seen[text] = _pair_from_json(cfg, data)
    return pair


def _pair_from_json(cfg: GroupConfig, data: Mapping[str, Any]) -> DMPPair:
    where = "jsonio.pair_from_json"
    _fields(data, "a pair", where, "s", "x", "phi")
    s = parse_frac(data["s"])
    x = point_from_json(data["x"])
    check_point(cfg, x, where=where)
    check_level(cfg, s, where=where)
    phi = _items(data["phi"], "a pair's phi", where, list, 3)
    if not all(type(v) is int for term in phi for v in term):
        raise ValidationError("a pair's phi holds a non-integer", where=where)
    coeffs: Dict[Tuple[int, int], int] = {}
    for i, j, c in phi:
        if (i - 1, j - 1) in coeffs:
            raise ValidationError(f"position ({i},{j}) given twice in a pair's phi", where=where)
        coeffs[(i - 1, j - 1)] = c
    phi = GradedElement.make(cfg, x, -s, coeffs)
    pair = DMPPair.make(cfg, s, x, phi)
    if "lift" in data and orbit_from_json(data["lift"]) != pair.lift:
        raise ValidationError(
            f"stored lift {data['lift']} disagrees with computed {pair.lift}",
            where="jsonio.pair_from_json",
        )
    return pair


def shape_to_json(sh: LatticeShape) -> Dict[str, Any]:
    return {
        "bounds": [list(r) for r in sh.bounds],
        "provenance": {"x": point_to_json(sh.x), "s": frac_str(sh.s), "strict": sh.strict},
    }


def _q_power_str(cfg: GroupConfig, rec: RelationRecord) -> str:
    return f"{cfg.q}^{rec.q_exponent(cfg.q)}"


def record_to_json(cfg: GroupConfig, rec: RelationRecord) -> Dict[str, Any]:
    prov = rec.provenance
    return {
        "lhs": pair_to_json(rec.lhs),
        "c": _q_power_str(cfg, rec),
        "base": pair_to_json(rec.base),
        "terms": [[frac_str(coef), pair_to_json(p)] for coef, p in rec.terms],
        # every relation is one incidence's, so "role" and "interval" are
        # constants; the output format keeps them
        "provenance": {
            "role": "refine",
            "interval": None,
            "y": point_to_json(prov.y),
            "tau": frac_str(prov.tau),
            "x": point_to_json(prov.x),
            "s": frac_str(prov.s),
            "counts": {"A": prov.n_a, "B": prov.n_b, "C": prov.n_c},
            "quotient_dim": prov.quotient_dim,
        },
    }


def table_to_json(table: MeasureTable) -> Dict[str, Any]:
    return {
        "orbits": [orbit_to_json(o) for o in table.orbits],
        "probes": [pair_to_json(p) for p in table.probes],
        "K": table.K,
        "lambda_bounds": [list(r) for r in table.lam],
        "normalization": table.normalization,
        "entries": [[frac_str(v) for v in row] for row in table.entries],
    }


def matrix_to_json(cm: CoefficientMatrix) -> Dict[str, Any]:
    return {
        "orbits": [orbit_to_json(o) for o in cm.orbits],
        "probes": [pair_to_json(p) for p in cm.probes],
        "M": [[frac_str(v) for v in row] for row in cm.m_rows],
        "A": [[frac_str(v) for v in row] for row in cm.a_rows],
        "normalization": cm.normalization,
    }


def matrix_from_json(
    cfg: GroupConfig, data: Mapping[str, Any], seen: Dict[str, DMPPair] | None = None
) -> CoefficientMatrix:
    """A persisted coefficient matrix, refused unless it passes
    `matrix_problem`, the check `assemble_and_invert` asserts on the
    matrices it builds; its probes are read through `pair_from_json`
    with `seen`."""
    where = "jsonio.matrix_from_json"
    _fields(data, "the matrix", where, "orbits", "probes", "M", "A", "normalization")
    if not isinstance(data["normalization"], str):
        raise ValidationError("the matrix's normalization is not a string", where=where)
    cm = CoefficientMatrix(
        orbits=tuple(orbit_from_json(o) for o in _items(data["orbits"], "orbits", where)),
        probes=tuple(
            pair_from_json(cfg, p, seen) for p in _items(data["probes"], "probes", where)
        ),
        m_rows=tuple(tuple(map(parse_frac, row)) for row in _items(data["M"], "M", where, list)),
        a_rows=tuple(tuple(map(parse_frac, row)) for row in _items(data["A"], "A", where, list)),
        normalization=data["normalization"],
    )
    problem = matrix_problem(cfg, cm)
    if problem is not None:
        raise ValidationError(problem, where=where)
    return cm


# kept for `expand` (ROADMAP item 1), which will write it, and item 5; no command does yet
def mult_vector_to_json(v: MultiplicityVector) -> Dict[str, Any]:
    return {
        "r": frac_str(v.r),
        "source": v.source,
        "entries": [[pair_to_json(p), n] for p, n in v.entries],
    }


def mult_vector_from_json(
    cfg: GroupConfig, data: Mapping[str, Any], seen: Dict[str, DMPPair] | None = None
) -> MultiplicityVector:
    """A multiplicity vector, its pairs read through `pair_from_json` with `seen`."""
    where = "jsonio.mult_vector_from_json"
    _fields(data, "the multiplicity vector", where, "r", "entries")
    source = data.get("source", "")
    if not isinstance(source, str):
        raise ValidationError("the multiplicity vector's source is not a string", where=where)
    rows = _items(data["entries"], "entries", where, list, 2)
    if not all(type(n) is int for _, n in rows):
        raise ValidationError("a multiplicity is not an integer", where=where)
    entries = {}
    for p, n in rows:
        pair = pair_from_json(cfg, p, seen)
        if pair in entries:
            raise ValidationError(f"pair {pair.describe()} is listed twice", where=where)
        entries[pair] = int(n)
    return MultiplicityVector.make(parse_frac(data["r"]), entries, source=source)


def expansion_to_json(res: ExpansionResult) -> Dict[str, Any]:
    return {
        "coefficients": [
            [orbit_to_json(o), frac_str(c)] for o, c in res.coefficients
        ],
        "normalization": res.normalization,
    }
