"""Canonical JSON forms for every exchanged object.

Textual formats only: rationals are strings "a/b", apartment points are
arrays of rationals, partitions are descending integer arrays, matrix
positions are 1-based in external data.  Serialization is stable
(sorted keys, fixed separators) so equal inputs give identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Sequence

from .apartment import ApartmentPoint, GeodesicPlan, GroupConfig, LatticeShape
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
    "plan_to_json",
    "record_to_json",
    "table_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "mult_vector_to_json",
    "mult_vector_from_json",
    "expansion_to_json",
]


def frac_str(x: Q | int) -> str:
    f = Q(x)
    return f"{f.numerator}/{f.denominator}"


def parse_frac(s: str | int) -> Q:
    try:
        return Q(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {s!r}: {exc}", where="jsonio.parse_frac")


def dump(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def point_to_json(x: ApartmentPoint) -> List[str]:
    return [frac_str(c) for c in x.coords]


def point_from_json(data: Sequence[str]) -> ApartmentPoint:
    return ApartmentPoint.of([parse_frac(c) for c in data])


def orbit_to_json(o: OrbitLabel) -> List[int]:
    return list(o.parts)


def orbit_from_json(data: Sequence[int]) -> OrbitLabel:
    return OrbitLabel.of(data)


def pair_to_json(p: DMPPair) -> Dict[str, Any]:
    return {
        "s": frac_str(p.s),
        "x": point_to_json(p.x),
        "phi": [[i + 1, j + 1, c] for (i, j), c in p.phi.coeffs],
        "lift": orbit_to_json(p.lift),
    }


def pair_from_json(cfg: GroupConfig, data: Mapping[str, Any]) -> DMPPair:
    s = parse_frac(data["s"])
    x = point_from_json(data["x"])
    coeffs = {(int(i) - 1, int(j) - 1): int(c) for i, j, c in data["phi"]}
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
        "provenance": {
            "x": point_to_json(sh.x),
            "s": frac_str(sh.s),
            "strict": sh.strict,
        },
    }


def plan_to_json(cfg: GroupConfig, plan: GeodesicPlan) -> Dict[str, Any]:
    return {
        "endpoints": {
            "x0": point_to_json(plan.x0),
            "s0": frac_str(plan.s0),
            "x1": point_to_json(plan.x1),
            "s1": frac_str(plan.s1),
        },
        "breakpoints": [frac_str(t) for t in plan.ts],
        "intervals": [
            {
                "sample": frac_str(cert.sample),
                "shapes": [shape_to_json(sh) for sh in cert.shapes],
            }
            for cert in plan.intervals
        ],
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
        "provenance": {
            "role": prov.role,
            "interval": prov.interval,
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


def matrix_from_json(cfg: GroupConfig, data: Mapping[str, Any]) -> CoefficientMatrix:
    """A persisted coefficient matrix, re-checked as `assemble_and_invert` checks it."""
    cm = CoefficientMatrix(
        orbits=tuple(orbit_from_json(o) for o in data["orbits"]),
        probes=tuple(pair_from_json(cfg, p) for p in data["probes"]),
        m_rows=tuple(tuple(parse_frac(v) for v in row) for row in data["M"]),
        a_rows=tuple(tuple(parse_frac(v) for v in row) for row in data["A"]),
        normalization=data["normalization"],
    )
    problem = matrix_problem(cfg, cm)
    if problem is not None:
        raise ValidationError(problem, where="jsonio.matrix_from_json")
    return cm


def mult_vector_to_json(v: MultiplicityVector) -> Dict[str, Any]:
    return {
        "r": frac_str(v.r),
        "source": v.source,
        "entries": [[pair_to_json(p), n] for p, n in v.entries],
    }


def mult_vector_from_json(cfg: GroupConfig, data: Mapping[str, Any]) -> MultiplicityVector:
    entries = {pair_from_json(cfg, p): int(n) for p, n in data["entries"]}
    return MultiplicityVector.make(
        parse_frac(data["r"]), entries, source=data.get("source", "")
    )


def expansion_to_json(res: ExpansionResult) -> Dict[str, Any]:
    return {
        "coefficients": [
            [orbit_to_json(o), frac_str(c)] for o, c in res.coefficients
        ],
        "normalization": res.normalization,
    }
