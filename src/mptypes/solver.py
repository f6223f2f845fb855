"""Triangular extraction of expansion coefficients from multiplicities.

One probe pair per nilpotent orbit realizes that orbit as its lift; the
matrix of counting measures over the probe family is triangular with
positive diagonal, so its exact inverse maps multiplicity data to the
expansion coefficients, uniquely.  Coefficients are always reported
together with the normalization of the measure table that produced
them; no absolute normalization is claimed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .apartment import ApartmentPoint, GroupConfig
from .errors import InternalFault, ValidationError
from .graded import GradedElement
from .measures import MeasureTable
from .orbits import OrbitLabel, dominance_leq, partitions_of
from .record import record
from .refine import DMPPair

Q = Fraction

__all__ = [
    "MultiplicityVector",
    "CoefficientMatrix",
    "ExpansionResult",
    "choose_probes",
    "alt_probes_gl2",
    "assemble_and_invert",
    "independence_check",
    "matrix_problem",
    "solve_expansion",
    "synthesize_vector",
]


def _depth_bound(r: Q | int | str, where: str) -> Q:
    """r as a rational; a negative depth bound is refused, on every path."""
    r = Q(r)
    if r < 0:
        raise ValidationError("depth bound must be >= 0", where=where)
    return r


@record
class MultiplicityVector:
    """dim Hom data indexed by degenerate pairs, at depth bound r."""

    r: Q
    entries: Tuple[Tuple[DMPPair, int], ...]
    source: str = ""

    @staticmethod
    def make(
        r: Q | int | str, entries: Mapping[DMPPair, int], source: str = ""
    ) -> "MultiplicityVector":
        r = _depth_bound(r, where="solver.MultiplicityVector")
        for pair, v in entries.items():
            if pair.s <= r:
                raise ValidationError(
                    f"pair {pair.describe()} has level <= depth bound {r}",
                    where="solver.MultiplicityVector",
                )
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValidationError(
                    "multiplicities must be non-negative integers",
                    where="solver.MultiplicityVector",
                )
        ordered = tuple(sorted(entries.items(), key=lambda kv: kv[0].describe()))
        return MultiplicityVector(r=r, entries=ordered, source=source)

    def as_dict(self) -> Dict[DMPPair, int]:
        return dict(self.entries)


@record
class ExpansionResult:
    coefficients: Tuple[Tuple[OrbitLabel, Q], ...]
    normalization: str

    def coeff(self, orbit: OrbitLabel) -> Q:
        for o, c in self.coefficients:
            if o == orbit:
                return c
        raise ValidationError(f"no coefficient for {orbit}", where="solver.ExpansionResult")

    def as_dict(self) -> Dict[OrbitLabel, Q]:
        return dict(self.coefficients)


@record
class CoefficientMatrix:
    """Measure matrix M over probes and its exact inverse.

    M[i][j] is the measure of orbit j against probe i, with orbits and
    probes listed in a dominance-compatible ascending order; both M and
    its inverse vanish below the order.  The solving coefficient
    A_{O',O} weighting the probe datum at O' into the output at O is
    the inverse entry at (row O, column O'), exposed via `coeff`.
    """

    orbits: Tuple[OrbitLabel, ...]
    probes: Tuple[DMPPair, ...]
    m_rows: Tuple[Tuple[Q, ...], ...]
    a_rows: Tuple[Tuple[Q, ...], ...]
    normalization: str

    def coeff(self, o_prime: OrbitLabel, o: OrbitLabel) -> Q:
        return self.a_rows[self.orbits.index(o)][self.orbits.index(o_prime)]


def _jordan_pattern(cfg: GroupConfig, x: ApartmentPoint, s: Q, parts) -> GradedElement:
    coeffs = {}
    pos = 0
    for p in parts:
        for k in range(p - 1):
            coeffs[(pos + k, pos + k + 1)] = 1
        pos += p
    return GradedElement.make(cfg, x, -s, coeffs)


def _probe_maker(cfg: GroupConfig, known: Iterable[DMPPair]):
    """make(s, x, phi): the pair of `known` with those fields, else DMPPair.make's.

    A known pair was built by DMPPair.make, so its lift is the one make
    would compute again."""
    by_fields = {(p.s, p.x, p.phi): p for p in known}

    def make(s: Q, x: ApartmentPoint, phi: GradedElement) -> DMPPair:
        pair = by_fields.get((s, x, phi))
        return pair if pair is not None else DMPPair.make(cfg, s, x, phi)

    return make


def choose_probes(
    cfg: GroupConfig, r: Q | int | str = 0, known: Iterable[DMPPair] = ()
) -> List[DMPPair]:
    """One probe per partition of n with level above r, lift verified.

    The default catalog uses the standard homogeneous patterns: for
    n = 2 the zero element at the hyperspecial point and the regular
    pattern at the half point (levels translate by the period when r
    grows); in general the Jordan patterns at the hyperspecial point.
    A probe equal in (s, x, phi) to a pair of `known` is that pair.
    """
    make = _probe_maker(cfg, known)
    r = _depth_bound(r, where="solver.choose_probes")
    s_int = Q(math.floor(r) + 1)
    if cfg.n == 2 and cfg.m % 2 == 0:
        x0 = ApartmentPoint.of([0, 0])
        xi = ApartmentPoint.of([Q(1, 2), 0])
        s_half = Q(math.floor(r + Q(1, 2))) + Q(1, 2)
        if s_half <= r:
            s_half += 1
        probes = [
            make(s_int, x0, GradedElement.zero(x0, -s_int)),
            make(s_half, xi, GradedElement.make(cfg, xi, -s_half, {(0, 1): 1})),
        ]
    else:
        x0 = ApartmentPoint.of([0] * cfg.n)
        probes = [
            make(s_int, x0, _jordan_pattern(cfg, x0, s_int, lam.parts))
            for lam in partitions_of(cfg.n)
        ]
    for probe, lam in zip(probes, partitions_of(cfg.n)):
        if probe.lift != lam:
            raise InternalFault(
                f"probe for {lam} has lift {probe.lift}", where="solver.choose_probes"
            )
    return probes


def alt_probes_gl2(
    cfg: GroupConfig, r: Q | int | str = 0, known: Iterable[DMPPair] = ()
) -> List[DMPPair]:
    """Alternate GL_2 catalog with both probes at the hyperspecial point;
    a probe equal in (s, x, phi) to a pair of `known` is that pair."""
    if cfg.n != 2:
        raise ValidationError("GL_2 catalog only", where="solver.alt_probes_gl2")
    make = _probe_maker(cfg, known)
    r = _depth_bound(r, where="solver.alt_probes_gl2")
    s = Q(math.floor(r) + 1)
    x0 = ApartmentPoint.of([0, 0])
    return [
        make(s, x0, GradedElement.zero(x0, -s)),
        make(s, x0, GradedElement.make(cfg, x0, -s, {(0, 1): 1})),
    ]


def _invert_rational(rows: Sequence[Sequence[Q]]) -> List[List[Q]]:
    """The exact inverse, or [] when the matrix is singular."""
    k = len(rows)
    aug = [list(rows[i]) + [Q(1) if j == i else Q(0) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            return []
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [a / f for a in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                g = aug[i][col]
                aug[i] = [a - g * b for a, b in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]


def independence_check(table: MeasureTable) -> bool:
    """Rows linearly independent over Q: the square table is invertible."""
    k = len(table.probes)
    if k != len(table.orbits):
        raise ValidationError(
            "independence check needs a square table", where="solver.independence_check"
        )
    return k == 0 or bool(_invert_rational(table.entries))


def assemble_and_invert(
    cfg: GroupConfig, probes: Sequence[DMPPair], table: MeasureTable
) -> CoefficientMatrix:
    """Square measure matrix over the probes, with its exact inverse.

    Probes are sorted so their lifts match the ascending orbit order;
    every check of `matrix_problem` is asserted on the result.
    """
    orbits = list(partitions_of(cfg.n))
    lifts = [p.lift for p in probes]
    if sorted(lifts, key=lambda o: o.parts) != sorted(
        (o for o in orbits), key=lambda o: o.parts
    ):
        raise ValidationError(
            "need exactly one probe per orbit with matching lift",
            where="solver.assemble_and_invert",
        )
    ordered = [next(p for p in probes if p.lift == o) for o in orbits]
    m_rows = []
    for p in ordered:
        row = []
        for o in orbits:
            if o not in table.orbits or p not in table.probes:
                raise ValidationError(
                    "table does not cover the probe family",
                    where="solver.assemble_and_invert",
                )
            row.append(table.entry(o, p))
        m_rows.append(row)
    cm = CoefficientMatrix(
        orbits=tuple(orbits),
        probes=tuple(ordered),
        m_rows=tuple(tuple(r) for r in m_rows),
        a_rows=tuple(tuple(r) for r in _invert_rational(m_rows)),
        normalization=table.normalization,
    )
    problem = matrix_problem(cfg, cm)
    if problem is not None:
        raise InternalFault(problem, where="solver.assemble_and_invert")
    return cm


def matrix_problem(cfg: GroupConfig, cm: CoefficientMatrix) -> Optional[str]:
    """The first check cm fails, or None when it passes all of them.

    Orbits run in the ascending orbit order with the probe of each
    orbit beside it; M and A are square, M has a nonzero diagonal and
    vanishes below the dominance order, M A = I exactly, and A vanishes
    below the order too.
    """
    orbits = tuple(partitions_of(cfg.n))
    k = len(orbits)
    if cm.orbits != orbits or tuple(p.lift for p in cm.probes) != orbits:
        return "orbits or probe lifts are not in the ascending orbit order"
    m, a = cm.m_rows, cm.a_rows
    if len(m) != k or any(len(r) != k for r in m):
        return f"M is not {k} x {k}"
    for i in range(k):
        if m[i][i] == 0:
            return f"zero diagonal at {orbits[i]}: contradicts triangularity"
        for j in range(k):
            if m[i][j] != 0 and not dominance_leq(orbits[i], orbits[j]):
                return f"nonzero entry below the order at ({orbits[i]}, {orbits[j]})"
    if len(a) != k or any(len(r) != k for r in a):
        return f"A is not {k} x {k}"
    for i in range(k):
        for j in range(k):
            if sum(m[i][l] * a[l][j] for l in range(k)) != (1 if i == j else 0):
                return "M A != I"
            if a[i][j] != 0 and not dominance_leq(orbits[i], orbits[j]):
                return f"inverse nonzero below the order at ({orbits[i]}, {orbits[j]})"
    return None


def solve_expansion(
    cfg: GroupConfig, v: MultiplicityVector, cm: CoefficientMatrix
) -> ExpansionResult:
    """Exact coefficients c_O = sum over O' of A_{O',O} v(probe_{O'}).

    The solved coefficients reproduce the input on every probe pair
    (asserted); missing probe entries are rejected by name.
    """
    vd = v.as_dict()
    missing = [p for p in cm.probes if p not in vd]
    if missing:
        raise ValidationError(
            "multiplicity vector missing probes: "
            + "; ".join(p.describe() for p in missing),
            where="solver.solve_expansion",
        )
    vec = [Q(vd[p]) for p in cm.probes]
    k = len(cm.orbits)
    coeffs = [sum(cm.a_rows[i][j] * vec[j] for j in range(k)) for i in range(k)]
    for i in range(k):
        back = sum(cm.m_rows[i][j] * coeffs[j] for j in range(k))
        if back != vec[i]:
            raise InternalFault(
                "solved coefficients fail to reproduce the input",
                where="solver.solve_expansion",
            )
    return ExpansionResult(
        coefficients=tuple(zip(cm.orbits, coeffs)), normalization=cm.normalization
    )


def synthesize_vector(
    cfg: GroupConfig,
    coefficients: Mapping[OrbitLabel, Q] | ExpansionResult,
    pairs: Iterable[DMPPair],
    table: MeasureTable,
) -> Dict[DMPPair, Q]:
    """Components sum_O mu_O(pair) * c_O over the requested pairs.

    Every requested pair and every orbit with a nonzero coefficient
    must be covered by the table.
    """
    if isinstance(coefficients, ExpansionResult):
        coefficients = coefficients.as_dict()
    out: Dict[DMPPair, Q] = {}
    for pair in pairs:
        if pair not in table.probes:
            raise ValidationError(
                f"table does not cover pair {pair.describe()}",
                where="solver.synthesize_vector",
            )
        acc = Q(0)
        for o, c in coefficients.items():
            if c == 0:
                continue
            if o not in table.orbits:
                raise ValidationError(
                    f"table does not cover orbit {o}", where="solver.synthesize_vector"
                )
            acc += table.entry(o, pair) * Q(c)
        out[pair] = acc
    return out
