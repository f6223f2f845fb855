"""Triangular extraction of expansion coefficients from multiplicities.

One probe pair per nilpotent orbit realizes that orbit as its lift; the
matrix of counting measures over the probe family is triangular with
positive diagonal, so its exact inverse maps multiplicity data to the
expansion coefficients, uniquely.  That matrix is the measure table's
rows as they stand: each catalog lists its probes in `partitions_of`
order, one per orbit, and `build_measure_table` counts them against the
orbits in the same order.  That order extends the closure order and an
entry is nonzero only where its orbit dominates its probe's lift, so M
is upper triangular: `assemble_and_invert` inverts it by back
substitution and checks the result (`matrix_problem`, which reads the
closure order from `closure_order` and checks M before A, so a table
that is not triangular is refused for M's own fault).  The products
skip zero terms; for n >= 6 the order is not total and A has zeros above
its diagonal.  Coefficients are always reported together with the
normalization of the measure table that produced them; no absolute
normalization is claimed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .apartment import ApartmentPoint, GroupConfig
from .errors import InternalFault, ValidationError
from .graded import GradedElement
from .measures import MeasureTable
from .orbits import OrbitLabel, closure_order, partitions_of
from .record import record
from .refine import DMPPair

Q = Fraction
_ZERO = Q(0)

__all__ = [
    "MultiplicityVector",
    "CoefficientMatrix",
    "ExpansionResult",
    "choose_probes",
    "alt_probes_gl2",
    "assemble_and_invert",
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


@record
class CoefficientMatrix:
    """Measure matrix M over probes and its exact inverse.

    M[i][j] is the measure of orbit j against probe i, with orbits and
    probes listed in a dominance-compatible ascending order; both M and
    its inverse vanish below the order.  The solving coefficient
    A_{O',O} weighting the probe datum at O' into the output at O is
    the inverse entry at (row O, column O').
    """

    orbits: Tuple[OrbitLabel, ...]
    probes: Tuple[DMPPair, ...]
    m_rows: Tuple[Tuple[Q, ...], ...]
    a_rows: Tuple[Tuple[Q, ...], ...]
    normalization: str


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
    would compute again, and phi alone keys it: make refuses phi.x != x
    and phi.degree != -s, so an element fixes its pair's point and level."""
    by_phi = {p.phi: p for p in known}

    def make(s: Q, x: ApartmentPoint, phi: GradedElement) -> DMPPair:
        pair = by_phi.get(phi)
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
    """The exact inverse of a square upper triangular matrix, by back
    substitution, or [] when it is not square or has a zero on its
    diagonal.  Entries below the diagonal are never read: `matrix_problem`
    refuses a matrix that has any before it reads the inverse."""
    k = len(rows)
    if any(len(row) != k for row in rows) or not all(rows[i][i] for i in range(k)):
        return []
    inv = [[_ZERO] * k for _ in range(k)]
    for j in range(k):
        inv[j][j] = 1 / rows[j][j]
        for i in range(j - 1, -1, -1):
            row = rows[i]
            t = sum(row[l] * inv[l][j] for l in range(i + 1, j + 1) if row[l] and inv[l][j])
            if t:
                inv[i][j] = -t / row[i]
    return inv


def assemble_and_invert(cfg: GroupConfig, table: MeasureTable) -> CoefficientMatrix:
    """The table's rows as M, with A its exact inverse.

    A table holds one probe per orbit, both in `partitions_of` order;
    every check of `matrix_problem` is asserted on the result, so rows
    that are not independent are an internal fault here.
    """
    cm = CoefficientMatrix(
        orbits=table.orbits,
        probes=table.probes,
        m_rows=table.entries,
        a_rows=tuple(tuple(r) for r in _invert_rational(table.entries)),
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
    orbits = partitions_of(cfg.n)
    k = len(orbits)
    if cm.orbits != orbits or tuple(p.lift for p in cm.probes) != orbits:
        return "orbits or probe lifts are not in the ascending orbit order"
    m, a = cm.m_rows, cm.a_rows
    if len(m) != k or any(len(r) != k for r in m):
        return f"M is not {k} x {k}"
    leq = closure_order(cfg.n)
    for i in range(k):
        if not m[i][i]:
            return f"zero diagonal at {orbits[i]}: contradicts triangularity"
        for j in range(k):
            if not leq[i][j] and m[i][j]:
                return f"nonzero entry below the order at ({orbits[i]}, {orbits[j]})"
    if len(a) != k or any(len(r) != k for r in a):
        return f"A is not {k} x {k}"
    for i in range(k):
        nonzero = [l for l in range(k) if m[i][l]]
        for j in range(k):
            if sum(m[i][l] * a[l][j] for l in nonzero if a[l][j]) != (1 if i == j else 0):
                return "M A != I"
            if not leq[i][j] and a[i][j]:
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
    coeffs = [sum((a * x for a, x in zip(row, vec) if a and x), _ZERO) for row in cm.a_rows]
    for row, x in zip(cm.m_rows, vec):
        if sum(m * c for m, c in zip(row, coeffs) if m and c) != x:
            raise InternalFault(
                "solved coefficients fail to reproduce the input",
                where="solver.solve_expansion",
            )
    return ExpansionResult(
        coefficients=tuple(zip(cm.orbits, coeffs)), normalization=cm.normalization
    )


def synthesize_vector(
    cm: CoefficientMatrix, coefficients: Mapping[OrbitLabel, Q]
) -> Dict[DMPPair, Q]:
    """M c: the component sum_O M[probe][O] c_O at each probe of cm."""
    return {
        p: sum(m * coefficients[o] for o, m in zip(cm.orbits, row))
        for p, row in zip(cm.probes, cm.m_rows)
    }
