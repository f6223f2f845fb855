"""Standard-apartment model for GL_n over F_q((t)).

A point x = (x_1, ..., x_n) of the reduced apartment is normalized so
that x_n = 0.  The degree of a matrix monomial is

    deg(t^w e_ij) = w + x_i - x_j,

and every filtration object here is a matrix of integer valuation
bounds: entry (i, j) of the lattice at level s consists of all a * t^w
with w >= bound_ij.  All arithmetic is over exact rationals; breakpoint
crossings are solved exactly, never with floating point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Dict, List, Sequence, Tuple

from .errors import InternalFault, ValidationError
from .gf import is_prime

Q = Fraction

__all__ = [
    "GroupConfig",
    "ApartmentPoint",
    "LatticeShape",
    "GradedSupport",
    "GeodesicPlan",
    "mp_lattice",
    "inclusion_chain_ok",
    "graded_support",
    "breakpoints",
    "verify_plan",
    "convexity_check",
    "residue_classes",
]


@dataclass(frozen=True)
class GroupConfig:
    """Ambient group GL_n over F_q((t)) with denominator bound m.

    The large-residue-characteristic hypothesis this machinery is
    usually stated under reads q >= max(n, 271).  Desk-scale runs sit
    far below it; they are permitted (all algorithms implemented here
    are characteristic-free type-A linear algebra) but flagged once.
    With strict_p=True a config violating the hypothesis is rejected.
    """

    n: int
    q: int
    m: int = 1
    strict_p: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1", where="apartment.GroupConfig")
        if not is_prime(self.q):
            raise ValidationError(f"q = {self.q} is not prime", where="apartment.GroupConfig")
        if self.m < 1:
            raise ValidationError("m must be >= 1", where="apartment.GroupConfig")
        if not self.hypothesis_ok:
            if self.strict_p:
                raise ValidationError(
                    f"q = {self.q} below the large-p bound max(n, 271) with strict_p set",
                    where="apartment.GroupConfig",
                )
            warnings.warn(
                f"q = {self.q} is below max(n, 271) = {max(self.n, 271)}; "
                "running outside the large-p regime",
                stacklevel=2,
            )

    @property
    def hypothesis_ok(self) -> bool:
        return self.q >= max(self.n, 271)


@dataclass(frozen=True)
class ApartmentPoint:
    """Rational point of the reduced standard apartment (x_n = 0)."""

    coords: Tuple[Q, ...]

    @staticmethod
    def of(coords: Sequence[Q | int | str]) -> "ApartmentPoint":
        cs = tuple(Q(c) for c in coords)
        if not cs:
            raise ValidationError("empty coordinate list", where="apartment.ApartmentPoint")
        last = cs[-1]
        return ApartmentPoint(tuple(c - last for c in cs))

    def __post_init__(self):
        if self.coords and self.coords[-1] != 0:
            raise ValidationError(
                "apartment point must be normalized with x_n = 0 (use ApartmentPoint.of)",
                where="apartment.ApartmentPoint",
            )

    @property
    def n(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Q:
        return self.coords[i]


def check_point(cfg: GroupConfig, x: ApartmentPoint, *, where: str) -> None:
    if x.n != cfg.n:
        raise ValidationError(f"point has {x.n} coordinates, expected {cfg.n}", where=where)
    for c in x.coords:
        if cfg.m % c.denominator:
            raise ValidationError(
                f"coordinate {c} has denominator not dividing m = {cfg.m}", where=where
            )


def check_level(cfg: GroupConfig, s: Q, *, where: str) -> None:
    s = Q(s)
    if cfg.m % s.denominator:
        raise ValidationError(
            f"level {s} has denominator not dividing m = {cfg.m}", where=where
        )


@dataclass(frozen=True)
class LatticeShape:
    """Valuation-bound matrix for g_{x>=s} / g_{x>s} (or the G_ versions)."""

    bounds: Tuple[Tuple[int, ...], ...]
    x: ApartmentPoint
    s: Q
    strict: bool

    def contains(self, other: "LatticeShape") -> bool:
        """Whether `other` is a sublattice of self (entrywise bound test)."""
        return all(
            ob >= sb
            for orow, srow in zip(other.bounds, self.bounds)
            for ob, sb in zip(orow, srow)
        )

    def dim_quotient_by(self, finer: "LatticeShape") -> int:
        """F_q-dimension of self / finer; requires finer to be contained."""
        if not self.contains(finer):
            raise ValidationError("quotient by a non-sublattice", where="apartment.LatticeShape")
        return sum(
            fb - sb for frow, srow in zip(finer.bounds, self.bounds) for fb, sb in zip(frow, srow)
        )


def _bound(s: Q, xi: Q, xj: Q, strict: bool) -> int:
    v = s + xj - xi
    return floor(v) + 1 if strict else ceil(v)


def mp_lattice(
    cfg: GroupConfig,
    x: ApartmentPoint,
    s: Q | int | str,
    strict: bool = False,
    *,
    _checked: bool = False,
) -> LatticeShape:
    """Bounds matrix of the filtration lattice at (x, s).

    Entry (i, j) is ceil(s + x_j - x_i), or floor(s + x_j - x_i) + 1 for
    the strict lattice.  For GL_n the group filtration G_{x>=s} (s >= 0)
    has the same bound matrix as the algebra filtration g_{x>=s}, so one
    shape serves both.
    """
    s = Q(s)
    if not _checked:
        check_point(cfg, x, where="apartment.mp_lattice")
        check_level(cfg, s, where="apartment.mp_lattice")
    bounds = tuple(
        tuple(_bound(s, x[i], x[j], strict) for j in range(cfg.n)) for i in range(cfg.n)
    )
    return LatticeShape(bounds=bounds, x=x, s=s, strict=strict)


@dataclass(frozen=True)
class GradedSupport:
    """Monomial basis of the graded piece g_{x=degree}.

    Position (i, j) appears iff degree - x_i + x_j is an integer w, and
    then t^w e_ij is the basis monomial sitting at that position.
    """

    x: ApartmentPoint
    degree: Q
    entries: Tuple[Tuple[Tuple[int, int], int], ...]  # ((i, j), w) sorted

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def positions(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(p for p, _ in self.entries)

    def exponent(self, i: int, j: int) -> int | None:
        for (a, b), w in self.entries:
            if (a, b) == (i, j):
                return w
        return None


def graded_support(
    cfg: GroupConfig, x: ApartmentPoint, degree: Q | int | str, *, _checked: bool = False
) -> GradedSupport:
    degree = Q(degree)
    if not _checked:
        check_point(cfg, x, where="apartment.graded_support")
        check_level(cfg, degree, where="apartment.graded_support")
    entries = []
    for i in range(cfg.n):
        for j in range(cfg.n):
            w = degree - x[i] + x[j]
            if w.denominator == 1:
                entries.append(((i, j), int(w)))
    return GradedSupport(x=x, degree=degree, entries=tuple(entries))


def residue_classes(x: ApartmentPoint) -> List[Tuple[Q, Tuple[int, ...]]]:
    """Indices of x grouped by the residue of x_i modulo 1, sorted."""
    groups: Dict[Q, List[int]] = {}
    for i, c in enumerate(x.coords):
        groups.setdefault(c % 1, []).append(i)
    return [(r, tuple(groups[r])) for r in sorted(groups)]


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalCertificate:
    sample: Q
    shapes: Tuple[LatticeShape, ...]  # the six constancy witnesses


@dataclass(frozen=True)
class GeodesicPlan:
    x0: ApartmentPoint
    s0: Q
    x1: ApartmentPoint
    s1: Q
    ts: Tuple[Q, ...]
    intervals: Tuple[IntervalCertificate, ...]

    def point_at(self, t: Q) -> Tuple[ApartmentPoint, Q]:
        xt = ApartmentPoint(
            tuple((1 - t) * a + t * b for a, b in zip(self.x0.coords, self.x1.coords))
        )
        st = (1 - t) * self.s0 + t * self.s1
        return xt, st


def _six_shapes(cfg: GroupConfig, x: ApartmentPoint, s: Q) -> Tuple[LatticeShape, ...]:
    """The lattices at levels 0, s and -s, each non-strict then strict."""
    return tuple(
        mp_lattice(cfg, x, level, strict, _checked=True)
        for level in (Q(0), s, -s)
        for strict in (False, True)
    )


def inclusion_chain_ok(
    cfg: GroupConfig, x: ApartmentPoint, level_x: Q, y: ApartmentPoint, level_y: Q
) -> bool:
    """L_{x>level_x} <= L_{y>level_y} <= L_{y>=level_y} <= L_{x>=level_x}.

    For GL_n every lattice in the chain is a bound matrix, so the chain
    is three entrywise comparisons.
    """
    xs = mp_lattice(cfg, x, level_x, True, _checked=True)
    ys = mp_lattice(cfg, y, level_y, True, _checked=True)
    yn = mp_lattice(cfg, y, level_y, False, _checked=True)
    xn = mp_lattice(cfg, x, level_x, False, _checked=True)
    return ys.contains(xs) and yn.contains(ys) and xn.contains(yn)


def breakpoints(
    cfg: GroupConfig,
    x0: ApartmentPoint,
    s0: Q | int | str,
    x1: ApartmentPoint,
    s1: Q | int | str,
) -> GeodesicPlan:
    """Subdivide the path (x_t, s_t) where any filtration shape can jump.

    Candidate breakpoints are the exact rational roots in [0, 1] of the
    affine functions  w + (x_{t,i} - x_{t,j}) - level_t  for integer w
    and level_t in {s_t, -s_t, 0}; identically-zero functions witness a
    monomial pinned to the level and produce no breakpoint.  The plan
    certifies interval constancy and the breakpoint inclusion chains,
    raising an internal fault if either fails.
    """
    s0, s1 = Q(s0), Q(s1)
    check_point(cfg, x0, where="apartment.breakpoints")
    check_point(cfg, x1, where="apartment.breakpoints")
    check_level(cfg, s0, where="apartment.breakpoints")
    check_level(cfg, s1, where="apartment.breakpoints")

    cuts = {Q(0), Q(1)}
    n = cfg.n
    for i in range(n):
        for j in range(n):
            alpha0 = x0[i] - x0[j]
            alpha1 = x1[i] - x1[j]
            for lev0, lev1 in ((s0, s1), (-s0, -s1), (Q(0), Q(0))):
                # f(t) = w + alpha_t - lev_t is affine in t
                b0 = alpha0 - lev0
                b1 = alpha1 - lev1
                lo, hi = min(-b0, -b1), max(-b0, -b1)
                for w in range(ceil(lo), floor(hi) + 1):
                    a = (b1 - b0)  # slope
                    if a == 0:
                        continue  # constant (possibly identically zero): no crossing
                    t = -Q(w + b0, 1) / a
                    if 0 <= t <= 1:
                        cuts.add(Q(t))
    ts = tuple(sorted(cuts))

    plan_intervals: List[IntervalCertificate] = []
    xt = lambda t: ApartmentPoint(
        tuple((1 - t) * a + t * b for a, b in zip(x0.coords, x1.coords))
    )
    st = lambda t: (1 - t) * s0 + t * s1
    for k in range(len(ts) - 1):
        mid = (ts[k] + ts[k + 1]) / 2
        plan_intervals.append(
            IntervalCertificate(sample=mid, shapes=_six_shapes(cfg, xt(mid), st(mid)))
        )
    plan = GeodesicPlan(
        x0=x0, s0=s0, x1=x1, s1=s1, ts=ts, intervals=tuple(plan_intervals)
    )
    verify_plan(cfg, plan)
    return plan


def _shape_signature(shapes: Tuple[LatticeShape, ...]):
    # constancy along an interval means equal bound matrices, not equal
    # provenance (the sample point obviously moves)
    return tuple((sh.strict, sh.bounds) for sh in shapes)


def verify_plan(cfg: GroupConfig, plan: GeodesicPlan, samples_per_interval: int = 2) -> None:
    """Re-check interval constancy and breakpoint chains; fault on failure."""
    ts = plan.ts
    for k, cert in enumerate(plan.intervals):
        lo, hi = ts[k], ts[k + 1]
        if lo == hi:
            continue
        ref = _shape_signature(cert.shapes)
        for j in range(1, samples_per_interval + 1):
            u = lo + (hi - lo) * Q(j, samples_per_interval + 1)
            if u == lo or u == hi:
                continue
            xu, su = plan.point_at(u)
            if _shape_signature(_six_shapes(cfg, xu, su)) != ref:
                raise InternalFault(
                    f"filtration shapes not constant on ({lo}, {hi}) at t = {u}",
                    where="apartment.verify_plan",
                )
    for k, t in enumerate(ts):
        xb, sb = plan.point_at(t)
        neighbors = []
        if k > 0:
            neighbors.append(plan.intervals[k - 1].sample)
        if k < len(ts) - 1:
            neighbors.append(plan.intervals[k].sample)
        for u in neighbors:
            yu, tu = plan.point_at(u)
            if not all(
                inclusion_chain_ok(cfg, xb, level_x, yu, level_y)
                for level_x, level_y in ((Q(0), Q(0)), (sb, tu), (-sb, -tu))
            ):
                raise InternalFault(
                    f"inclusion chains fail at breakpoint t = {t} against t = {u}",
                    where="apartment.verify_plan",
                )


def convexity_check(
    cfg: GroupConfig,
    x0: ApartmentPoint,
    s0: Q | int | str,
    x1: ApartmentPoint,
    s1: Q | int | str,
    t: Q | int | str,
) -> bool:
    """Whether g_{x0>=s0} intersect g_{x1>=s1} lies inside g_{x_t>=s_t}."""
    s0, s1, t = Q(s0), Q(s1), Q(t)
    if not (0 <= t <= 1):
        raise ValidationError("t must lie in [0, 1]", where="apartment.convexity_check")
    check_point(cfg, x0, where="apartment.convexity_check")
    check_point(cfg, x1, where="apartment.convexity_check")
    v0 = mp_lattice(cfg, x0, s0, _checked=True).bounds
    v1 = mp_lattice(cfg, x1, s1, _checked=True).bounds
    xt = ApartmentPoint(tuple((1 - t) * a + t * b for a, b in zip(x0.coords, x1.coords)))
    stt = (1 - t) * s0 + t * s1
    vt = mp_lattice(cfg, xt, stt, _checked=True).bounds
    return all(
        max(v0[i][j], v1[i][j]) >= vt[i][j] for i in range(cfg.n) for j in range(cfg.n)
    )
