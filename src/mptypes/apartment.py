"""Standard-apartment model for GL_n over F_q((t)).

A point x = (x_1, ..., x_n) of the reduced apartment is normalized so
that x_n = 0.  The degree of a matrix monomial is

    deg(t^w e_ij) = w + x_i - x_j,

and every filtration object here is a matrix of integer valuation
bounds: entry (i, j) of the lattice at level s consists of all a * t^w
with w >= bound_ij.  All arithmetic is exact, never floating point:
the coordinates and the level are scaled to integers over their common
denominator d, so each bound is one integer floor division by d, and a
geodesic is scaled once, so the points along it, its breakpoint
crossings and the checks of its certificate stay on integers.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import gcd, lcm
from operator import ge, lt
from typing import Dict, List, Sequence, Tuple

from .errors import InternalFault, ValidationError
from .gf import is_prime
from .record import record

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


@record
class GroupConfig:
    """Ambient group GL_n over F_q((t)) with denominator bound m.

    The large-residue-characteristic hypothesis this machinery is
    usually stated under reads q >= max(n, 271).  Desk-scale runs sit
    far below it; they are permitted (all algorithms implemented here
    are characteristic-free type-A linear algebra) but flagged once.
    """

    n: int
    q: int
    m: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1", where="apartment.GroupConfig")
        if not is_prime(self.q):
            raise ValidationError(f"q = {self.q} is not prime", where="apartment.GroupConfig")
        if self.m < 1:
            raise ValidationError("m must be >= 1", where="apartment.GroupConfig")
        if not self.hypothesis_ok:
            warnings.warn(
                f"q = {self.q} is below max(n, 271) = {max(self.n, 271)}; "
                "running outside the large-p regime",
                stacklevel=3,  # past `record`'s __init__, at the line that built the config
            )

    @property
    def hypothesis_ok(self) -> bool:
        return self.q >= max(self.n, 271)


@record
class ApartmentPoint:
    """Rational point of the reduced standard apartment (x_n = 0)."""

    coords: Tuple[Q, ...]

    @staticmethod
    def of(coords: Sequence[Q | int | str]) -> "ApartmentPoint":
        cs = tuple(c if type(c) is Q else Q(c) for c in coords)
        if not cs:
            raise ValidationError("empty coordinate list", where="apartment.ApartmentPoint")
        last = cs[-1]
        return ApartmentPoint(tuple(c - last for c in cs) if last else cs)

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

    def __str__(self) -> str:
        """The coordinates as messages print them, e.g. (1/4,0)."""
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def check_point(cfg: GroupConfig, x: ApartmentPoint, *, where: str) -> None:
    if x.n != cfg.n:
        raise ValidationError(f"point has {x.n} coordinates, expected {cfg.n}", where=where)
    for c in x.coords:
        if cfg.m % c.denominator:
            raise ValidationError(
                f"coordinate {c} has denominator not dividing m = {cfg.m}", where=where
            )


def check_level(cfg: GroupConfig, s: Q, *, where: str) -> None:
    s = s if type(s) is Q else Q(s)
    if cfg.m % s.denominator:
        raise ValidationError(
            f"level {s} has denominator not dividing m = {cfg.m}", where=where
        )


@record
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


Bounds = Tuple[Tuple[int, ...], ...]


def _scale(coords: Sequence[Q], *levels: Q) -> Tuple[int, List[int], List[int]]:
    """The lcm d of every denominator, and the coordinates and levels times d."""
    d = lcm(*(c.denominator for c in coords), *(v.denominator for v in levels))
    return (
        d,
        [c.numerator * (d // c.denominator) for c in coords],
        [v.numerator * (d // v.denominator) for v in levels],
    )


def _bounds(X: Sequence[int], S: int, d: int, strict: bool) -> Bounds:
    """The bound matrix at (x, s) = (X / d, S / d).

    Entry (i, j) is ceil((S + X_j - X_i) / d), or floor(...) + 1 when
    strict, each one exact floor division.
    """
    if strict:
        return tuple(tuple([(S - xi + xj) // d + 1 for xj in X]) for xi in X)
    return tuple(tuple([-((xi - S - xj) // d) for xj in X]) for xi in X)


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
    s = s if type(s) is Q else Q(s)
    if not _checked:
        check_point(cfg, x, where="apartment.mp_lattice")
        check_level(cfg, s, where="apartment.mp_lattice")
    d, X, (S,) = _scale(x.coords, s)
    return LatticeShape(bounds=_bounds(X, S, d, strict), x=x, s=s, strict=strict)


@record
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


def graded_support(
    cfg: GroupConfig, x: ApartmentPoint, degree: Q | int | str, *, _checked: bool = False
) -> GradedSupport:
    degree = degree if type(degree) is Q else Q(degree)
    if not _checked:
        check_point(cfg, x, where="apartment.graded_support")
        check_level(cfg, degree, where="apartment.graded_support")
    d, X, (D,) = _scale(x.coords, degree)
    entries = []
    for i, xi in enumerate(X):
        for j, xj in enumerate(X):
            w, r = divmod(D - xi + xj, d)
            if not r:
                entries.append(((i, j), w))
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


@record
class IntervalCertificate:
    sample: Q
    x: ApartmentPoint  # the path point and level at the sample
    s: Q
    six: Tuple[int, ...]  # `_six_flat` at (x, s): the six constancy witnesses


@record
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


# (level sign, strict) of the six constancy witnesses, in certificate order
_WITNESSES = ((0, False), (0, True), (1, False), (1, True), (-1, False), (-1, True))


def _six_flat(X: Sequence[int], S: int, d: int) -> Tuple[int, ...]:
    """Bound matrices at x = X / d for levels 0, s and -s (s = S / d), each
    non-strict then strict, row-major in one flat tuple of 6 n^2 ints: with
    v = X_j - X_i, entry (i, j) at level L / d is ceil((L + v) / d), or
    floor((L + v) / d) + 1 when strict."""
    D = [xj - xi for xi in X for xj in X]
    return tuple(
        [-(-v // d) for v in D]
        + [v // d + 1 for v in D]
        + [-((-S - v) // d) for v in D]
        + [(S + v) // d + 1 for v in D]
        + [-((S - v) // d) for v in D]
        + [(v - S) // d + 1 for v in D]
    )


def _chain_ok(x: Sequence[int], y: Sequence[int], i: int, j: int, k: int) -> bool:
    """L_{x>} <= L_{y>} <= L_{y>=} <= L_{x>=}, where x[i:j] and y[i:j] are
    flat non-strict bound matrices and x[j:k] and y[j:k] the strict ones;
    a larger bound is a smaller lattice.  The middle link always holds,
    since floor(v) + 1 >= ceil(v), so only the outer two are compared."""
    return all(map(ge, x[j:k], y[j:k])) and all(map(ge, y[i:j], x[i:j]))


def _chains_ok(at_t: Sequence[int], at_u: Sequence[int], N: int) -> bool:
    """`_chain_ok` of two `_six_flat` tuples (N = n^2) at levels (0, 0) and (s_t, tau_u)."""
    return all(_chain_ok(at_t, at_u, v, v + N, v + 2 * N) for v in (0, 2 * N))


def inclusion_chain_ok(
    cfg: GroupConfig, x: ApartmentPoint, level_x: Q, y: ApartmentPoint, level_y: Q
) -> bool:
    """L_{x>level_x} <= L_{y>level_y} <= L_{y>=level_y} <= L_{x>=level_x}.

    For GL_n every lattice in the chain is a bound matrix, so the chain
    is entrywise comparisons, and its middle link always holds
    (`_chain_ok`).  The chain at (-level_x, -level_y) holds exactly when
    this one does: entry (i, j) of a bound matrix at level -s is 1 minus
    entry (j, i) at level s with strictness swapped.
    """
    dx, X, (Lx,) = _scale(x.coords, level_x)
    dy, Y, (Ly,) = _scale(y.coords, level_y)
    N = len(X) * len(X)
    return _chain_ok(_six_flat(X, Lx, dx), _six_flat(Y, Ly, dy), 2 * N, 3 * N, 4 * N)


class _Geodesic:
    """The path (x_t, s_t) from (x0, s0) to (x1, s1), scaled once.

    Over the common denominator d of both endpoints, X = d x and S = d s
    are integers, and the point at t = a / b is ((b - a) X0 + a X1) / (b d)
    with level ((b - a) S0 + a S1) / (b d); a / b need not be reduced.
    """

    def __init__(self, x0: ApartmentPoint, s0: Q, x1: ApartmentPoint, s1: Q):
        n = len(x0.coords)
        self.d, X, (self.S0, self.S1) = _scale(x0.coords + x1.coords, s0, s1)
        self.X0, self.X1 = X[:n], X[n:]

    def at(self, a: int, b: int) -> Tuple[List[int], int, int]:
        """Scaled coordinates, scaled level and denominator at t = a / b."""
        c = b - a
        X = [c * u + a * v for u, v in zip(self.X0, self.X1)]
        return X, c * self.S0 + a * self.S1, b * self.d

    def six(self, a: int, b: int) -> Tuple[int, ...]:
        """The six witness matrices at t = a / b, flat (`_six_flat`)."""
        return _six_flat(*self.at(a, b))


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
    monomial pinned to the level and produce no breakpoint.  Only the
    levels s_t and 0 are scanned: the level -s_t root of (i, j, w) is
    the level s_t root of (j, i, -w), since w + alpha_ij + s_t = 0 iff
    -w + alpha_ji - s_t = 0, and (i, j) runs over every pair.  The plan
    certifies interval constancy and the breakpoint inclusion chains,
    raising an internal fault if either fails.
    """
    s0, s1 = Q(s0), Q(s1)
    check_point(cfg, x0, where="apartment.breakpoints")
    check_point(cfg, x1, where="apartment.breakpoints")
    check_level(cfg, s0, where="apartment.breakpoints")
    check_level(cfg, s1, where="apartment.breakpoints")

    path = _Geodesic(x0, s0, x1, s1)
    d, X0, X1 = path.d, path.X0, path.X1
    cuts = {(0, 1), (1, 1)}  # t = a / b as reduced pairs with b > 0
    for i in range(cfg.n):
        for j in range(cfg.n):
            alpha0, alpha1 = X0[i] - X0[j], X1[i] - X1[j]
            for lev0, lev1 in ((path.S0, path.S1), (0, 0)):
                # times d, w + alpha_t - lev_t is w d + b0 + t (b1 - b0)
                b0, b1 = alpha0 - lev0, alpha1 - lev1
                if b0 == b1:
                    continue  # constant (possibly identically zero): no crossing
                # the root t = (w d + b0) / (b0 - b1) lies in [0, 1]
                # exactly when w d lies between -b0 and -b1
                lo, hi = min(-b0, -b1), max(-b0, -b1)
                sign = 1 if b0 > b1 else -1
                for w in range(-(-lo // d), hi // d + 1):
                    g = sign * gcd(w * d + b0, b0 - b1)  # has the sign of b0 - b1
                    cuts.add(((w * d + b0) // g, (b0 - b1) // g))
    L = lcm(*(b for _, b in cuts))
    T = sorted(a * (L // b) for a, b in cuts)  # the cuts over L
    intervals = []
    for lo, hi in zip(T, T[1:]):
        # the sample (lo + hi) / 2L: one Fraction per coordinate and level
        X, S, D = path.at(lo + hi, 2 * L)
        x = ApartmentPoint(tuple(Q(c, D) for c in X))
        intervals.append(IntervalCertificate(Q(lo + hi, 2 * L), x, Q(S, D), _six_flat(X, S, D)))
    plan = GeodesicPlan(
        x0=x0, s0=s0, x1=x1, s1=s1, ts=tuple(Q(t, L) for t in T), intervals=tuple(intervals)
    )
    verify_plan(cfg, plan)
    return plan


def verify_plan(cfg: GroupConfig, plan: GeodesicPlan) -> None:
    """Re-check coverage, interval constancy and breakpoint chains; fault on failure.

    The breakpoints must rise strictly from 0 to 1, one certificate per
    interval with its sample u strictly inside.  The rest is recomputed on
    integers from the plan's endpoints, not read from the certificate:
    the certificate's point and level must be the path's at u, and its six
    witnesses the ones there.  At each end t of the interval (lo, hi) the
    inclusion chains at levels (0, 0) and (s_t, tau_u) must hold against
    u; the chain at (-s_t, -tau_u) holds exactly when the one at
    (s_t, tau_u) does (`inclusion_chain_ok`), so it is not compared.
    These chains at lo and hi also prove that the witnesses are constant
    on (lo, hi).  Each witness entry is ceil g, or floor g + 1 when
    strict, for a g affine in t, and the chain at t says
    floor g(u) <= floor g(t) and ceil g(t) <= ceil g(u): g(lo) and g(hi)
    lie in [floor g(u), ceil g(u)], so g, which on (lo, hi) lies strictly
    between them or is constant, has the same ceil and floor there as at u.
    """
    ts, certs, where = plan.ts, plan.intervals, "apartment.verify_plan"
    if not ts or ts[0] != 0 or ts[-1] != 1 or not all(map(lt, ts, ts[1:])):
        raise InternalFault("breakpoints do not rise strictly from 0 to 1", where=where)
    if len(certs) != len(ts) - 1:
        raise InternalFault(f"{len(certs)} certificates for {len(ts) - 1} intervals", where=where)
    path = _Geodesic(plan.x0, plan.s0, plan.x1, plan.s1)
    N = cfg.n * cfg.n
    at_t = [path.six(t.numerator, t.denominator) for t in ts]
    for k, cert in enumerate(certs):
        lo, hi, u = ts[k], ts[k + 1], cert.sample
        if not lo < u < hi:
            raise InternalFault(f"sample {u} not inside ({lo}, {hi})", where=where)
        X, S, D = path.at(u.numerator, u.denominator)
        x, s = cert.x.coords, cert.s
        if len(x) != cfg.n or s.numerator * D != S * s.denominator or any(
            c.numerator * D != v * c.denominator for c, v in zip(x, X)
        ):
            raise InternalFault(
                f"certificate of ({lo}, {hi}) is not at the path point of t = {u}", where=where
            )
        at_u = _six_flat(X, S, D)
        if cert.six != at_u:
            raise InternalFault(
                f"certificate of ({lo}, {hi}) differs from the witnesses at t = {u}", where=where
            )
        for t, at in ((lo, at_t[k]), (hi, at_t[k + 1])):
            if not _chains_ok(at, at_u, N):
                raise InternalFault(
                    f"inclusion chains fail at breakpoint t = {t} against t = {u} in ({lo}, {hi})",
                    where=where,
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
    check_level(cfg, s0, where="apartment.convexity_check")
    check_level(cfg, s1, where="apartment.convexity_check")
    path = _Geodesic(x0, s0, x1, s1)
    v0, v1, vt = (
        _bounds(*path.at(a, b), False)
        for a, b in ((0, 1), (1, 1), (t.numerator, t.denominator))
    )
    return all(
        max(a, b) >= c for r0, r1, rt in zip(v0, v1, vt) for a, b, c in zip(r0, r1, rt)
    )
