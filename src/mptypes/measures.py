"""Finite-truncation counting realizations of nilpotent orbital measures.

The measure of a compact open coset against an orbit O is realized at
truncation level K as

    mu_O(coset) = #{residues mod t^K L meeting O} / q^(K * dim O),

an exact rational.  The reference lattice L defaults to the strict
lattice of the pair (single-pair contexts) or the entrywise-max strict
lattice of a probe family; relation verification uses the coarse
non-strict lattice, which every relevant unipotent conjugator
stabilizes, so additivity and B-term symmetry hold to exact equality.

Membership of a residue ball in an orbit is decided by a ladder:

  1. zero orbit: the ball contains 0 iff the residue is 0;
  2. n <= 2: exact solvability of trace = det = 0 over the entry balls,
     reduced to ultrametric ball arithmetic (valuations, leading
     coefficients and quadratic-residue classes);
  3. a graded rank bound: every coset element Z satisfies
     rank(Z^k) >= rank(A^k) for the coefficient matrix A of the pair,
     because the filtration-leading term of a minor is the minor of the
     leading terms whenever the latter is nonzero - this certifies
     impossibility;
  4. for n = 3 and the regular orbit, ball-meets-nilpotent-cone: any
     nilpotent in the open ball can be perturbed inside the ball to a
     regular one, so an exact nilpotent witness decides positively and
     a valuation obstruction on a characteristic-polynomial
     coefficient decides negatively;
  5. otherwise a bounded structured/randomized witness search; failure
     is an explicit undecided status, never a silent boolean.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .apartment import GroupConfig, mp_lattice
from .errors import InfeasibleError, InternalFault, UndecidedError, ValidationError
from .graded import coefficient_matrix, homogeneous_lift
from .laurent import Laurent, LMatrix
from .orbits import OrbitLabel, dominance_leq, jordan_type
from .refine import DMPPair, RelationRecord
from . import gf

Q = Fraction

__all__ = [
    "ProbeSet",
    "MeasureTable",
    "residue_membership",
    "count_measure",
    "build_measure_table",
    "independence_check",
    "measure_vector",
    "relation_lattice",
    "shared_lattice",
    "merged_residue_dim",
    "clear_count_cache",
]

Series = Tuple[Tuple[int, int], ...]  # sorted (exponent, coeff != 0)

_INF = 10**9


# ---------------------------------------------------------------------------
# series helpers (plain ints; the counting hot path avoids objects)
# ---------------------------------------------------------------------------


def _ser_val(s: Series) -> Optional[int]:
    return s[0][0] if s else None


def _ser_neg(s: Series, q: int) -> Series:
    return tuple((e, (-c) % q) for e, c in s)


def _ser_add(a: Series, b: Series, q: int) -> Series:
    d = dict(a)
    for e, c in b:
        v = (d.get(e, 0) + c) % q
        if v:
            d[e] = v
        elif e in d:
            del d[e]
    return tuple(sorted(d.items()))


def _ser_trunc(s: Series, bound: int) -> Series:
    return tuple((e, c) for e, c in s if e < bound)


def _ser_mul_trunc(a: Series, b: Series, bound: int, q: int) -> Series:
    d: Dict[int, int] = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            if e >= bound:
                continue
            v = (d.get(e, 0) + c1 * c2) % q
            if v:
                d[e] = v
            elif e in d:
                del d[e]
    return tuple(sorted(d.items()))


def _ser_eq_below(a: Series, b: Series, bound: int, q: int) -> bool:
    return _ser_trunc(_ser_add(a, _ser_neg(b, q), q), bound) == ()


def _ball_intersect(
    a: Series, ea: int, b: Series, eb: int, q: int
) -> Optional[Tuple[Series, int]]:
    """Intersection of balls a + t^ea O and b + t^eb O, or None.

    Nonempty iff the centers agree below min(ea, eb); the intersection
    is then the deeper ball, with center formed from a below ea and b
    on [ea, eb) when eb > ea.
    """
    lo = min(ea, eb)
    if not _ser_eq_below(a, b, lo, q):
        return None
    hi = max(ea, eb)
    if ea >= eb:
        return _ser_trunc(a, hi), hi
    center = _ser_add(_ser_trunc(a, ea), tuple((e, c) for e, c in b if ea <= e < eb), q)
    return center, hi


def _meets_nilcone_2x2(
    q: int, qr: frozenset, u: Series, eu: int, v: Series, ev: int, w: Series, ew: int
) -> bool:
    """Whether u'^2 + v'w' = 0 is solvable over the three given balls.

    All value sets are computed exactly: squares of a ball missing 0
    form a ball, squares of t^e O are the elements of even valuation
    >= 2e with square leading coefficient, and products of balls are
    balls or full balls t^r O.
    """
    vu, vv, vw = _ser_val(u), _ser_val(v), _ser_val(w)
    if vv is None and vw is None:
        prod_full, rho = True, ev + ew
    elif vv is None:
        prod_full, rho = True, ev + vw
    elif vw is None:
        prod_full, rho = True, vv + ew
    else:
        prod_full = False
        rho = min(vv + ew, vw + ev)
        z0 = _ser_neg(_ser_mul_trunc(v, w, rho, q), q)
    if vu is not None:
        r_s = vu + eu
        s0 = _ser_mul_trunc(u, u, r_s, q)
        if prod_full:
            return 2 * vu >= rho
        return _ser_eq_below(s0, z0, min(r_s, rho), q)
    if prod_full:
        return True
    v0 = _ser_val(z0)
    return v0 % 2 == 0 and v0 >= 2 * eu and z0[0][1] in qr


# ---------------------------------------------------------------------------
# pair / lattice layout
# ---------------------------------------------------------------------------


def pair_strict_bounds(cfg: GroupConfig, pair: DMPPair) -> Tuple[Tuple[int, ...], ...]:
    return mp_lattice(cfg, pair.x, -pair.s, strict=True, _checked=True).bounds


def shared_lattice(cfg: GroupConfig, pairs: Sequence[DMPPair]) -> Tuple[Tuple[int, ...], ...]:
    """Entrywise max of the probes' non-strict bounds.

    Strict and non-strict bounds differ by at most one, so t^K L lies
    inside every probed strict lattice for all K >= 1, while the
    residue spaces stay one layer per level of K.
    """
    if not pairs:
        raise ValidationError("no pairs supplied", where="measures.shared_lattice")
    mats = [
        mp_lattice(cfg, p.x, -p.s, strict=False, _checked=True).bounds for p in pairs
    ]
    n = cfg.n
    return tuple(
        tuple(max(m[i][j] for m in mats) for j in range(n)) for i in range(n)
    )


def relation_lattice(cfg: GroupConfig, rec: RelationRecord) -> Tuple[Tuple[int, ...], ...]:
    """Reference lattice for verifying a relation: the coarse non-strict
    lattice, which the unipotent conjugators behind the B-count stabilize."""
    return mp_lattice(cfg, rec.lhs.x, -rec.lhs.s, strict=False, _checked=True).bounds


def _validate_lattice(
    cfg: GroupConfig, pair: DMPPair, K: int, lam: Tuple[Tuple[int, ...], ...]
) -> None:
    if K < 1:
        raise ValidationError("truncation K must be >= 1", where="measures")
    strict = pair_strict_bounds(cfg, pair)
    for i in range(cfg.n):
        for j in range(cfg.n):
            if K + lam[i][j] < strict[i][j]:
                raise ValidationError(
                    f"t^K L is not inside the strict lattice at entry ({i},{j})",
                    where="measures",
                )


def _entry_layout(cfg: GroupConfig, pair: DMPPair, K: int, lam):
    """Per entry: (base series from the lift, strict bound b, ball depth E)."""
    lift = homogeneous_lift(cfg, pair.phi).mat
    strict = pair_strict_bounds(cfg, pair)
    layout = []
    for i in range(cfg.n):
        row = []
        for j in range(cfg.n):
            e = lift.entry(i, j)
            base: Series = tuple(e.coeffs)
            row.append((base, strict[i][j], K + lam[i][j]))
        layout.append(row)
    return layout


# ---------------------------------------------------------------------------
# membership ladder
# ---------------------------------------------------------------------------


def _residue_is_zero(y: Sequence[Sequence[Series]], depths) -> bool:
    return all(
        _ser_trunc(y[i][j], depths[i][j]) == ()
        for i in range(len(y))
        for j in range(len(y))
    )


def _membership_n2(cfg: GroupConfig, y, depths) -> bool:
    q = cfg.q
    if q == 2:
        raise InfeasibleError(
            "the 2x2 ball analysis requires odd q", where="measures.residue_membership"
        )
    qr = frozenset((a * a) % q for a in range(1, q))
    merged = _ball_intersect(
        y[0][0], depths[0][0], _ser_neg(y[1][1], q), depths[1][1], q
    )
    if merged is None:
        return False  # trace obstruction
    u, eu = merged
    return _meets_nilcone_2x2(
        q, qr, u, eu, y[0][1], depths[0][1], y[1][0], depths[1][0]
    )


def _rank_bound_excludes(cfg: GroupConfig, orbit: OrbitLabel, pair: DMPPair) -> bool:
    a = coefficient_matrix(cfg, pair.phi)
    field = gf.prime_field(cfg.q)
    p = gf.identity(cfg.n)
    for k in range(1, cfg.n + 1):
        p = gf.mat_mul(p, a, field)
        if orbit.rank_at(k) < gf.rank(p, field):
            return True
    return False


def _ball_matrix(cfg: GroupConfig, y, depths, extra) -> LMatrix:
    rows = []
    for i in range(cfg.n):
        row = []
        for j in range(cfg.n):
            ser = _ser_add(y[i][j], extra.get((i, j), ()), cfg.q)
            row.append(Laurent(cfg.q, ser))
        rows.append(row)
    return LMatrix.from_rows(cfg.q, rows)


def _witness_search(
    cfg: GroupConfig,
    orbit: Optional[OrbitLabel],
    y,
    depths,
    seed: int = 0,
    random_tries: int = 120,
) -> bool:
    """Look for an exact element of the ball in the orbit.

    orbit=None asks only for a nilpotent (the full-cone question).
    Structured candidates cover single monomials at the ball floor and
    pairs of them; random draws perturb a couple of layers deeper.
    """
    n, q = cfg.n, cfg.q

    def hits(extra) -> bool:
        m = _ball_matrix(cfg, y, depths, extra)
        if orbit is None:
            return m.is_nilpotent()
        return m.is_nilpotent() and jordan_type(m) == orbit

    if hits({}):
        return True
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    singles = []
    for (i, j) in offdiag:
        for c in (1, q - 1, 2 % q):
            if c:
                singles.append(((i, j), ((depths[i][j], c),)))
    for pos, ser in singles:
        if hits({pos: ser}):
            return True
    for (p1, s1), (p2, s2) in itertools.combinations(singles, 2):
        if p1 == p2:
            continue
        if hits({p1: s1, p2: s2}):
            return True
    rng = random.Random(f"measures:{seed}")
    for _ in range(random_tries):
        extra = {}
        for (i, j) in itertools.product(range(n), range(n)):
            ser = tuple(
                (depths[i][j] + d, c)
                for d, c in enumerate([rng.randrange(q) for _ in range(2)])
                if c
            )
            if ser:
                extra[(i, j)] = ser
        if hits(extra):
            return True
    return False


def _charpoly_obstruction(cfg: GroupConfig, y, depths) -> bool:
    """True when some char-poly coefficient cannot vanish over the ball.

    For each k, every perturbation term in c_k(Y + delta) has valuation
    at least the best generalized-diagonal bound with one entry moved
    into the ball lattice; if c_k(Y) sits strictly below that bound the
    coefficient never vanishes.
    """
    n, q = cfg.n, cfg.q
    mat = _ball_matrix(cfg, y, depths, {})
    cp = mat.charpoly()
    for k in range(1, n + 1):
        ck = cp[k]
        if ck.is_zero():
            continue
        best = _INF
        for rows in itertools.combinations(range(n), k):
            for perm in itertools.permutations(rows):
                vals = []
                gains = []
                total = 0
                ok = True
                for i, j in zip(rows, perm):
                    e = mat.entry(i, j)
                    v = e.val() if not e.is_zero() else _INF
                    d = depths[i][j]
                    if v == _INF:
                        total += d  # forced into the ball lattice
                        gains.append(0)
                    else:
                        total += v
                        gains.append(d - v)
                if all(g > 0 for g in gains):
                    # all entries took Y-values; one must move into the ball
                    total += min(gains)
                best = min(best, total)
        if ck.val() < best:
            return True
    return False


def residue_membership(
    cfg: GroupConfig,
    orbit: OrbitLabel,
    pair: DMPPair,
    K: int,
    residue: LMatrix,
    lam: Optional[Tuple[Tuple[int, ...], ...]] = None,
    seed: int = 0,
) -> bool:
    """Whether the residue ball meets the orbit inside the pair's coset."""
    if orbit.n != cfg.n:
        raise ValidationError("orbit size mismatch", where="measures.residue_membership")
    lam = pair_strict_bounds(cfg, pair) if lam is None else lam
    _validate_lattice(cfg, pair, K, lam)
    layout = _entry_layout(cfg, pair, K, lam)
    n = cfg.n
    depths = [[layout[i][j][2] for j in range(n)] for i in range(n)]
    y: List[List[Series]] = []
    for i in range(n):
        row = []
        for j in range(n):
            base, b, e = layout[i][j]
            ser = _ser_trunc(tuple(residue.entry(i, j).coeffs), e)
            if not _ser_eq_below(ser, base, b, cfg.q):
                raise ValidationError(
                    f"residue entry ({i},{j}) does not lie in the coset",
                    where="measures.residue_membership",
                )
            row.append(ser)
        y.append(row)
    return _membership_decide(cfg, orbit, pair, y, depths, seed)


def _membership_decide(cfg, orbit, pair, y, depths, seed=0) -> bool:
    if all(p == 1 for p in orbit.parts):
        return _residue_is_zero(y, depths)
    if cfg.n <= 2:
        return _membership_n2(cfg, y, depths)
    if _rank_bound_excludes(cfg, orbit, pair):
        return False
    if cfg.n == 3 and orbit == OrbitLabel.regular(3):
        # ball meets the regular orbit iff it meets the nilpotent cone:
        # a nilpotent witness can always be pushed to a regular one
        # without leaving the open ball
        if _witness_search(cfg, None, y, depths, seed=seed):
            return True
        if _charpoly_obstruction(cfg, y, depths):
            return False
        raise UndecidedError(
            f"membership of {orbit} undecided for {pair.describe()}",
            where="measures.residue_membership",
        )
    if _witness_search(cfg, orbit, y, depths, seed=seed):
        return True
    raise UndecidedError(
        f"membership of {orbit} undecided for {pair.describe()} within bounds",
        where="measures.residue_membership",
    )


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

_COUNT_CACHE: Dict[tuple, Q] = {}


def clear_count_cache() -> None:
    _COUNT_CACHE.clear()


def count_measure(
    cfg: GroupConfig,
    orbit: OrbitLabel,
    pair: DMPPair,
    K: int,
    lam: Optional[Tuple[Tuple[int, ...], ...]] = None,
    enum_bound: int = 10**6,
) -> Q:
    """Exact counting measure of the pair's coset against the orbit.

    Zero iff the orbit misses the coset; additive over any subcoset
    partition at fixed (K, L).  An undecided membership poisons the
    whole count (raised, never approximated).
    """
    if orbit.n != cfg.n:
        raise ValidationError("orbit size mismatch", where="measures.count_measure")
    lam = pair_strict_bounds(cfg, pair) if lam is None else lam
    key = (cfg.n, cfg.q, orbit.parts, pair, K, lam)
    if key in _COUNT_CACHE:
        return _COUNT_CACHE[key]
    _validate_lattice(cfg, pair, K, lam)

    norm = Q(1, cfg.q ** (K * orbit.dim))
    if all(p == 1 for p in orbit.parts):
        # the zero orbit meets the coset iff phi = 0, in exactly one residue
        value = Q(1) if pair.phi.is_zero() else Q(0)
        _COUNT_CACHE[key] = value
        return value

    if cfg.n == 2:
        passing = _count_n2(cfg, pair, K, lam, enum_bound)
    else:
        passing = _count_generic(cfg, orbit, pair, K, lam, enum_bound)
    value = passing * norm
    _COUNT_CACHE[key] = value
    return value


def merged_residue_dim(cfg: GroupConfig, pair: DMPPair, K: int, lam) -> int:
    """log_q of the residue count the n=2 enumeration walks (cost probe)."""
    if cfg.n != 2:
        raise ValidationError("n = 2 only", where="measures.merged_residue_dim")
    layout = _entry_layout(cfg, pair, K, lam)
    (b11, s11, e11), (b12, s12, e12) = layout[0][0], layout[0][1]
    (b21, s21, e21), (b22, s22, e22) = layout[1][0], layout[1][1]
    merged = _ball_intersect(b11, s11, _ser_neg(b22, cfg.q), s22, cfg.q)
    if merged is None:
        return 0
    _, u_floor = merged
    return (max(e11, e22) - u_floor) + (e12 - s12) + (e21 - s21)


def _count_n2(cfg: GroupConfig, pair: DMPPair, K: int, lam, enum_bound: int) -> int:
    """Passing residues for the 2x2 nonzero nilpotent orbit.

    The trace equation is solved symbolically: feasible diagonal pairs
    correspond bijectively to residues of the merged ball
    (y11-coset) cap (-y22-coset), so the enumeration runs over merged
    diagonal data and the two off-diagonal entries only.
    """
    q = cfg.q
    if q == 2:
        raise InfeasibleError("counting requires odd q", where="measures.count_measure")
    qr = frozenset((a * a) % q for a in range(1, q))
    layout = _entry_layout(cfg, pair, K, lam)
    (b11, s11, e11), (b12, s12, e12) = layout[0][0], layout[0][1]
    (b21, s21, e21), (b22, s22, e22) = layout[1][0], layout[1][1]

    merged = _ball_intersect(b11, s11, _ser_neg(b22, q), s22, q)
    if merged is None:
        return 0  # the trace never vanishes on the coset
    u_center, u_floor = merged
    eu = max(e11, e22)

    du = eu - u_floor
    dv = e12 - s12
    dw = e21 - s21
    if q ** (du + dv + dw) > enum_bound:
        raise InfeasibleError(
            f"{q}^{du + dv + dw} merged residues exceed bound {enum_bound}",
            where="measures.count_measure",
        )

    u_exps = list(range(u_floor, eu))
    v_exps = list(range(s12, e12))
    w_exps = list(range(s21, e21))

    def variants(center: Series, exps: List[int]) -> List[Series]:
        out = []
        for combo in itertools.product(range(q), repeat=len(exps)):
            extra = tuple((e, c) for e, c in zip(exps, combo) if c)
            out.append(_ser_add(center, extra, q))
        return out

    v_list = variants(b12, v_exps)
    w_list = variants(b21, w_exps)
    count = 0
    for combo in itertools.product(range(q), repeat=len(u_exps)):
        extra = tuple((e, c) for e, c in zip(u_exps, combo) if c)
        u = _ser_add(u_center, extra, q)
        for v in v_list:
            for w in w_list:
                if _meets_nilcone_2x2(q, qr, u, eu, v, e12, w, e21):
                    count += 1
    return count


def _count_generic(
    cfg: GroupConfig, orbit: OrbitLabel, pair: DMPPair, K: int, lam, enum_bound: int
) -> int:
    layout = _entry_layout(cfg, pair, K, lam)
    n, q = cfg.n, cfg.q
    slots = []
    for i in range(n):
        for j in range(n):
            base, b, e = layout[i][j]
            for w in range(b, e):
                slots.append((i, j, w))
    if q ** len(slots) > enum_bound:
        raise InfeasibleError(
            f"{q}^{len(slots)} residues exceed the enumeration bound {enum_bound}",
            where="measures.count_measure",
        )
    depths = [[layout[i][j][2] for j in range(n)] for i in range(n)]
    count = 0
    for combo in itertools.product(range(q), repeat=len(slots)):
        grid: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (i, j, w), c in zip(slots, combo):
            if c:
                grid.setdefault((i, j), {})[w] = c
        y = []
        for i in range(n):
            row = []
            for j in range(n):
                extra = tuple(sorted(grid.get((i, j), {}).items()))
                row.append(_ser_add(layout[i][j][0], extra, q))
            y.append(row)
        if _membership_decide(cfg, orbit, pair, y, depths):
            count += 1
    return count


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeSet:
    probes: Tuple[DMPPair, ...]
    K: int
    lam: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def make(
        cfg: GroupConfig,
        probes: Sequence[DMPPair],
        K: int,
        lam: Optional[Tuple[Tuple[int, ...], ...]] = None,
    ) -> "ProbeSet":
        lam = shared_lattice(cfg, probes) if lam is None else lam
        ps = ProbeSet(probes=tuple(probes), K=K, lam=lam)
        for p in ps.probes:
            _validate_lattice(cfg, p, K, lam)
        return ps


@dataclass(frozen=True)
class MeasureTable:
    orbits: Tuple[OrbitLabel, ...]
    probes: Tuple[DMPPair, ...]
    K: int
    lam: Tuple[Tuple[int, ...], ...]
    normalization: str
    entries: Tuple[Tuple[Q, ...], ...]  # rows: probes, cols: orbits

    def entry(self, orbit: OrbitLabel, probe: DMPPair) -> Q:
        return self.entries[self.probes.index(probe)][self.orbits.index(orbit)]

    def slice_for(self, orbit: OrbitLabel) -> Dict[DMPPair, Q]:
        j = self.orbits.index(orbit)
        return {p: self.entries[i][j] for i, p in enumerate(self.probes)}


def build_measure_table(
    cfg: GroupConfig,
    probes: ProbeSet,
    orbits: Sequence[OrbitLabel],
    enum_bound: int = 10**6,
) -> MeasureTable:
    """Full table of counting measures with the triangularity contract.

    Entry (probe, orbit) must be nonzero exactly when the orbit
    dominates the probe's lift; a violation is an internal fault (it
    would falsify the triangularity of the measure vectors under this
    normalization).
    """
    rows = []
    for p in probes.probes:
        row = []
        for o in orbits:
            val = count_measure(cfg, o, p, probes.K, probes.lam, enum_bound=enum_bound)
            expected_nonzero = dominance_leq(p.lift, o)
            if (val != 0) != expected_nonzero:
                raise InternalFault(
                    f"triangularity violated at orbit {o}, probe {p.describe()}: "
                    f"value {val}",
                    where="measures.build_measure_table",
                )
            row.append(val)
        rows.append(tuple(row))
    norm = f"counting-density: passing/q^(K*dimO), K={probes.K}"
    return MeasureTable(
        orbits=tuple(orbits),
        probes=probes.probes,
        K=probes.K,
        lam=probes.lam,
        normalization=norm,
        entries=tuple(rows),
    )


def independence_check(table: MeasureTable) -> bool:
    """Rows linearly independent over Q (square tables only)."""
    k = len(table.probes)
    if k != len(table.orbits):
        raise ValidationError(
            "independence check needs a square table", where="measures.independence_check"
        )
    rows = [list(r) for r in table.entries]
    rank = 0
    for col in range(k):
        piv = next((i for i in range(rank, k) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(k):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank == k


def measure_vector(
    cfg: GroupConfig,
    orbit: OrbitLabel,
    pairs: Iterable[DMPPair],
    K: int,
    lam: Tuple[Tuple[int, ...], ...],
    enum_bound: int = 10**6,
) -> Dict[DMPPair, Q]:
    """Counting measures of one orbit over several pairs at shared (K, L)."""
    return {
        p: count_measure(cfg, orbit, p, K, lam, enum_bound=enum_bound) for p in pairs
    }
