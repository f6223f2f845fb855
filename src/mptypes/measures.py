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
     coefficients and quadratic-residue classes); `_meets_nilcone_2x2`
     decides one residue, while the count never tests residues one by
     one: it tallies the square classes of the merged diagonal entry and
     the product classes of the off-diagonal pair, and pairs them;
  3. n >= 3: one closure ladder.  An open ball meets O exactly when it
     meets the closure of O (the orbits <= O in dominance order, i.e.
     the nilpotents with rank X^k <= rank_O(k) for all k), because O(F)
     is t-adically dense in it: for a cover mu < lambda some matrix unit
     E puts J_mu + t^N E in lambda for every N >= 1, so every X of type
     mu is a limit of elements of type lambda.  The rungs:
       a. rank bound: every coset element Z has rank Z^k >= rank A^k
          for the pair's coefficient matrix A (a minor's leading term
          is the minor of the leading terms when that is nonzero), and
          rank_lambda <= rank_mu pointwise iff lambda <= mu, so the ball
          misses O unless the pair's lift is <= O;
       b. cone obstruction: a characteristic-polynomial coefficient that
          cannot vanish over the ball rules out every nonzero orbit;
       c. closure witness: an exact nilpotent of type <= O found in the
          ball by a bounded structured/randomized search decides True;
     anything else is an explicit undecided status, never a silent
     boolean.

Residues are bare `laurent.Series` tuples, added, negated, multiplied
and truncated by `laurent`'s `ser_*` kernels; only the ball-specific
helpers (equality below a depth, ball intersection, the 2x2 cone test
and its square and product classes) live here.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .apartment import GroupConfig, mp_lattice
from .errors import InfeasibleError, InternalFault, UndecidedError, ValidationError
from .graded import homogeneous_lift
from .laurent import Laurent, LMatrix, Series, ser_add, ser_mul, ser_neg, ser_trunc
from .orbits import OrbitLabel, dominance_leq, jordan_type
from .refine import DMPPair, RelationRecord

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

_INF = 10**9


# ---------------------------------------------------------------------------
# ball helpers on bare series (the counting hot path avoids objects)
# ---------------------------------------------------------------------------


def _ser_eq_below(a: Series, b: Series, bound: int, q: int) -> bool:
    return ser_trunc(ser_add(a, ser_neg(b, q), q), bound) == ()


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
        return ser_trunc(a, hi), hi
    center = ser_add(ser_trunc(a, ea), tuple((e, c) for e, c in b if ea <= e < eb), q)
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
    vu, vv, vw = (u[0][0] if u else None), (v[0][0] if v else None), (w[0][0] if w else None)
    if vv is None and vw is None:
        prod_full, rho = True, ev + ew
    elif vv is None:
        prod_full, rho = True, ev + vw
    elif vw is None:
        prod_full, rho = True, vv + ew
    else:
        prod_full = False
        rho = min(vv + ew, vw + ev)
        z0 = ser_neg(ser_mul(v, w, q, rho), q)
    if vu is not None:
        r_s = vu + eu
        s0 = ser_mul(u, u, q, r_s)
        if prod_full:
            return 2 * vu >= rho
        return _ser_eq_below(s0, z0, min(r_s, rho), q)
    if prod_full:
        return True
    v0 = z0[0][0]
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
    """Per-entry grids: base series from the lift, strict bound (the coset
    ball's floor) and residue depth K + lam."""
    lift = homogeneous_lift(cfg, pair.phi).mat
    n = cfg.n
    bases = [[lift.entry(i, j).coeffs for j in range(n)] for i in range(n)]
    depths = [[K + lam[i][j] for j in range(n)] for i in range(n)]
    return bases, pair_strict_bounds(cfg, pair), depths


def _odd_q_squares(q: int, where: str) -> frozenset:
    """Nonzero squares mod q, read by the 2x2 nilpotent-cone test (odd q only)."""
    if q == 2:
        raise InfeasibleError("the 2x2 ball analysis requires odd q", where=where)
    return frozenset((a * a) % q for a in range(1, q))


def _walk_n2(q: int, centers, floors, depths):
    """The three balls the n = 2 cone test runs on, as (center, floor, depth).

    The diagonal pairs with trace 0 match the merged ball
    (c11 + t^f11 O) cap (-c22 + t^f22 O), whose residues run down to
    max(d11, d22); the off-diagonal balls are taken as they are.  None
    when the merged ball is empty: the trace never vanishes.
    """
    merged = _ball_intersect(
        centers[0][0], floors[0][0], ser_neg(centers[1][1], q), floors[1][1], q
    )
    if merged is None:
        return None
    return (
        (merged[0], merged[1], max(depths[0][0], depths[1][1])),
        (centers[0][1], floors[0][1], depths[0][1]),
        (centers[1][0], floors[1][0], depths[1][0]),
    )


# ---------------------------------------------------------------------------
# membership ladder
# ---------------------------------------------------------------------------


def _residue_is_zero(y: Sequence[Sequence[Series]], depths) -> bool:
    return all(
        ser_trunc(y[i][j], depths[i][j]) == ()
        for i in range(len(y))
        for j in range(len(y))
    )


def _membership_n2(cfg: GroupConfig, y, depths) -> bool:
    q = cfg.q
    qr = _odd_q_squares(q, "measures.residue_membership")
    walk = _walk_n2(q, y, depths, depths)
    if walk is None:
        return False  # trace obstruction
    (u, _, eu), (v, _, ev), (w, _, ew) = walk
    return _meets_nilcone_2x2(q, qr, u, eu, v, ev, w, ew)


def _ball_matrix(cfg: GroupConfig, y, depths, extra) -> LMatrix:
    rows = []
    for i in range(cfg.n):
        row = []
        for j in range(cfg.n):
            ser = ser_add(y[i][j], extra.get((i, j), ()), cfg.q)
            row.append(Laurent(cfg.q, ser))
        rows.append(row)
    return LMatrix.from_rows(cfg.q, rows)


def _witness_perturbations(n: int, q: int, depths, seed: int = 0):
    """Perturbations the witness search adds to the ball centre, in order.

    The centre itself, then single monomials at the ball floor and
    pairs of them, then 120 random draws a couple of layers deeper.
    """
    yield {}
    singles = []
    for i, j in itertools.permutations(range(n), 2):
        for c in (1, q - 1, 2 % q):
            if c:
                singles.append(((i, j), ((depths[i][j], c),)))
    for pos, ser in singles:
        yield {pos: ser}
    for (p1, s1), (p2, s2) in itertools.combinations(singles, 2):
        if p1 != p2:
            yield {p1: s1, p2: s2}
    rng = random.Random(f"measures:{seed}")
    for _ in range(120):
        extra = {}
        for (i, j) in itertools.product(range(n), range(n)):
            ser = tuple(
                (depths[i][j] + d, c)
                for d, c in enumerate([rng.randrange(q) for _ in range(2)])
                if c
            )
            if ser:
                extra[(i, j)] = ser
        yield extra


def _witness_search(cfg: GroupConfig, orbit: OrbitLabel, y, depths, seed: int = 0) -> bool:
    """Whether the search finds an exact nilpotent of type <= orbit in the ball."""
    for extra in _witness_perturbations(cfg.n, cfg.q, depths, seed):
        m = _ball_matrix(cfg, y, depths, extra)
        if m.is_nilpotent() and dominance_leq(jordan_type(m), orbit):
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
    bases, floors, depths = _entry_layout(cfg, pair, K, lam)
    n = cfg.n
    y: List[List[Series]] = []
    for i in range(n):
        row = []
        for j in range(n):
            ser = ser_trunc(residue.entry(i, j).coeffs, depths[i][j])
            if not _ser_eq_below(ser, bases[i][j], floors[i][j], cfg.q):
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
    if not dominance_leq(pair.lift, orbit):
        return False  # rank bound
    if _charpoly_obstruction(cfg, y, depths):
        return False  # the ball misses the nilpotent cone
    if _witness_search(cfg, orbit, y, depths, seed=seed):
        return True
    raise UndecidedError(
        f"membership of {orbit} undecided for {pair.describe()} within bounds",
        where="measures.residue_membership",
    )


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

# count_measure's values under (n, q, orbit, pair, K, lam, bound), and beside them
# _count_n2's passing counts under ("n2", q, walk): many pairs share a walk
_COUNT_CACHE: Dict[tuple, Q | int] = {}


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
    # the bound is part of the key: a value is reused only under the bound
    # it was counted within, so a smaller bound still refuses
    key = (cfg.n, cfg.q, orbit.parts, pair, K, lam, enum_bound)
    value = _COUNT_CACHE.get(key)
    if value is not None:
        return value
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
    """log_q of the size of the n=2 residue space: merged diagonal data
    times the two off-diagonal entries (a size probe; `_count_n2` visits
    only q^(dv+dw) + q^du of these residues)."""
    if cfg.n != 2:
        raise ValidationError("n = 2 only", where="measures.merged_residue_dim")
    walk = _walk_n2(cfg.q, *_entry_layout(cfg, pair, K, lam))
    return 0 if walk is None else sum(depth - floor for _, floor, depth in walk)


def _variants(q: int, center: Series, floor: int, depth: int) -> Iterable[Series]:
    """Every residue of the ball center + t^floor O modulo t^depth."""
    exps = range(floor, depth)
    for combo in itertools.product(range(q), repeat=len(exps)):
        yield ser_add(center, tuple((e, c) for e, c in zip(exps, combo) if c), q)


def _square_class(q: int, u: Series, eu: int):
    """All `_meets_nilcone_2x2` reads of u: None for u = 0, else
    (val u, u^2 mod t^(val u + eu))."""
    if not u:
        return None
    vu = u[0][0]
    return vu, ser_mul(u, u, q, vu + eu)


def _product_class(q: int, v: Series, ev: int, w: Series, ew: int):
    """All `_meets_nilcone_2x2` reads of (v, w): (rho, None) when the
    products fill the ball t^rho O, else (rho, -(v w) mod t^rho)."""
    if not v:
        return ev + (w[0][0] if w else ew), None
    if not w:
        return v[0][0] + ew, None
    rho = min(v[0][0] + ew, w[0][0] + ev)
    return rho, ser_neg(ser_mul(v, w, q, rho), q)


def _count_n2(cfg: GroupConfig, pair: DMPPair, K: int, lam, enum_bound: int) -> int:
    """Passing residues for the 2x2 nonzero nilpotent orbit.

    The trace equation is solved symbolically: feasible diagonal pairs
    correspond bijectively to residues u of the merged ball
    (y11-coset) cap (-y22-coset), so a residue is a triple (u, v, w)
    with v, w the off-diagonal entries, and it passes iff
    u'^2 + v'w' = 0 is solvable over its balls.  That test reads u only
    through its square class and (v, w) only through their product
    class, so the count tallies each side once (q^du squares, q^(dv+dw)
    products) and pairs the classes: a full ball t^rho O meets the
    squares of a nonzero u iff 2 val u >= rho, a partial product class
    (rho, z0) meets them iff z0 = u^2 below min(val u + eu, rho), and
    u = 0 meets every full ball and the z0 of even valuation >= 2 eu
    with square leading coefficient.

    The count reads the pair only through q and the walk, so it is
    cached under ("n2", q, walk) and shared by every pair with the same
    three balls; the bound is checked before the lookup, so a smaller
    bound refuses a walk counted earlier.
    """
    q = cfg.q
    qr = _odd_q_squares(q, "measures.count_measure")
    walk = _walk_n2(q, *_entry_layout(cfg, pair, K, lam))
    if walk is None:
        return 0  # the trace never vanishes on the coset
    (_, uf, eu), (_, vf, ev), (_, wf, ew) = walk
    du, dvw = eu - uf, (ev - vf) + (ew - wf)
    if q ** dvw + q ** du > enum_bound:
        raise InfeasibleError(
            f"{q}^{dvw} off-diagonal products plus {q}^{du} diagonal squares "
            f"exceed bound {enum_bound}",
            where="measures.count_measure",
        )
    key = ("n2", q, walk)
    count = _COUNT_CACHE.get(key)
    if count is None:
        count = _COUNT_CACHE[key] = _tally_n2(q, qr, walk)
    return count


def _tally_n2(q: int, qr: frozenset, walk) -> int:
    """`_count_n2`'s pairing of square and product classes over one walk."""
    (uc, uf, eu), (vc, vf, ev), (wc, wf, ew) = walk

    full: Counter = Counter()  # rho -> products filling t^rho O
    partial: Dict[int, Counter] = {}  # rho -> Counter of z0
    w_list = list(_variants(q, wc, wf, ew))
    for v in _variants(q, vc, vf, ev):
        for w in w_list:
            rho, z0 = _product_class(q, v, ev, w, ew)
            if z0 is None:
                full[rho] += 1
            else:
                zs = partial.get(rho)
                if zs is None:
                    zs = partial[rho] = Counter()
                zs[z0] += 1
    squares = Counter(_square_class(q, u, eu) for u in _variants(q, uc, uf, eu))

    # (rho, b) -> Counter of the partial z0 at that rho, truncated below t^b
    index: Dict[Tuple[int, int], Counter] = {}
    count = 0
    for sq, mult in squares.items():
        if sq is None:
            hits = sum(full.values()) + sum(
                m
                for zs in partial.values()
                for z0, m in zs.items()
                if z0[0][0] % 2 == 0 and z0[0][0] >= 2 * eu and z0[0][1] in qr
            )
        else:
            vu, s0 = sq
            hits = sum(m for rho, m in full.items() if 2 * vu >= rho)
            for rho, zs in partial.items():
                b = min(vu + eu, rho)
                table = index.get((rho, b))
                if table is None:
                    table = index[(rho, b)] = Counter()
                    for z0, m in zs.items():
                        table[ser_trunc(z0, b)] += m
                hits += table[ser_trunc(s0, b)]
        count += mult * hits
    return count


def _count_generic(
    cfg: GroupConfig, orbit: OrbitLabel, pair: DMPPair, K: int, lam, enum_bound: int
) -> int:
    bases, floors, depths = _entry_layout(cfg, pair, K, lam)
    n, q = cfg.n, cfg.q
    slots = []
    for i in range(n):
        for j in range(n):
            for w in range(floors[i][j], depths[i][j]):
                slots.append((i, j, w))
    if q ** len(slots) > enum_bound:
        raise InfeasibleError(
            f"{q}^{len(slots)} residues exceed the enumeration bound {enum_bound}",
            where="measures.count_measure",
        )
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
                row.append(ser_add(bases[i][j], extra, q))
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
            "independence check needs a square table", where="measures.independence_check"
        )
    return k == 0 or bool(_invert_rational(table.entries))


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
