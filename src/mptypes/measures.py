"""Finite-truncation counting realizations of nilpotent orbital measures.

The measure of a compact open coset against an orbit O is realized at
truncation level K as

    mu_O(coset) = #{residues mod t^K L meeting O} / q^(K * dim O),

an exact rational.  The reference lattice L defaults to the strict
lattice of the pair (single-pair contexts) or the entrywise-max strict
lattice of a probe family; relation verification uses the coarse
non-strict lattice, which every relevant unipotent conjugator
stabilizes, so additivity and B-term symmetry hold to exact equality.

`count_measure` is the only membership path; it answers the zero orbit
itself (the coset meets it iff phi = 0, in exactly one residue) and
decides every nonzero orbit by one ladder:

  1. n = 2: exact solvability of trace = det = 0 over the entry balls,
     reduced to ultrametric ball arithmetic (valuations, leading
     coefficients and quadratic-residue classes).  The count never tests
     residues one by one: it tallies the square classes of the merged
     diagonal entry and the product classes of the off-diagonal pair,
     and pairs them;
  2. n >= 3: one closure ladder.  An open ball meets O exactly when it
     meets the closure of O (the orbits <= O in dominance order, i.e.
     the nilpotents with rank X^k <= rank_O(k) for all k), because O(F)
     is t-adically dense in it: for a cover mu < lambda some matrix unit
     E puts J_mu + t^N E in lambda for every N >= 1, so every X of type
     mu is a limit of elements of type lambda.  The rungs:
       a. rank bound: every coset element Z has rank Z^k >= rank A^k
          for the pair's coefficient matrix A, and rank_lambda <= rank_mu
          pointwise iff lambda <= mu, so the ball misses O unless the
          pair's lift is <= O (orbits.minimality_probe states the proof
          and checks its hypotheses);
       b. cone obstruction: a characteristic-polynomial coefficient that
          cannot vanish over the ball rules out every nonzero orbit;
       c. closure witness: an exact nilpotent of type <= O found in the
          ball by a bounded structured search (the centre, then one or two
          monomials at the residue depth) decides True;
     anything else is an explicit undecided status, never a silent
     boolean.

Callers ask for a probe family's table (`build_measure_table`) or for a
relation's verdict on each orbit's slice of measures (`relation_slices`).

Residues are bare `laurent.Series` tuples, added, negated, multiplied
and truncated by `laurent`'s `ser_*` kernels; only the ball-specific
helpers (equality below a depth, ball intersection, and the square and
product classes of the 2x2 cone test) live here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .apartment import GroupConfig, mp_lattice
from .errors import InfeasibleError, InternalFault, UndecidedError, ValidationError
from .graded import monomials
from .laurent import LMatrix, Series, ser_add, ser_mul, ser_neg, ser_trunc
from .orbits import OrbitLabel, dominance_leq, jordan_type, partitions_of
from .record import record
from .refine import DMPPair, RelationRecord, verify_relation

Q = Fraction

__all__ = [
    "MeasureTable",
    "count_measure",
    "build_measure_table",
    "relation_slices",
    "check_truncation",
    "normalization",
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


def check_truncation(K: int) -> None:
    """Refuse a truncation K below 1, before any count is made."""
    if K < 1:
        raise ValidationError("truncation K must be >= 1", where="measures")


def _validate_lattice(
    cfg: GroupConfig, pair: DMPPair, K: int, lam: Tuple[Tuple[int, ...], ...]
) -> None:
    check_truncation(K)
    strict = pair_strict_bounds(cfg, pair)
    for i in range(cfg.n):
        for j in range(cfg.n):
            if K + lam[i][j] < strict[i][j]:
                raise ValidationError(
                    f"t^K L is not inside the strict lattice at entry ({i},{j})",
                    where="measures",
                )


def _entry_layout(cfg: GroupConfig, pair: DMPPair, K: int, lam):
    """Per-entry grids: base series from the lift's monomials, strict bound
    (the coset ball's floor) and residue depth K + lam."""
    n = cfg.n
    bases = [[()] * n for _ in range(n)]
    for i, j, w, c in monomials(pair.phi):
        bases[i][j] = ((w, c),)
    depths = [[K + lam[i][j] for j in range(n)] for i in range(n)]
    return bases, pair_strict_bounds(cfg, pair), depths


def _odd_q_squares(q: int) -> frozenset:
    """Nonzero squares mod q, read by the 2x2 nilpotent-cone test (odd q only)."""
    if q == 2:
        raise InfeasibleError("the 2x2 ball analysis requires odd q", where="measures.count_measure")
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


def _ball_matrix(cfg: GroupConfig, y, extra) -> LMatrix:
    return LMatrix.from_rows(cfg.q, [
        [ser_add(y[i][j], extra.get((i, j), ()), cfg.q) for j in range(cfg.n)]
        for i in range(cfg.n)
    ])


def _witness_perturbations(n: int, q: int, depths):
    """Perturbations the witness search adds to the ball centre, in order.

    The centre itself, then each off-diagonal monomial c t^depth with
    c one of the distinct nonzero values of 1, -1, 2 mod q, then each
    pair of those at distinct positions: a fixed, finite sequence that
    draws nothing at random.
    """
    yield {}
    singles = []
    for i, j in itertools.permutations(range(n), 2):
        for c in dict.fromkeys((1, q - 1, 2 % q)):
            if c:
                singles.append(((i, j), ((depths[i][j], c),)))
    for pos, ser in singles:
        yield {pos: ser}
    for (p1, s1), (p2, s2) in itertools.combinations(singles, 2):
        if p1 != p2:
            yield {p1: s1, p2: s2}


def _witness_search(cfg: GroupConfig, orbit: OrbitLabel, y, depths) -> bool:
    """Whether the search finds an exact nilpotent of type <= orbit in the ball."""
    for extra in _witness_perturbations(cfg.n, cfg.q, depths):
        m = _ball_matrix(cfg, y, extra)
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
    mat = _ball_matrix(cfg, y, {})
    cp = mat.charpoly()
    for k in range(1, n + 1):
        ck = cp[k]
        if not ck:
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
                    v = e[0][0] if e else _INF
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
        if ck[0][0] < best:
            return True
    return False


def _membership_decide(cfg, orbit, pair, y, depths) -> bool:
    """The n >= 3 ladder on one residue ball, for a nonzero orbit."""
    if not dominance_leq(pair.lift, orbit):
        return False  # rank bound
    if _charpoly_obstruction(cfg, y, depths):
        return False  # the ball misses the nilpotent cone
    if _witness_search(cfg, orbit, y, depths):
        return True
    raise UndecidedError(
        f"membership of {orbit} undecided for {pair.describe()} within bounds",
        where="measures.count_measure",
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
    """Everything the cone test reads of u: None for u = 0, else
    (val u, u^2 mod t^(val u + eu))."""
    if not u:
        return None
    vu = u[0][0]
    return vu, ser_mul(u, u, q, vu + eu)


def _product_class(q: int, v: Series, ev: int, w: Series, ew: int):
    """Everything the cone test reads of (v, w): (rho, None) when
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
    qr = _odd_q_squares(q)
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


@record
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
    probes: Sequence[DMPPair],
    K: int,
    orbits: Sequence[OrbitLabel],
    enum_bound: int = 10**6,
) -> MeasureTable:
    """Full table of counting measures with the triangularity contract.

    The probes are counted at truncation K on their `shared_lattice`,
    each checked against it before the first count.  Entry (probe, orbit)
    must be nonzero exactly when the orbit dominates the probe's lift; a
    violation is an internal fault (it would falsify the triangularity
    of the measure vectors under this normalization).
    """
    probes = tuple(probes)
    lam = shared_lattice(cfg, probes)
    for p in probes:
        _validate_lattice(cfg, p, K, lam)
    rows = []
    for p in probes:
        row = []
        for o in orbits:
            val = count_measure(cfg, o, p, K, lam, enum_bound=enum_bound)
            if (val != 0) != dominance_leq(p.lift, o):
                raise InternalFault(
                    f"triangularity violated at orbit {o}, probe {p.describe()}: "
                    f"value {val}",
                    where="measures.build_measure_table",
                )
            row.append(val)
        rows.append(tuple(row))
    return MeasureTable(
        orbits=tuple(orbits),
        probes=probes,
        K=K,
        lam=lam,
        normalization=normalization(K),
        entries=tuple(rows),
    )


def normalization(K: int) -> str:
    """The normalization a table counted at truncation K records; it names
    K only, not q."""
    return f"counting-density: passing/q^(K*dimO), K={K}"


def relation_slices(
    cfg: GroupConfig, rec: RelationRecord, K: int, enum_bound: int = 10**6
) -> Dict[OrbitLabel, bool]:
    """Whether the relation holds on each orbit's slice of counting measures.

    Every pair of the relation is counted at truncation K on
    `relation_lattice`, orbit by orbit in `partitions_of` order and pair
    by pair in `rec.pairs()` order.
    """
    lam = relation_lattice(cfg, rec)
    return {
        orbit: verify_relation(cfg, rec, {
            p: count_measure(cfg, orbit, p, K, lam, enum_bound=enum_bound)
            for p in rec.pairs()
        })
        for orbit in partitions_of(cfg.n)
    }
