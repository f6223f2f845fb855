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
     coefficients and quadratic-residue classes).  The count enumerates
     no residue: it splits each entry ball into valuation strata, on
     which the squares of the merged diagonal entry and the products of
     the off-diagonal pair run over cosets of unit subgroups, and counts
     the matching pairs of strata in closed form;
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
helpers (equality below a depth, ball intersection, and the valuation
strata of the 2x2 cone test) live here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

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


def _entry_layout(cfg: GroupConfig, pair: DMPPair, K: int, lam):
    """Per-entry grids: base series from the lift's monomials, strict bound
    (the coset ball's floor) and residue depth K + lam.

    Refuses K < 1, and a depth below its floor: t^K L must lie inside
    the pair's strict lattice.
    """
    check_truncation(K)
    n = cfg.n
    floors = pair_strict_bounds(cfg, pair)
    depths = [[K + lam[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if depths[i][j] < floors[i][j]:
                raise ValidationError(
                    f"t^K L is not inside the strict lattice at entry ({i},{j})",
                    where="measures",
                )
    bases = [[()] * n for _ in range(n)]
    for i, j, w, c in monomials(pair.phi):
        bases[i][j] = ((w, c),)
    return bases, floors, depths


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


# perfbench's worker empties the cache between passes (until ROADMAP item 4)
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
    # for n >= 3 the bound is part of the key: a value is reused only under
    # the bound it was counted within, so a smaller bound still refuses; the
    # n = 2 count enumerates nothing and reads no bound
    key = (cfg.n, cfg.q, orbit.parts, pair, K, lam) + ((enum_bound,) if cfg.n > 2 else ())
    value = _COUNT_CACHE.get(key)
    if value is not None:
        return value
    layout = _entry_layout(cfg, pair, K, lam)

    norm = Q(1, cfg.q ** (K * orbit.dim))
    if all(p == 1 for p in orbit.parts):
        # the zero orbit meets the coset iff phi = 0, in exactly one residue
        value = Q(1) if pair.phi.is_zero() else Q(0)
        _COUNT_CACHE[key] = value
        return value

    if cfg.n == 2:
        passing = _count_n2(cfg.q, layout)
    else:
        passing = _count_generic(cfg, orbit, pair, layout, enum_bound)
    value = passing * norm
    _COUNT_CACHE[key] = value
    return value


def merged_residue_dim(cfg: GroupConfig, pair: DMPPair, K: int, lam) -> int:
    """log_q of the size of the n=2 residue space: merged diagonal data
    times the two off-diagonal entries (a size probe; `_count_n2` counts
    them by valuation strata and enumerates none); the lattice is
    refused as a count would refuse it."""
    if cfg.n != 2:
        raise ValidationError("n = 2 only", where="measures.merged_residue_dim")
    walk = _walk_n2(cfg.q, *_entry_layout(cfg, pair, K, lam))
    return 0 if walk is None else sum(depth - floor for _, floor, depth in walk)


def _count_n2(q: int, layout) -> int:
    """Passing residues for the 2x2 nonzero nilpotent orbit.

    The trace equation is solved symbolically: feasible diagonal pairs
    correspond bijectively to residues u of the merged ball
    (y11-coset) cap (-y22-coset), so a residue is a triple (u, v, w)
    with v, w the off-diagonal entries, and it passes iff
    u'^2 + v'w' = 0 is solvable over its balls.  That test reads u only
    through its square class and (v, w) only through their product
    class: a full ball t^rho O meets the squares of a nonzero u iff
    2 val u >= rho, a partial product class (rho, z0) meets them iff
    z0 = u^2 below min(val u + eu, rho), and u = 0 meets every full ball
    and the z0 of even valuation >= 2 eu with square leading
    coefficient.  `_tally_n2` counts the matching pairs of classes
    stratum by stratum, without enumerating them, so no bound caps it.

    The count reads the pair only through q and the walk of its
    `_entry_layout`, so it is cached under ("n2", q, walk) and shared by
    every pair with the same three balls.
    """
    qr = _odd_q_squares(q)
    walk = _walk_n2(q, *layout)
    if walk is None:
        return 0  # the trace never vanishes on the coset
    key = ("n2", q, walk)
    count = _COUNT_CACHE.get(key)
    if count is None:
        count = _COUNT_CACHE[key] = _tally_n2(q, qr, walk)
    return count


def _strata(q: int, center: Series, floor: int, depth: int):
    """The residues of the ball center + t^floor O mod t^depth, the centre
    having terms below the floor only: (number of zero residues, strata).

    A stratum (a, g, m, N) holds N residues t^a alpha, alpha running
    evenly over g U_m mod t^(depth - a), where U_m = 1 + t^m O and U_0 is
    every unit.  A nonzero centre gives one stratum, a = its valuation;
    the ball t^floor O gives 0 and one stratum of units per valuation.
    """
    if center:
        a = center[0][0]
        g = tuple((e - a, c) for e, c in center)
        return 0, [(a, g, floor - a, q ** (depth - floor))]
    return 1, [(a, ((0, 1),), 0, (q - 1) * q ** (depth - a - 1)) for a in range(floor, depth)]


def _tally_n2(q: int, qr: frozenset, walk) -> int:
    """`_count_n2`'s pairing of square and product classes over one walk,
    counted stratum by stratum (`_strata`), with no residue enumerated.

    A zero residue v or w puts the pair's products in a full ball t^rho O.
    Strata t^a g_v U_mv and t^b g_w U_mw give -v w = t^p beta, p = a + b,
    beta running evenly over -g_v g_w U_m mod t^(rho - p), with
    m = min(mv, mw) and rho = min(a + ew, b + ev).  For odd q, squaring
    maps a stratum t^a g U_m of u onto t^2a g^2 U_m one to one when
    m >= 1, and onto t^2a times the unit squares two to one when m = 0.
    Such squares meet t^p beta only when p = 2a, and the cone test then
    compares the unit parts mod t^k, k = min(eu - a, rho - p).  Two
    cosets x1 H1, x2 H2 of the unit group mod t^k, met evenly by N1 and
    N2 residues, match in N1 N2 / |H1 H2| pairs when they meet and in
    none otherwise; every H here is some U_m or the unit squares, which
    lie between U_0 and U_1, so H1 H2 is the larger of the two.
    """
    (uc, uf, eu), (vc, vf, ev), (wc, wf, ew) = walk
    u_zero, u_strata = _strata(q, uc, uf, eu)
    v_zero, v_strata = _strata(q, vc, vf, ev)
    w_zero, w_strata = _strata(q, wc, wf, ew)
    full = []  # (rho, number of (v, w) whose products fill t^rho O)
    if v_zero:
        full.append((ev + ew, w_zero))
        full += [(ev + b, nw) for b, _, _, nw in w_strata]
    if w_zero:
        full += [(a + ew, nv) for a, _, _, nv in v_strata]
    # (p, rho - p, m, -g_v g_w mod t^min(m, rho - p), its leading coefficient, N)
    partial = []
    for a, gv, mv, nv in v_strata:
        for b, gw, mw, nw in w_strata:
            k, m = min(a + ew, b + ev) - a - b, min(mv, mw)
            x = ser_neg(ser_mul(gv, gw, q, min(m, k)), q)
            partial.append((a + b, k, m, x, -gv[0][1] * gw[0][1] % q, nv * nw))

    count = 0
    if u_zero:
        # u = 0 meets every full ball, and t^p beta when p is even, p >= 2 eu
        # and beta's leading coefficient is a square: half of them at m = 0
        count += sum(n for _, n in full)
        for p, _, m, _, lead, n in partial:
            if p % 2 == 0 and p >= 2 * eu:
                count += n // 2 if m == 0 else n if lead in qr else 0
    for a, g, mu, nu in u_strata:
        count += nu * sum(n for rho, n in full if 2 * a >= rho)
        square = ser_mul(g, g, q, min(mu, eu - a))
        for p, kp, m, x, lead, n in partial:
            if p != 2 * a:
                continue
            k = min(eu - a, kp)
            if m == 0:  # H1 H2 = U_0
                size = (q - 1) * q ** (k - 1)
            elif mu == 0:  # H1 H2 = the unit squares
                if lead not in qr:
                    continue
                size = (q - 1) // 2 * q ** (k - 1)
            else:  # H1 H2 = U_min(mu, m): the cosets agree mod t^j
                j = min(mu, m, k)
                if ser_trunc(square, j) != ser_trunc(x, j):
                    continue
                size = q ** (k - j)
            count += nu * n // size
    return count


def _count_generic(
    cfg: GroupConfig, orbit: OrbitLabel, pair: DMPPair, layout, enum_bound: int
) -> int:
    bases, floors, depths = layout
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


def build_measure_table(
    cfg: GroupConfig,
    probes: Sequence[DMPPair],
    K: int,
    enum_bound: int = 10**6,
) -> MeasureTable:
    """Full table of counting measures with the triangularity contract.

    Each probe is counted against every orbit, in `partitions_of` order,
    at truncation K on the probes' `shared_lattice`; every probe is
    checked against that lattice before the first count.  Entry
    (probe, orbit) must be nonzero exactly when the orbit dominates the
    probe's lift; a violation is an internal fault (it would falsify the
    triangularity of the measure vectors under this normalization).
    """
    probes = tuple(probes)
    lam = shared_lattice(cfg, probes)
    for p in probes:
        _entry_layout(cfg, p, K, lam)
    orbits = partitions_of(cfg.n)
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
        orbits=orbits,
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
