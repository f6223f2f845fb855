"""Counting measures: membership ladder, worked values, triangularity."""

import itertools
import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes import gf, measures
from mptypes.apartment import ApartmentPoint, GroupConfig
from mptypes.graded import GradedElement, coefficient_matrix
from mptypes.errors import InfeasibleError, InternalFault, UndecidedError, ValidationError
from mptypes.laurent import ser_add
from mptypes.measures import (
    MeasureTable,
    _ball_matrix,
    _charpoly_obstruction,
    _count_n2,
    _entry_layout,
    _membership_decide,
    _odd_q_squares,
    _ser_eq_below,
    _walk_n2,
    _tally_n2,
    _witness_perturbations,
    build_measure_table,
    clear_count_cache,
    count_measure,
    merged_residue_dim,
    pair_strict_bounds,
    relation_lattice,
    relation_slices,
    shared_lattice,
)
from mptypes.orbits import OrbitLabel, dominance_leq, jordan_type, partitions_of
from mptypes.refine import DMPPair, refine_relation, verify_relation
from mptypes.selftest import _random_incidence, relation_instances, worked_instances
from mptypes.solver import (
    CoefficientMatrix,
    alt_probes_gl2,
    assemble_and_invert,
    choose_probes,
    matrix_problem,
)

from cone_oracle import _meets_nilcone_2x2, _variants, enumerated_tally
from lift_oracle import series
from quotient_oracle import checked_conjugate


def make_cfg(n, q=5, m=16):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


CFG2 = make_cfg(2)
CFG3 = make_cfg(3)
RESIDUES_PER_PROBE = 50


def pt(*coords):
    return ApartmentPoint.of([Q(c) for c in coords])


X_HYP = pt(0, 0)
X_IWA = pt(Q(1, 2), 0)
ZERO_PAIR = DMPPair.make(CFG2, 1, X_HYP, GradedElement.zero(X_HYP, -1))
REG_PAIR = DMPPair.make(
    CFG2, Q(1, 2), X_IWA, GradedElement.make(CFG2, X_IWA, Q(-1, 2), {(0, 1): 1})
)
O11 = OrbitLabel.of((1, 1))
O2 = OrbitLabel.of((2,))


def test_zero_orbit_membership():
    # O = (1,...,1) meets a coset iff 0 lies in it, and then in exactly the
    # zero residue: dim O = 0, so the count is the number of passing residues
    nonzero = DMPPair.make(
        CFG2, 1, X_HYP, GradedElement.make(CFG2, X_HYP, -1, {(0, 1): 1})
    )
    x3 = pt(0, 0, 0)
    zero3 = DMPPair.make(CFG3, 1, x3, GradedElement.zero(x3, -1))
    for K in (1, 2, 3):
        assert count_measure(CFG2, O11, ZERO_PAIR, K) == 1
        assert count_measure(CFG2, O11, nonzero, K) == 0
        assert count_measure(CFG2, O11, REG_PAIR, K) == 0
    assert count_measure(CFG3, OrbitLabel.of((1, 1, 1)), zero3, 1) == 1


def residue_ball(q, entries, depth):
    """A 2x2 residue as a ball: entry series, each ball floor at `depth`."""
    y = [[series(q, e) for e in row] for row in entries]
    return y, [[depth] * 2 for _ in range(2)]


def test_trace_obstruction_membership():
    # diag(1, 0) + t gl_2(O) never has trace 0: the merged diagonal ball is empty
    y, depths = residue_ball(5, [[{0: 1}, {}], [{}, {}]], 1)
    assert _walk_n2(5, y, depths, depths) is None
    y, depths = residue_ball(5, [[{0: 1}, {}], [{}, {0: 4}]], 1)
    assert _walk_n2(5, y, depths, depths) is not None


def test_membership_closed_form_solution():
    # residue of [[a, t^-1+b], [-a^2 t (1+bt)^-1, -a]] in t^-1 e12 + gl2(O)
    # truncated mod t^K: an image of an exact nilpotent, so it passes
    a, b, K = 2, 3, 3
    q = 5
    pair = DMPPair.make(
        CFG2, 1, X_HYP, GradedElement.make(CFG2, X_HYP, -1, {(0, 1): 1})
    )
    bases, floors, depths = _entry_layout(CFG2, pair, K, pair_strict_bounds(CFG2, pair))
    # -a^2 t (1 - bt + b^2 t^2 - ...) truncated below K
    w_series = {1 + k: (-(a * a) * pow(-b, k, q)) % q for k in range(K - 1)}
    y, _ = residue_ball(q, [[{0: a}, {-1: 1, 0: b}], [w_series, {0: -a}]], K)
    assert all(
        _ser_eq_below(y[i][j], bases[i][j], floors[i][j], q)
        for i in range(2)
        for j in range(2)
    )
    walk = _walk_n2(q, y, depths, depths)
    (u, _, eu), (v, _, ev), (w, _, ew) = walk
    assert _meets_nilcone_2x2(q, _odd_q_squares(q), u, eu, v, ev, w, ew)
    # breaking the trace kills it
    y_bad, _ = residue_ball(q, [[{0: a}, {-1: 1, 0: b}], [w_series, {0: a}]], K)
    assert _walk_n2(q, y_bad, depths, depths) is None


def test_count_measure_worked_values():
    clear_count_cache()
    assert count_measure(CFG2, O11, ZERO_PAIR, 1) == 1
    # 2x2 nilpotent count over F_5 is q^2, normalized by q^(K dim) = 25
    assert count_measure(CFG2, O2, ZERO_PAIR, 1) == 1
    assert count_measure(CFG2, O11, REG_PAIR, 1) == 0
    assert count_measure(CFG2, O11, REG_PAIR, 2) == 0
    assert count_measure(CFG2, O2, REG_PAIR, 1) > 0


def test_count_additivity_over_refinement():
    # the measure half of the refinement relation at K = 2
    y = pt(Q(1, 4), 0)
    coarse = DMPPair.make(CFG2, 1, y, GradedElement.zero(y, -1))
    rec = refine_relation(CFG2, coarse, (X_HYP, Q(1)))
    assert relation_slices(CFG2, rec, 2) == {O11: True, O2: True}


def test_count_additivity_iwahori_family():
    yb = pt(Q(3, 8), 0)
    coarse = DMPPair.make(
        CFG2, Q(5, 8), yb, GradedElement.make(CFG2, yb, Q(-5, 8), {(0, 1): 1})
    )
    rec = refine_relation(CFG2, coarse, (X_IWA, Q(1, 2)))
    assert relation_slices(CFG2, rec, 2) == {O11: True, O2: True}


def recipe_slices(cfg, rec, K, enum_bound):
    """The callers' former recipe, kept as an oracle: the relation lattice,
    then each orbit's counts over the pairs, then verify_relation."""
    lam = relation_lattice(cfg, rec)
    return {
        orbit: verify_relation(cfg, rec, {
            p: count_measure(cfg, orbit, p, K, lam, enum_bound=enum_bound) for p in rec.pairs()
        })
        for orbit in partitions_of(cfg.n)
    }


def test_relation_slices_match_the_recipe_and_count_the_same_keys():
    # the 20 records of the acceptance suite, the worked relations first; each
    # side counts from an empty cache and must leave the same keys in order
    records = relation_instances(CFG2)
    worked = [refine_relation(CFG2, *inst) for inst in worked_instances(CFG2)]
    assert len(records) == 20 and records[: len(worked)] == worked
    for rec in records:
        clear_count_cache()
        expected = recipe_slices(CFG2, rec, 2, 2 * 10**6)
        keys = list(measures._COUNT_CACHE)
        clear_count_cache()
        got = relation_slices(CFG2, rec, 2, enum_bound=2 * 10**6)
        assert list(got.items()) == list(expected.items()) == [(O11, True), (O2, True)]
        assert list(measures._COUNT_CACHE) == keys
    clear_count_cache()


def test_build_measure_table_refuses_k0_before_any_count():
    clear_count_cache()
    with pytest.raises(ValidationError, match="truncation K must be >= 1"):
        build_measure_table(CFG2, [ZERO_PAIR, REG_PAIR], 0)
    assert not measures._COUNT_CACHE


def test_every_count_refuses_a_lattice_below_the_strict_floor():
    # one layout per count: both count routes, the zero orbit and the size
    # probe refuse K < 1 and t^K L outside the strict lattice, counting nothing
    below = tuple(tuple(b - 2 for b in row) for row in pair_strict_bounds(CFG2, REG_PAIR))
    clear_count_cache()
    for K, lam, message in (
        (1, below, r"t\^K L is not inside the strict lattice at entry \(0,0\)"),
        (0, pair_strict_bounds(CFG2, REG_PAIR), "truncation K must be >= 1"),
    ):
        for call in (
            lambda: count_measure(CFG2, O2, REG_PAIR, K, lam),
            lambda: count_measure(CFG2, O11, REG_PAIR, K, lam),
            lambda: merged_residue_dim(CFG2, REG_PAIR, K, lam),
        ):
            with pytest.raises(ValidationError, match=message) as err:
                call()
            assert err.value.where == "measures"
    assert not measures._COUNT_CACHE


def test_triangularity_exhaustive_n2():
    # eq-triang dichotomy over every degenerate phi at the two standard
    # points and both levels (small-K zero/nonzero statuses)
    from mptypes.graded import enumerate_graded_elements, is_degenerate

    for x, s in [
        (X_HYP, Q(1)),
        (X_HYP, Q(1, 2)),
        (X_IWA, Q(1, 2)),
        (X_IWA, Q(1)),
    ]:
        for el in enumerate_graded_elements(CFG2, x, -s):
            if not is_degenerate(CFG2, el):
                continue
            pair = DMPPair.make(CFG2, s, x, el)
            for orbit in (O11, O2):
                val = count_measure(CFG2, orbit, pair, 1)
                assert (val != 0) == dominance_leq(pair.lift, orbit)


def test_monotone_refinement_zero_status():
    for pair in (ZERO_PAIR, REG_PAIR):
        for orbit in (O11, O2):
            v1 = count_measure(CFG2, orbit, pair, 1)
            v2 = count_measure(CFG2, orbit, pair, 2)
            assert (v1 == 0) == (v2 == 0)


def test_conjugation_invariance_of_counts():
    import random

    from mptypes.graded import enumerate_graded_elements, is_degenerate

    rng = random.Random(41)
    lam = pair_strict_bounds(CFG2, ZERO_PAIR)
    degenerate = [
        el for el in enumerate_graded_elements(CFG2, X_HYP, -1) if is_degenerate(CFG2, el)
    ]
    done = 0
    while done < 100:
        el = rng.choice(degenerate)
        c = rng.randrange(5)
        # integral unipotents stabilize gl_2(O)
        g = ((1, c), (0, 1)) if rng.random() < 0.5 else ((1, 0), (c, 1))
        pair = DMPPair.make(CFG2, 1, X_HYP, el)
        pair_c = DMPPair.make(CFG2, 1, X_HYP, checked_conjugate(CFG2, el, g))
        for orbit in (O11, O2):
            assert count_measure(CFG2, orbit, pair, 1, lam) == count_measure(
                CFG2, orbit, pair_c, 1, lam
            )
        done += 1
    # a couple of deeper-truncation spot checks
    el = GradedElement.make(CFG2, X_HYP, -1, {(0, 1): 2})
    pair = DMPPair.make(CFG2, 1, X_HYP, el)
    pair_c = DMPPair.make(CFG2, 1, X_HYP, checked_conjugate(CFG2, el, ((1, 3), (0, 1))))
    for orbit in (O11, O2):
        assert count_measure(CFG2, orbit, pair, 2, lam) == count_measure(
            CFG2, orbit, pair_c, 2, lam
        )


def test_monotone_refinement_exhaustive_iwahori_piece():
    from mptypes.graded import enumerate_graded_elements, is_degenerate

    for el in enumerate_graded_elements(CFG2, X_IWA, Q(-1, 2)):
        if not is_degenerate(CFG2, el):
            continue
        pair = DMPPair.make(CFG2, Q(1, 2), X_IWA, el)
        for orbit in (O11, O2):
            v1 = count_measure(CFG2, orbit, pair, 1)
            v2 = count_measure(CFG2, orbit, pair, 2)
            assert (v1 == 0) == (v2 == 0)


def test_gl2_measure_table_and_independence():
    table = build_measure_table(CFG2, [ZERO_PAIR, REG_PAIR], 2)
    assert table.orbits == (O11, O2)
    (zero_o11, zero_o2), (reg_o11, reg_o2) = table.entries
    assert zero_o11 == 1 and reg_o11 == 0
    assert zero_o2 > 0 and reg_o2 > 0
    assert assemble_and_invert(CFG2, table).m_rows == table.entries
    # duplicated rows are dependent: a singular M fails matrix_problem (an
    # upper-triangular M with a nonzero diagonal would be invertible), and
    # assemble_and_invert raises its message
    rows = (table.entries[0], table.entries[0])
    dup = MeasureTable(
        orbits=table.orbits,
        probes=table.probes,
        K=table.K,
        lam=table.lam,
        normalization=table.normalization,
        entries=rows,
    )
    problem = matrix_problem(CFG2, CoefficientMatrix(
        orbits=table.orbits, probes=table.probes, m_rows=rows, a_rows=(), normalization=""
    ))
    assert problem == "nonzero entry below the order at ((2), (1,1))"
    with pytest.raises(InternalFault) as err:
        assemble_and_invert(CFG2, dup)
    assert (str(err.value), err.value.where) == (problem, "solver.assemble_and_invert")


def test_gl3_measure_table():
    x3 = pt(0, 0, 0)
    zero3 = DMPPair.make(CFG3, 1, x3, GradedElement.zero(x3, -1))
    sub3 = DMPPair.make(
        CFG3, 1, x3, GradedElement.make(CFG3, x3, -1, {(0, 1): 1})
    )
    reg3 = DMPPair.make(
        CFG3, 1, x3, GradedElement.make(CFG3, x3, -1, {(0, 1): 1, (1, 2): 1})
    )
    table = build_measure_table(CFG3, [zero3, sub3, reg3], 1)
    assert table.orbits == tuple(partitions_of(3))
    for i in range(3):
        for j in range(3):
            if j < i:
                assert table.entries[i][j] == 0
            if i == j:
                assert table.entries[i][j] > 0
    assert assemble_and_invert(CFG3, table).m_rows == table.entries


def test_single_regular_probe_row():
    # probe with regular lift: zero against every smaller orbit
    assert count_measure(CFG2, O11, REG_PAIR, 2) == 0
    x3 = pt(0, 0, 0)
    reg3 = DMPPair.make(
        CFG3, 1, x3, GradedElement.make(CFG3, x3, -1, {(0, 1): 1, (1, 2): 1})
    )
    lam3 = shared_lattice(CFG3, [reg3])
    assert count_measure(CFG3, OrbitLabel.of((1, 1, 1)), reg3, 1, lam3) == 0
    assert count_measure(CFG3, OrbitLabel.of((2, 1)), reg3, 1, lam3) == 0
    assert count_measure(CFG3, OrbitLabel.of((3,)), reg3, 1, lam3) > 0


# -- the factored GL_2 count against the triple walk -----------------------


def triple_walk_count(cfg, pair, K, lam):
    """The count `_count_n2` factors: one cone test per residue (u, v, w)."""
    q = cfg.q
    qr = _odd_q_squares(q)
    walk = _walk_n2(q, *_entry_layout(cfg, pair, K, lam))
    if walk is None:
        return 0

    (uc, uf, eu), (vc, vf, ev), (wc, wf, ew) = walk
    v_list = list(_variants(q, vc, vf, ev))
    w_list = list(_variants(q, wc, wf, ew))
    count = 0
    for u in _variants(q, uc, uf, eu):
        for v in v_list:
            for w in w_list:
                if _meets_nilcone_2x2(q, qr, u, eu, v, ev, w, ew):
                    count += 1
    return count


def triples(cfg, pair, K, lam):
    walk = _walk_n2(cfg.q, *_entry_layout(cfg, pair, K, lam))
    return 0 if walk is None else cfg.q ** sum(depth - floor for _, floor, depth in walk)


def assert_factored_count(cfg, pair, K, lam):
    count = _count_n2(cfg.q, _entry_layout(cfg, pair, K, lam))
    assert count == triple_walk_count(cfg, pair, K, lam), (pair.describe(), K, lam)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_factored_count_matches_triple_walk_on_catalogs(q):
    # the default and --alt-probes GL_2 catalogs at K = 1, 2, 3; the walk
    # is capped at 4 * 10^5 triples (about 3 s), which leaves out only the
    # default catalog at q = 7, K = 3 (7^8 and 7^7 triples)
    cfg = make_cfg(2, q)
    checked = 0
    for K in (1, 2, 3):
        for catalog in (choose_probes, alt_probes_gl2):
            probes = catalog(cfg, 0)
            lam = shared_lattice(cfg, probes)
            for pair in probes:
                if triples(cfg, pair, K, lam) <= 4 * 10**5:
                    assert_factored_count(cfg, pair, K, lam)
                    checked += 1
    assert checked == (10 if q == 7 else 12)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_factored_count_matches_triple_walk_on_criterion_1_pairs(q):
    # K = 1 on the strict lattice, as criterion 1 counts, and on lattices
    # one or two layers deeper on the diagonal or off it (up to 3000
    # triples): a deeper off-diagonal makes val u + eu < rho for some
    # square classes, so the comparison bound min(val u + eu, rho) matters
    from mptypes.graded import enumerate_graded_elements, is_degenerate

    cfg = make_cfg(2, q)
    checked = 0
    for x, s in [(X_HYP, Q(1)), (X_HYP, Q(1, 2)), (X_IWA, Q(1, 2)), (X_IWA, Q(1))]:
        for el in enumerate_graded_elements(cfg, x, -s):
            if not is_degenerate(cfg, el):
                continue
            pair = DMPPair.make(cfg, s, x, el)
            strict = pair_strict_bounds(cfg, pair)
            assert_factored_count(cfg, pair, 1, strict)
            checked += 1
            for diag, off in ((0, 1), (0, 2), (1, 0), (2, 0)):
                lam = tuple(
                    tuple(strict[i][j] + (diag if i == j else off) for j in range(2))
                    for i in range(2)
                )
                if triples(cfg, pair, 1, lam) <= 3000:
                    assert_factored_count(cfg, pair, 1, lam)
                    checked += 1
    assert checked > (q + 1) ** 2


@pytest.mark.parametrize("q", [3, 5, 7])
def test_factored_count_matches_triple_walk_on_random_relations(q):
    # pairs of seeded random incidences at K = 2 on the relation lattice,
    # up to 2 * 10^4 triples each
    cfg = make_cfg(2, q)
    rng = random.Random(f"factored-count:{q}")
    checked = records = 0
    while records < 4:
        try:
            inst = _random_incidence(cfg, rng)
            if inst is None:
                continue
            rec = refine_relation(cfg, *inst)
        except InfeasibleError:
            continue
        records += 1
        lam = relation_lattice(cfg, rec)
        for pair in rec.pairs():
            if triples(cfg, pair, 2, lam) <= 2 * 10**4:
                assert_factored_count(cfg, pair, 2, lam)
                checked += 1
    assert checked >= 4


# -- the closure ladder against the parent's rank bound and n = 3 ladder ---


def rank_bound_excludes(cfg, orbit, pair):
    """The parent's graded rank bound: rank A^k > rank_O(k) for some k."""
    a = coefficient_matrix(cfg, pair.phi)
    field = gf.prime_field(cfg.q)
    p = gf.identity(cfg.n)
    for k in range(1, cfg.n + 1):
        p = gf.mat_mul(p, a, field)
        if orbit.rank_at(k) < gf.rank(p, field):
            return True
    return False


def test_dominance_test_matches_rank_bound_on_catalog_pairs():
    checked = 0
    for n in (2, 3, 4):
        cfg = make_cfg(n)
        catalogs = [choose_probes(cfg)] + ([alt_probes_gl2(cfg)] if n == 2 else [])
        for pair in (p for probes in catalogs for p in probes):
            for orbit in partitions_of(n):
                excluded = rank_bound_excludes(cfg, orbit, pair)
                assert excluded == (not dominance_leq(pair.lift, orbit))
                checked += 1
    assert checked == 2 * 2 * 2 + 3 * 3 + 5 * 5


def parent_ladder(cfg, orbit, pair, y, depths):
    """The parent's n = 3 ladder for a nonzero orbit; None when undecided."""
    if rank_bound_excludes(cfg, orbit, pair):
        return False

    def found(accept):
        for extra in _witness_perturbations(cfg.n, cfg.q, depths):
            m = _ball_matrix(cfg, y, extra)
            if m.is_nilpotent() and accept(jordan_type(m)):
                return True
        return False

    if orbit == OrbitLabel.of((3,)):
        if found(lambda t: True):
            return True
        return False if _charpoly_obstruction(cfg, y, depths) else None
    return True if found(lambda t: t == orbit) else None


@pytest.mark.parametrize("n,q", [(2, 5), (3, 2), (3, 3), (3, 5), (4, 7)])
def test_witness_perturbations_are_the_centre_singles_and_pairs(n, q):
    # 1 + S + P items: S single monomials c t^depth off the diagonal, c the
    # distinct nonzero values of 1, -1, 2 mod q, and the P pairs of them at
    # distinct positions; the same sequence on every call
    depths = [[i + 2 * j for j in range(n)] for i in range(n)]
    coeffs = {c % q for c in (1, -1, 2)} - {0}
    positions = list(itertools.permutations(range(n), 2))
    singles = {((i, j), ((depths[i][j], c),)) for i, j in positions for c in coeffs}
    S = len(singles)
    P = S * (S - 1) // 2 - len(positions) * len(coeffs) * (len(coeffs) - 1) // 2
    seq = list(_witness_perturbations(n, q, depths))
    assert len(seq) == 1 + S + P
    assert seq == list(_witness_perturbations(n, q, depths))
    assert seq[0] == {}
    assert {next(iter(e.items())) for e in seq[1 : 1 + S]} == singles
    pairs = [frozenset(e.items()) for e in seq[1 + S :]]
    assert len(set(pairs)) == P
    assert all(len({pos for pos, _ in e}) == 2 and e <= singles for e in pairs)


def random_residue(rng, q, bases, floors, depths):
    n = len(bases)
    return [
        [
            ser_add(
                bases[i][j],
                tuple(
                    (w, c)
                    for w in range(floors[i][j], depths[i][j])
                    for c in [rng.randrange(q)]
                    if c
                ),
                q,
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_closure_ladder_agrees_with_parent_ladder_on_gl3_k2_residues():
    # seeded residues of the default GL_3 probes at K = 2 on the shared
    # lattice, against each nonzero orbit: every verdict the parent ladder
    # reached stands, and the closure ladder leaves fewer undecided
    probes = choose_probes(CFG3)
    lam = shared_lattice(CFG3, probes)
    rng = random.Random("closure-ladder:gl3:K2")
    old_open = new_open = 0
    for pair in probes:
        bases, floors, depths = _entry_layout(CFG3, pair, 2, lam)
        for _ in range(RESIDUES_PER_PROBE):
            y = random_residue(rng, CFG3.q, bases, floors, depths)
            for orbit in (OrbitLabel.of((2, 1)), OrbitLabel.of((3,))):
                old = parent_ladder(CFG3, orbit, pair, y, depths)
                try:
                    new = _membership_decide(CFG3, orbit, pair, y, depths)
                except UndecidedError:
                    new = None
                assert old is None or new == old, (pair.describe(), orbit, y)
                old_open += old is None
                new_open += new is None
    # the parent left about a third of these open (101 of 300)
    assert new_open * 10 < old_open


# -- GL_2 tallies shared by walk ---------------------------------------------


def walk_jobs(cfg):
    """(pair, K, lam) for the default and --alt-probes catalogs at K = 1, 2, 3 on
    their shared lattice, then the pairs of the worked relations on the relation
    lattice; several of these share a walk, and for each of the three balls
    some pairs agree on the other two but differ in it and in their count."""
    jobs = []
    for K in (1, 2, 3):
        for catalog in (choose_probes, alt_probes_gl2):
            probes = catalog(cfg, 0)
            lam = shared_lattice(cfg, probes)
            jobs += [(pair, K, lam) for pair in probes]
        for inst in worked_instances(cfg):
            rec = refine_relation(cfg, *inst)
            jobs += [(pair, K, relation_lattice(cfg, rec)) for pair in rec.pairs()]
    return jobs


@pytest.mark.parametrize("q", [3, 5])
def test_walk_hits_equal_fresh_counts(q):
    cfg = make_cfg(2, q)
    jobs = walk_jobs(cfg)
    clear_count_cache()
    warm = [_count_n2(q, _entry_layout(cfg, pair, K, lam)) for pair, K, lam in jobs]
    walks = {_walk_n2(q, *_entry_layout(cfg, pair, K, lam)) for pair, K, lam in jobs}
    assert len(walks) < len(jobs)  # some of the warm counts were cache hits
    fresh = []
    for pair, K, lam in jobs:
        clear_count_cache()
        fresh.append(_count_n2(q, _entry_layout(cfg, pair, K, lam)))
    assert warm == fresh
    qr = _odd_q_squares(q)
    for pair, K, lam in jobs:
        walk = _walk_n2(q, *_entry_layout(cfg, pair, K, lam))
        if walk is not None:
            assert _count_n2(q, _entry_layout(cfg, pair, K, lam)) == enumerated_tally(q, qr, walk)
    clear_count_cache()


# -- the closed-form GL_2 tally against the enumerating one -----------------

# the most residues a random ball holds, q^width, by q
WIDTH = {3: 3, 5: 2, 7: 1, 11: 1}


def random_ball(rng, q):
    """A ball (center, floor, depth) around 0 or a centre below the floor:
    one monomial, or a leading monomial and random terms up to the floor,
    as a merged diagonal ball's centre may have; depth = floor at times."""
    floor = rng.randrange(-4, 4)
    depth = floor + rng.randrange(WIDTH[q] + 1)
    kind = rng.choice(("zero", "monomial", "terms"))
    if kind == "zero":
        return (), floor, depth
    a = floor - rng.randrange(1, 4)
    center = [(a, rng.randrange(1, q))]
    if kind == "terms":
        center += [(e, c) for e in range(a + 1, floor) for c in [rng.randrange(q)] if c]
    return tuple(center), floor, depth


def test_closed_form_tally_equals_the_enumerating_tally_on_random_walks():
    rng = random.Random("closed-form-tally")
    seen = set()
    for q in (3, 5, 7, 11):
        qr = _odd_q_squares(q)
        for _ in range(500):
            walk = tuple(random_ball(rng, q) for _ in range(3))
            count = _tally_n2(q, qr, walk)
            assert count == enumerated_tally(q, qr, walk), (q, walk)
            total = q ** sum(depth - floor for _, floor, depth in walk)
            seen.add((q, "none" if count == 0 else "all" if count == total else "some"))
            seen.update((q, "terms") for c, _, _ in walk if len(c) > 1)
            seen.update((q, "one residue") for _, floor, depth in walk if floor == depth)
    kinds = ("none", "some", "all", "terms", "one residue")
    assert seen == {(q, kind) for q in (3, 5, 7, 11) for kind in kinds}


def test_closed_form_tally_makes_a_product_per_stratum_pair_not_per_residue(monkeypatch):
    calls = []
    mul = measures.ser_mul

    def counting_mul(*args):
        calls.append(1)
        return mul(*args)

    monkeypatch.setattr(measures, "ser_mul", counting_mul)
    # the counter sees the tally's products
    _tally_n2(3, _odd_q_squares(3), ((((-1, 1),), 0, 1),) * 3)
    assert calls
    q, qr = 5, _odd_q_squares(5)
    # 5^4 and 5^6 off-diagonal residue pairs, around 0 and around centres
    for walk in [
        (((), 0, 3), ((), 1, 3), ((), -2, 0)),
        ((((-1, 1), (0, 3)), 1, 2), (((-1, 2),), 0, 3), ((), -1, 2)),
    ]:
        calls.clear()
        strata = [1 if c else depth - floor for c, floor, depth in walk]
        assert q ** sum(depth - floor for _, floor, depth in walk[1:]) >= 625
        count = _tally_n2(q, qr, walk)
        assert count == enumerated_tally(q, qr, walk) > 0
        # one square per stratum of u, one product per stratum pair of (v, w)
        assert len(calls) <= strata[0] + strata[1] * strata[2]


def test_clear_count_cache_empties_the_walk_tallies():
    clear_count_cache()
    count_measure(CFG2, O2, REG_PAIR, 2, pair_strict_bounds(CFG2, REG_PAIR))
    assert any(key[0] == "n2" for key in measures._COUNT_CACHE)
    clear_count_cache()
    assert not measures._COUNT_CACHE


def test_count_measure_hit_under_a_smaller_bound_still_raises():
    # GL_3 at q = 2, K = 2: the zero probe on the catalog lattice has 2^9
    # residues, so a value counted under the default bound is not returned
    # under bound 511 (the GL_2 count enumerates nothing and takes no bound)
    cfg = make_cfg(3, q=2)
    probes = choose_probes(cfg, 0)
    lam, O3 = shared_lattice(cfg, probes), OrbitLabel.of((3,))
    clear_count_cache()
    with pytest.raises(InfeasibleError):
        count_measure(cfg, O3, probes[0], 2, lam, enum_bound=511)
    assert count_measure(cfg, O3, probes[0], 2, lam) == Q(1, 64)
    with pytest.raises(InfeasibleError, match=r"2\^9 residues exceed the enumeration bound 511") as err:
        count_measure(cfg, O3, probes[0], 2, lam, enum_bound=511)
    assert err.value.where == "measures.count_measure"
    assert count_measure(cfg, O3, probes[0], 2, lam) == Q(1, 64)
    clear_count_cache()


def test_a_gl2_value_is_cached_under_one_key_whatever_the_bound(monkeypatch):
    # the GL_2 count reads no bound, so the bound is not part of its key:
    # the call under another bound is a hit, which lays out no entries
    clear_count_cache()
    value = count_measure(CFG2, O2, REG_PAIR, 2)
    values = [key for key in measures._COUNT_CACHE if key[0] != "n2"]
    assert len(values) == 1

    def no_layout(*args):
        raise AssertionError("a cache hit lays out no entries")

    monkeypatch.setattr(measures, "_entry_layout", no_layout)
    assert count_measure(CFG2, O2, REG_PAIR, 2, enum_bound=2 * 10**6) == value
    assert [key for key in measures._COUNT_CACHE if key[0] != "n2"] == values
    clear_count_cache()
