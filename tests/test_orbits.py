"""Dominance order, Jordan types, lifts, triple completion, the minimality
certificate."""

import itertools
import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes import gf, graded, orbits
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from mptypes.errors import InternalFault, ValidationError
from mptypes.graded import (
    GradedElement,
    coefficient_matrix,
    enumerate_graded_elements,
    is_degenerate,
)
from mptypes.laurent import LMatrix, ser_add
from mptypes.orbits import (
    OrbitLabel,
    SL2Triple,
    closure_order,
    debacker_lift,
    dominance_leq,
    jordan_type,
    minimality_probe,
    partitions_of,
    sl2_complete,
)
from mptypes.refine import DMPPair
from mptypes.selftest import criterion_6_minimality

import coset_sampler
from lift_oracle import (
    coeff,
    commutator,
    homogeneous_lift,
    identity_matrix,
    is_zero_matrix,
    mat_add,
    mat_sub,
    monomial,
    series,
    support_exponent,
    two_pass_lift,
    zero_matrix,
)
from quotient_oracle import checked_conjugate, random_quotient_element


def make_cfg(n, q=5, m=8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


CFG2 = make_cfg(2)
CFG3 = make_cfg(3)


def pt(*coords):
    return ApartmentPoint.of([Q(c) for c in coords])


def lmat(q, entries):
    return LMatrix.from_rows(q, [[series(q, dict(e)) for e in row] for row in entries])


def test_orbit_label_dims():
    assert OrbitLabel.zero(4).dim == 0
    assert OrbitLabel.of((4,)).dim == 12
    assert OrbitLabel.of((2, 2)).dim == 8
    assert OrbitLabel.of((2, 1)).dim == 4
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert lam.dim % 2 == 0
    with pytest.raises(ValidationError):
        OrbitLabel.of((1, 2))


def test_dominance_worked_examples():
    assert dominance_leq(OrbitLabel.of((1, 1)), OrbitLabel.of((2,)))
    assert dominance_leq(OrbitLabel.of((2, 2)), OrbitLabel.of((3, 1)))
    assert not dominance_leq(OrbitLabel.of((3, 1)), OrbitLabel.of((2, 2)))
    with pytest.raises(ValidationError):
        dominance_leq(OrbitLabel.of((2,)), OrbitLabel.of((2, 1)))


def test_dominance_is_partial_order_up_to_n6():
    for n in range(1, 7):
        ps = partitions_of(n)
        for a in ps:
            assert dominance_leq(a, a)
            for b in ps:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in ps:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


# p(0), ..., p(10)
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def partial_sums(parts, n):
    return tuple(itertools.accumulate(parts + (0,) * (n - len(parts))))


def test_partitions_of_matches_a_recomputation_up_to_n10():
    # every composition of n, sorted into a partition, then ordered by
    # partial sums: a linear extension of dominance
    for n in range(1, 11):
        found = set()
        for cuts in itertools.product((False, True), repeat=n - 1):
            sizes, run = [], 1
            for cut in cuts:
                if cut:
                    sizes.append(run)
                run = 1 if cut else run + 1
            found.add(tuple(sorted(sizes + [run], reverse=True)))
        expected = sorted(found, key=lambda parts: partial_sums(parts, n))
        assert len(expected) == PARTITION_COUNTS[n]
        assert [lam.parts for lam in partitions_of(n)] == expected
        assert type(partitions_of(n)) is tuple and partitions_of(n) is partitions_of(n)


def test_closure_order_is_dominance_on_partitions_of_up_to_n10():
    for n in range(1, 11):
        ps = partitions_of(n)
        table = closure_order(n)
        assert table == tuple(tuple(dominance_leq(a, b) for b in ps) for a in ps)
        assert table == tuple(
            tuple(
                all(x <= y for x, y in zip(partial_sums(a.parts, n), partial_sums(b.parts, n)))
                for b in ps
            )
            for a in ps
        )
        k = len(ps)
        # partitions_of extends the order, which is total up to n = 5 only
        assert not any(table[i][j] for i in range(k) for j in range(i))
        incomparable = sum(not table[i][j] for i in range(k) for j in range(i + 1, k))
        assert (incomparable == 0) == (n <= 5)
    assert sum(not closure_order(6)[i][j] for i in range(11) for j in range(i + 1, 11)) == 2


def test_from_ranks_inverts_rank_at_up_to_n6():
    for n in range(1, 7):
        for lam in partitions_of(n):
            ranks = [lam.rank_at(k) for k in range(1, n + 1)]
            assert OrbitLabel.from_ranks(n, ranks) == lam
    with pytest.raises(ValidationError):
        OrbitLabel.from_ranks(2, [2, 2])  # not nilpotent
    with pytest.raises(ValidationError):
        OrbitLabel.from_ranks(3, [1, 0])  # too few powers
    # a negative block count: read blindly, these gave (2,2) and a partition of 9
    for n, ranks in ((2, (2, 0)), (3, (1, 2, 0))):
        with pytest.raises(ValidationError, match="not those of a nilpotent"):
            OrbitLabel.from_ranks(n, ranks)


def test_rank_bound_is_dominance_up_to_n6():
    # rank_lambda(k) <= rank_mu(k) for all k exactly when lambda <= mu
    for n in range(1, 7):
        for a in partitions_of(n):
            for b in partitions_of(n):
                ranks_le = all(a.rank_at(k) <= b.rank_at(k) for k in range(1, n + 1))
                assert ranks_le == dominance_leq(a, b)


def jordan_matrix(q, parts, extra=None):
    """J_parts over F_q(t), plus an optional {(i, j): exponent} of t-powers."""
    n = sum(parts)
    entries = [[{} for _ in range(n)] for _ in range(n)]
    pos = 0
    for p in parts:
        for k in range(pos, pos + p - 1):
            entries[k][k + 1] = {0: 1}
        pos += p
    for (i, j), w in (extra or {}).items():
        entries[i][j] = {w: 1}
    return lmat(q, entries)


def is_type(mat, orbit):
    return mat.is_nilpotent() and jordan_type(mat) == orbit


def test_orbits_are_dense_in_their_closures_up_to_n4():
    # for every cover mu < lambda some matrix unit E puts J_mu + t^N E in
    # lambda for N = 1, 2, 3: the degeneration behind the closure ladder
    q = 5
    covers = 0
    for n in range(2, 5):
        ps = partitions_of(n)
        for mu in ps:
            for lam in ps:
                if mu == lam or not dominance_leq(mu, lam):
                    continue
                if any(
                    nu not in (mu, lam) and dominance_leq(mu, nu) and dominance_leq(nu, lam)
                    for nu in ps
                ):
                    continue
                covers += 1
                assert jordan_type(jordan_matrix(q, mu.parts)) == mu
                assert any(
                    all(
                        is_type(jordan_matrix(q, mu.parts, {(i, j): N}), lam)
                        for N in (1, 2, 3)
                    )
                    for i in range(n)
                    for j in range(n)
                    if i != j
                ), (mu, lam)
    assert covers == 1 + 2 + 4


def test_jordan_type_worked_examples():
    q = 5
    assert jordan_type(zero_matrix(q, 2)) == OrbitLabel.of((1, 1))
    m = lmat(q, [[{}, {-1: 1}], [{}, {}]])
    assert jordan_type(m) == OrbitLabel.of((2,))
    for b, c in [(1, 0), (0, 1), (2, 0)]:
        m = lmat(q, [[{}, {-1: b}], [{0: c}, {}]])
        assert jordan_type(m) == OrbitLabel.of((2,))
    with pytest.raises(ValidationError) as exc:
        jordan_type(lmat(q, [[{-1: 1}, {}], [{}, {}]]))
    assert "char-poly" in str(exc.value)


def test_debacker_lift_worked_examples():
    assert debacker_lift(CFG2, 1, GradedElement.zero(pt(0, 0), -1)) == OrbitLabel.of((1, 1))
    xi = pt(Q(1, 2), 0)
    el = GradedElement.make(CFG2, xi, Q(-1, 2), {(0, 1): 1})
    assert debacker_lift(CFG2, Q(1, 2), el) == OrbitLabel.of((2,))
    el3 = GradedElement.make(CFG3, pt(0, 0, 0), -1, {(0, 1): 2, (1, 2): 3})
    assert debacker_lift(CFG3, 1, el3) == OrbitLabel.of((3,))
    with pytest.raises(ValidationError):
        nondeg = GradedElement.make(CFG2, pt(0, 0), -1, {(0, 0): 1})
        debacker_lift(CFG2, 1, nondeg)


def lift_outcome(lift, cfg, s, el):
    """The orbit `lift` returns, or the (message, where) of its refusal."""
    try:
        return lift(cfg, s, el)
    except ValidationError as exc:
        return str(exc), exc.where


def test_debacker_lift_agrees_with_the_two_pass_oracle():
    # seeded elements of GL_2..GL_4 at q = 5: all support positions (mostly
    # non-degenerate) or those above the diagonal (degenerate), plus the
    # refused degrees: s = 0, s < 0 and a degree that is not -s
    rng = random.Random(41)
    outcomes = {"lift": 0, "non-degenerate": 0}
    for n in (2, 3, 4):
        cfg = make_cfg(n)
        for _ in range(120):
            d = rng.choice((1, 2, 8))
            x = pt(*(Q(rng.randrange(-d, d + 1), d) for _ in range(n)))
            s = Q(rng.randrange(1, 2 * d + 1), d)
            upper = rng.random() < 0.3
            sup = [p for p in graded_support(cfg, x, -s).positions if not upper or p[0] < p[1]]
            el = GradedElement.make(cfg, x, -s, {p: rng.randrange(cfg.q) for p in sup})
            got = lift_outcome(debacker_lift, cfg, s, el)
            assert got == lift_outcome(two_pass_lift, cfg, s, el), (el, got)
            outcomes["lift" if isinstance(got, OrbitLabel) else "non-degenerate"] += 1
            if isinstance(got, tuple):
                assert got == ("lift is defined only for degenerate elements", "orbits.debacker_lift")
        x0 = pt(*([0] * n))
        for s, el in (
            (0, GradedElement.zero(x0, 0)),
            (-1, GradedElement.zero(x0, 1)),
            (1, GradedElement.zero(x0, -2)),
        ):
            got = lift_outcome(debacker_lift, cfg, s, el)
            assert isinstance(got, tuple) and got == lift_outcome(two_pass_lift, cfg, s, el)
    assert min(outcomes.values()) >= 100, outcomes


def test_jordan_type_conjugation_invariance():
    rng = random.Random(17)
    q = 5
    for _ in range(200):
        n = rng.choice([2, 3])
        cfg = CFG2 if n == 2 else CFG3
        x = pt(*([0] * n))
        el = GradedElement.make(
            cfg,
            x,
            -1,
            {
                (i, j): rng.randrange(q)
                for i in range(n)
                for j in range(n)
                if i < j or (i > j and rng.random() < 0.3)
            },
        )
        if not is_degenerate(cfg, el):
            continue
        lift = homogeneous_lift(cfg, el)
        base_type = jordan_type(lift)
        # conjugation by a random invertible monomial matrix over F_q(t)
        perm = list(range(n))
        rng.shuffle(perm)
        rowsg = [
            [
                monomial(q, rng.randrange(-1, 2), rng.randrange(1, q))
                if perm[i] == j
                else ()
                for j in range(n)
            ]
            for i in range(n)
        ]
        g = LMatrix.from_rows(q, rowsg)
        ginv_rows = [[() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            e = g.entry(i, perm[i])
            w, c = e[0]
            ginv_rows[perm[i]][i] = monomial(q, -w, pow(c, q - 2, q))
        ginv = LMatrix.from_rows(q, ginv_rows)
        assert (g @ ginv) == identity_matrix(q, n)
        assert jordan_type(g @ lift @ ginv) == base_type


def test_debacker_lift_quotient_invariance():
    rng = random.Random(29)
    cases = [
        (CFG2, pt(0, 0), Q(1)),
        (CFG2, pt(Q(1, 2), 0), Q(1, 2)),
        (CFG3, pt(Q(1, 2), 0, 0), Q(1, 2)),
    ]
    done = 0
    while done < 200:
        cfg, x, s = rng.choice(cases)
        sup = graded_support(cfg, x, -s)
        el = GradedElement.make(
            cfg, x, -s, {p: rng.randrange(cfg.q) for p in sup.positions}
        )
        if not is_degenerate(cfg, el):
            continue
        g = random_quotient_element(cfg, x, rng)
        assert debacker_lift(cfg, s, el) == debacker_lift(cfg, s, checked_conjugate(cfg, el, g))
        done += 1


def test_lift_is_witnessed_in_coset_exhaustively():
    # n=2, q=5: for every degenerate phi the homogeneous lift itself lies in
    # the coset and realizes the lift orbit
    for x, s in [(pt(0, 0), Q(1)), (pt(0, 0), Q(1, 2)), (pt(Q(1, 2), 0), Q(1, 2)), (pt(Q(1, 2), 0), Q(1))]:
        for el in enumerate_graded_elements(CFG2, x, -s):
            if not is_degenerate(CFG2, el):
                continue
            lift = homogeneous_lift(CFG2, el)
            assert jordan_type(lift) == debacker_lift(CFG2, s, el)


def test_sl2_worked_examples():
    # Phi = t^-1 e_12: H = diag(1,-1), E = t e_21
    x = pt(0, 0)
    el = GradedElement.make(CFG2, x, -1, {(0, 1): 1})
    tr = sl2_complete(CFG2, el)
    assert tr.Phi == el
    assert tr.H == GradedElement.make(CFG2, x, 0, {(0, 0): 1, (1, 1): -1})
    assert tr.E == GradedElement.make(CFG2, x, 1, {(1, 0): 1})
    assert homogeneous_lift(CFG2, tr.E).entry(1, 0) == monomial(5, 1, 1)
    # zero element: degenerate triple
    tz = sl2_complete(CFG2, GradedElement.zero(x, -1))
    assert tz.H == GradedElement.zero(x, 0) and tz.E == GradedElement.zero(x, 1)
    # principal triple for n = 3
    x3 = pt(0, 0, 0)
    el3 = GradedElement.make(CFG3, x3, -1, {(0, 1): 1, (1, 2): 1})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg_big = GroupConfig(n=3, q=7, m=8)
    tr3 = sl2_complete(cfg_big, el3)
    assert tr3.H == GradedElement.make(cfg_big, x3, 0, {(0, 0): 2, (2, 2): -2})
    assert tr3.E == GradedElement.make(cfg_big, x3, 1, {(1, 0): 2, (2, 1): 2})


def test_sl2_bracket_identities_on_random_instances():
    rng = random.Random(31)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = GroupConfig(n=3, q=11, m=8)
    x = pt(Q(1, 2), 0, 0)
    done = 0
    while done < 25:
        sup = graded_support(cfg, x, Q(-1, 2))
        el = GradedElement.make(
            cfg, x, Q(-1, 2), {p: rng.randrange(cfg.q) for p in sup.positions}
        )
        if not is_degenerate(cfg, el):
            continue
        assert oracle_triple_ok(cfg, sl2_complete(cfg, el))
        done += 1


def test_sl2_refuses_small_q():
    with pytest.raises(ValidationError):
        el3 = GradedElement.make(CFG3, pt(0, 0, 0), -1, {(0, 1): 1})
        sl2_complete(CFG3, el3)


def test_sl2_complete_refuses_a_non_nilpotent_element():
    # A = e_12 + e_21 squares to diag(1, 1, 0): both entries sit on the
    # support of g_{x=-1/2} at x = (1/2, 0, 0), but A is not nilpotent
    cfg = make_cfg(3, 7)
    el = GradedElement.make(cfg, pt(Q(1, 2), 0, 0), Q(-1, 2), {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValidationError, match="nilpotent coefficient matrix"):
        sl2_complete(cfg, el)


def oracle_triple_ok(cfg, triple):
    """The LMatrix check sl2_complete ran before it read coefficient
    matrices: a member with a coefficient off the support of its piece
    fails before anything is lifted; then the three brackets as
    commutators of the members' homogeneous lifts over F_q((t)), and the
    lifts of H and E entry by entry against the graded supports of
    degrees 0 and minus Phi's degree at their own points."""
    for part in (triple.Phi, triple.H, triple.E):
        support = set(graded_support(cfg, part.x, part.degree, _checked=True).positions)
        if any(pos not in support for pos, _ in part.coeffs):
            return False
    e, h, f = (homogeneous_lift(cfg, part) for part in (triple.Phi, triple.H, triple.E))
    for diff in (
        mat_sub(commutator(h, e), mat_add(e, e)),
        mat_add(commutator(h, f), mat_add(f, f)),
        mat_sub(commutator(e, f), h),
    ):
        if not is_zero_matrix(diff):
            return False
    for part, lift, deg in ((triple.H, h, Q(0)), (triple.E, f, -triple.Phi.degree)):
        sup = graded_support(cfg, part.x, deg, _checked=True)
        for i in range(cfg.n):
            for j in range(cfg.n):
                entry = lift.entry(i, j)
                if entry and (len(entry) > 1 or support_exponent(sup, i, j) != entry[0][0]):
                    return False
    return True


def check_triple_ok(cfg, triple):
    try:
        orbits._check_triple(cfg, triple)
    except InternalFault:
        return False
    return True


def with_coeff(part, i, j, c):
    """part with its (i, j) coefficient set to c mod q, unchecked: the
    position may lie off the support of part's piece."""
    coeffs = dict(part.coeffs)
    coeffs[(i, j)] = c
    return GradedElement(
        x=part.x, degree=part.degree, coeffs=tuple(sorted((p, v) for p, v in coeffs.items() if v))
    )


def nilpotent_instance(cfg, x, s, rng):
    """A nonzero nilpotent element of g_{x=-s}: random coefficients on the
    support positions above the diagonal of a random index order, then
    conjugated by a random element of the reductive quotient at x."""
    order = list(range(cfg.n))
    rng.shuffle(order)
    rank = {i: k for k, i in enumerate(order)}
    upper = [p for p in graded_support(cfg, x, -s).positions if rank[p[0]] < rank[p[1]]]
    if not upper:
        return None
    el = GradedElement.make(cfg, x, -s, {p: rng.randrange(cfg.q) for p in upper})
    el = checked_conjugate(cfg, el, random_quotient_element(cfg, x, rng))
    return None if el.is_zero() else el


# (n, q, point denominator): GL_2 at q = 5, GL_3 at q = 7 and 11, GL_4 at q = 11
TRIPLE_GRID = [(n, q, d) for n, q in ((2, 5), (3, 7), (3, 11), (4, 11)) for d in (1, 2)]


def test_coefficient_check_agrees_with_the_laurent_oracle():
    # 8 grid cells x 26 nonzero nilpotent elements: each genuine triple,
    # the triple conjugated by the reductive quotient (genuine again), and
    # one member perturbed homogeneously or by an off-support coefficient;
    # both checks must give the same verdict
    rng = random.Random(41)
    seen, elements = set(), 0
    for n, q, d in TRIPLE_GRID:
        cfg = make_cfg(n, q)
        done = 0
        while done < 26:
            x = pt(*(Q(rng.randrange(-2 * d, 2 * d + 1), d) for _ in range(n)))
            s = Q(rng.randrange(1, 5), 2)
            el = nilpotent_instance(cfg, x, s, rng)
            if el is None:
                continue
            triple = sl2_complete(cfg, el)
            c = random_quotient_element(cfg, x, rng)
            parts = (triple.Phi, triple.H, triple.E)
            turned = SL2Triple(*(checked_conjugate(cfg, m, c) for m in parts))
            forged = [triple, turned]
            for name in ("Phi", "H", "E"):
                part = getattr(triple, name)
                i, j = rng.randrange(n), rng.randrange(n)
                # on the support a homogeneous change, off it an off-support coefficient
                bumped = with_coeff(part, i, j, (coeff(part, i, j) + rng.randrange(1, q)) % q)
                forged.append(SL2Triple(**{**vars(triple), name: bumped}))
            for t in forged:
                verdict = oracle_triple_ok(cfg, t)
                assert check_triple_ok(cfg, t) == verdict, (n, q, x, s, el, t)
                seen.add(verdict)
            assert oracle_triple_ok(cfg, triple) and oracle_triple_ok(cfg, turned)
            done += 1
            elements += 1
    assert elements >= 200 and seen == {True, False}


def worked_triple():
    """At x = (1/2, 0, 0): Phi = t^-1 e_12 + e_31 is regular, H = diag(0, -2, 2)."""
    cfg = make_cfg(3, 7)
    x = pt(Q(1, 2), 0, 0)
    el = GradedElement.make(cfg, x, Q(-1, 2), {(0, 1): 1, (2, 0): 1})
    return cfg, sl2_complete(cfg, el)


def forge(name):
    cfg, tr = worked_triple()
    x = tr.Phi.x
    if name == "E doubled":
        doubled = {p: 2 * c for p, c in tr.E.coeffs}
        return cfg, SL2Triple(tr.Phi, tr.H, GradedElement.make(cfg, x, tr.E.degree, doubled))
    if name == "H diagonal swapped":
        h1, h2 = coeff(tr.H, 1, 1), coeff(tr.H, 2, 2)
        assert h1 != h2
        return cfg, SL2Triple(tr.Phi, with_coeff(with_coeff(tr.H, 1, 1, h2), 2, 2, h1), tr.E)
    if name == "off-support monomial":
        # degree - x_0 + x_1 = -1/2 is not an integer: (0, 1) is off the support of H
        return cfg, SL2Triple(tr.Phi, with_coeff(tr.H, 0, 1, 1), tr.E)
    if name == "H raised to degree 1":
        # t H is homogeneous of degree 1 with H's coefficient matrix, so
        # only the degree check tells it from H
        return cfg, SL2Triple(tr.Phi, GradedElement.make(cfg, x, 1, dict(tr.H.coeffs)), tr.E)
    if name == "E at another point":
        # x + (1, 0, 0) has x's residue classes, so E's coefficients stay on
        # the support there, but its lift has other exponents
        y = pt(Q(3, 2), 0, 0)
        return cfg, SL2Triple(tr.Phi, tr.H, GradedElement.make(cfg, y, tr.E.degree, dict(tr.E.coeffs)))
    if name == "conjugated across residue classes":
        # g = 1 + e_12 mixes the residue classes of x, so conjugating by it
        # keeps the coefficient brackets but moves coefficients off the
        # supports: only the support check refuses this triple
        field = gf.prime_field(cfg.q)
        g = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        g_inv = gf.mat_inv(g, field)
        return cfg, SL2Triple(*(
            graded.element_from_matrix(x, m.degree, gf.mat_mul(
                gf.mat_mul(g, coefficient_matrix(cfg, m), field), g_inv, field
            ))
            for m in (tr.Phi, tr.H, tr.E)
        ))
    assert name == "Phi swapped"
    other = GradedElement.make(cfg, x, Q(-1, 2), {(0, 2): 1, (1, 0): 1})
    return cfg, SL2Triple(other, tr.H, tr.E)


FORGERIES = (
    "E doubled", "H diagonal swapped", "off-support monomial", "Phi swapped",
    "H raised to degree 1", "E at another point", "conjugated across residue classes",
)


@pytest.mark.parametrize("name", FORGERIES)
def test_check_triple_faults_on_forged_triples(name):
    cfg, genuine = worked_triple()
    orbits._check_triple(cfg, genuine)
    cfg, forged = forge(name)
    assert forged != genuine and not oracle_triple_ok(cfg, forged)
    with pytest.raises(InternalFault, match="triple identity|not homogeneous"):
        orbits._check_triple(cfg, forged)


def test_check_triple_names_the_points_it_compares():
    cfg, forged = forge("E at another point")
    with pytest.raises(InternalFault) as err:
        orbits._check_triple(cfg, forged)
    assert str(err.value) == (
        "triple member E is not homogeneous of degree 1/2 at x = (1/2,0,0): it has "
        "degree 1/2 at x = (3/2,0,0)"
    )


def test_sl2_complete_multiplies_no_laurent_matrices(monkeypatch):
    def refuse(*args):
        raise AssertionError("LMatrix built or multiplied")

    monkeypatch.setattr(LMatrix, "__matmul__", refuse)  # commutator multiplies with @
    monkeypatch.setattr(LMatrix, "from_rows", staticmethod(refuse))
    _, tr = worked_triple()
    assert coeff(tr.H, 2, 2) == 2
    rng = random.Random(43)
    for cfg, x, s, el in degenerate_instances(4, 11, 10, rng):
        sl2_complete(cfg, el)


def test_sl2_complete_computes_each_support_once(monkeypatch):
    # one graded_support per triple member: Phi, H and E
    calls = []
    real = orbits.graded_support

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(orbits, "graded_support", counted)
    rng = random.Random(47)
    instances = degenerate_instances(3, 11, 20, rng) + degenerate_instances(4, 11, 20, rng)
    for cfg, x, s, el in instances:
        del calls[:]
        triple = sl2_complete(cfg, el)
        assert len(calls) <= 3
        if not el.is_zero():
            assert calls == [(x, -s), (x, 0), (x, s)], calls
            assert oracle_triple_ok(cfg, triple)


def test_minimality_probe_worked_examples():
    zero = GradedElement.zero(pt(0, 0), -1)
    assert minimality_probe(CFG2, DMPPair.make(CFG2, 1, pt(0, 0), zero))
    el = GradedElement.make(CFG2, pt(0, 0), -1, {(0, 1): 1})
    assert minimality_probe(CFG2, DMPPair.make(CFG2, 1, pt(0, 0), el))
    xi = pt(Q(1, 2), 0)
    eli = GradedElement.make(CFG2, xi, Q(-1, 2), {(0, 1): 1})
    assert minimality_probe(CFG2, DMPPair.make(CFG2, Q(1, 2), xi, eli))
    # phi's monomials sit at degree -1 at its own point (0, 0), not at (1, 0)
    # (H1); DMPPair.make refuses such a pair, so it is built field by field
    moved = DMPPair(s=Q(1), x=pt(1, 0), phi=el, lift=debacker_lift(CFG2, 1, el))
    assert not minimality_probe(CFG2, moved)


def test_minimality_probe_refuses_a_forged_lift():
    # (H3) holds for every partition, so only (H0) ties the lift to phi: the
    # true lift of t^-1 e12 at q = 5 is (2), and the pair carrying (1,1) is
    # refused
    el = GradedElement.make(CFG2, pt(0, 0), -1, {(0, 1): 1})
    forged = DMPPair(s=Q(1), x=pt(0, 0), phi=el, lift=OrbitLabel.of((1, 1)))
    assert DMPPair.make(CFG2, 1, pt(0, 0), el).lift == OrbitLabel.of((2,))
    assert minimality_probe(CFG2, forged) is False
    # every wrong partition, on every phi of the GL_2 and GL_3 Jordan patterns
    for cfg in (CFG2, CFG3):
        x = pt(*[0] * cfg.n)
        for lam in partitions_of(cfg.n):
            coeffs, pos = {}, 0
            for p in lam.parts:
                coeffs.update({(pos + k, pos + k + 1): 1 for k in range(p - 1)})
                pos += p
            phi = GradedElement.make(cfg, x, -1, coeffs)
            assert minimality_probe(cfg, DMPPair.make(cfg, 1, x, phi))
            for mu in partitions_of(cfg.n):
                pair = DMPPair(s=Q(1), x=x, phi=phi, lift=mu)
                assert minimality_probe(cfg, pair) is (mu == lam)
    # a non-nilpotent phi is refused under any lift, without raising
    diag = GradedElement.make(CFG2, pt(0, 0), -1, {(0, 0): 1})
    for mu in partitions_of(2):
        assert minimality_probe(CFG2, DMPPair(s=Q(1), x=pt(0, 0), phi=diag, lift=mu)) is False


# -- the rank bound the certificate proves, checked on sampled coset elements


def random_coset_element(cfg, s, x, phi, depth, rng):
    """Random element of phi + g_{x>-s} with entries truncated at t^depth."""
    strict = mp_lattice(cfg, x, -s, strict=True, _checked=True)
    lift = homogeneous_lift(cfg, phi)
    rows = []
    for i in range(cfg.n):
        row = []
        for j in range(cfg.n):
            d = {}
            for w in range(strict.bounds[i][j], depth + 1):
                c = rng.randrange(cfg.q)
                if c:
                    d[w] = c
            row.append(ser_add(lift.entry(i, j), series(cfg.q, d), cfg.q))
        rows.append(row)
    return LMatrix.from_rows(cfg.q, rows)


def oracle_probe(cfg, s, x, phi, samples, depth, seed):
    """Every sample a full matrix from its own stream, run to the end:
    (verdict, trace-zero samples, nilpotent indices)."""
    lift_orbit = debacker_lift(cfg, s, phi)
    verdict, trace_zero, nilpotent = True, {}, []
    for k in range(samples):
        sample = random_coset_element(cfg, s, x, phi, depth, random.Random(f"{seed}:{k}"))
        trace = ()
        for i in range(cfg.n):
            trace = ser_add(trace, sample.entry(i, i), cfg.q)
        if not trace:
            trace_zero[k] = sample
        if sample.is_nilpotent():
            nilpotent.append(k)
            verdict = verdict and orbits.dominance_leq(lift_orbit, jordan_type(sample))
    return verdict, trace_zero, nilpotent


def degenerate_instances(n, q, count, rng):
    cfg = make_cfg(n, q)
    out = []
    while len(out) < count:
        d, ds = rng.choice((1, 2, 4, 8)), rng.choice((1, 2, 4))
        x = pt(*(Q(rng.randrange(-d, d + 1), d) for _ in range(n)))
        s = Q(rng.randrange(1, 2 * ds + 1), ds)
        sup = graded_support(cfg, x, -s)
        el = GradedElement.make(cfg, x, -s, {p: rng.randrange(q) for p in sup.positions})
        if is_degenerate(cfg, el):
            out.append((cfg, x, s, el))
    return out


def assert_in_coset_with_zero_trace(cfg, s, x, el, depth, sample):
    """sample - lift lies in g_{x>-s} and stops at t^depth; the trace is 0."""
    strict = mp_lattice(cfg, x, -s, strict=True, _checked=True).bounds
    diff = mat_sub(sample, homogeneous_lift(cfg, el))
    trace = ()
    for i in range(cfg.n):
        trace = ser_add(trace, sample.entry(i, i), cfg.q)
        for j in range(cfg.n):
            assert all(strict[i][j] <= w <= depth for w, _ in diff.entry(i, j))
    assert not trace


GRID = ((2, 3), (3, 3), (3, 5), (4, 3), (2, 2), (3, 2), (3, 7), (2, 11), (3, 13))


def test_sampled_coset_elements_obey_the_certified_rank_bound():
    """Over F_q(t), independently of the certificate: every sampled Z in
    phi + g_{x>-s} has rank Z^k >= rank A^k for k = 1..n, and every
    nilpotent sample has a Jordan type dominating the lift.  At depth
    the diagonal strict bound each diagonal entry gets one draw, so the
    trace vanishes often enough for many samples to be nilpotent."""
    rng = random.Random("certified-rank-bound")
    samples = nilpotent = above = 0
    for n, q in GRID:
        for cfg, x, s, el in degenerate_instances(n, q, 12, rng):
            pair = DMPPair.make(cfg, s, x, el)
            assert minimality_probe(cfg, pair)
            lift = pair.lift
            depth = mp_lattice(cfg, x, -s, strict=True).bounds[0][0]
            for _ in range(36):
                z = random_coset_element(cfg, s, x, el, depth, rng)
                power = z
                for k in range(1, n + 1):
                    assert power.rank() >= lift.rank_at(k)
                    power = power @ z
                samples += 1
                if z.is_nilpotent():
                    orbit = jordan_type(z)
                    assert dominance_leq(lift, orbit)
                    nilpotent += 1
                    above += orbit != lift
    assert samples == 36 * 12 * len(GRID) and nilpotent > 100 and above


# -- the trace-first sampler, and the plain per-sample loop as its oracle ---


@pytest.mark.parametrize("n, q", GRID)
def test_trace_zero_samples_are_coset_elements_at_the_binomial_rate(n, q):
    """100 samples per instance at one or two trace exponents L, i.e. the
    diagonal bound as depth or one more.  The sum of n uniform diagonal
    draws is uniform, so a sample's trace vanishes with probability
    q^-L, and the trace-zero count must lie within six standard
    deviations of that binomial mean."""
    rng = random.Random(f"trace-rate:{n}:{q}")
    zero = mean = var = 0
    for seed, (cfg, x, s, el) in enumerate(degenerate_instances(n, q, 12, rng)):
        L = 1 + seed % 2
        depth = mp_lattice(cfg, x, -s, strict=True).bounds[0][0] + L - 1
        lift_orbit = debacker_lift(cfg, s, el)
        for sample in coset_sampler.trace_zero_samples(cfg, s, x, el, 100, depth, seed):
            assert_in_coset_with_zero_trace(cfg, s, x, el, depth, sample)
            if sample.is_nilpotent():
                assert dominance_leq(lift_orbit, jordan_type(sample))
            zero += 1
        p = Q(1, q**L)
        mean += 100 * p
        var += 100 * p * (1 - p)
    assert (zero - mean) ** 2 <= 36 * var


def test_more_than_100_trace_first_samples_reach_the_nilpotent_branch():
    """The certified instances, checked on the nilpotents the trace-first
    sampler finds: each has a Jordan type dominating the lift."""
    rng = random.Random("trace-first")
    nilpotent = 0
    for n, q in GRID:
        for seed, (cfg, x, s, el) in enumerate(degenerate_instances(n, q, 12, rng)):
            pair = DMPPair.make(cfg, s, x, el)
            assert minimality_probe(cfg, pair)
            lift_orbit = pair.lift
            depth = mp_lattice(cfg, x, -s, strict=True).bounds[0][0]  # one draw per diagonal slot
            for sample in coset_sampler.trace_zero_samples(cfg, s, x, el, 100, depth, seed):
                if sample.is_nilpotent():
                    assert dominance_leq(lift_orbit, jordan_type(sample))
                    nilpotent += 1
    assert nilpotent > 100


def test_the_seed_fixes_the_samples():
    rng = random.Random("trace-seed")
    for n, q in ((2, 3), (3, 2), (3, 7)):
        for cfg, x, s, el in degenerate_instances(n, q, 3, rng):
            depth = mp_lattice(cfg, x, -s, strict=True).bounds[0][0]
            runs = {
                seed: list(coset_sampler.trace_zero_samples(cfg, s, x, el, 100, depth, seed))
                for seed in (0, 1, -1)
            }
            assert runs[0] and runs[1] and runs[-1]
            assert runs[0] == list(coset_sampler.trace_zero_samples(cfg, s, x, el, 100, depth, 0))
            assert runs[0] != runs[1] and runs[1] != runs[-1]


@pytest.mark.parametrize("n, q", [(3, 7), (4, 11)])
def test_trace_first_probe_matches_the_old_loop_at_benchmark_depth(n, q):
    """The two falsification runs agree with each other and with the
    certificate on the shape of the lifts benchmark: 200 samples at depth 3."""
    rng = random.Random(f"bench-shaped:{n}")
    for seed, (cfg, x, s, el) in enumerate(degenerate_instances(n, q, 2, rng)):
        verdict, _, _ = oracle_probe(cfg, s, x, el, 200, 3, seed)
        assert coset_sampler.trace_first_probe(cfg, s, x, el, 200, 3, seed) == verdict
        assert minimality_probe(cfg, DMPPair.make(cfg, s, x, el)) == verdict


def test_a_failing_dominance_check_fails_both_probes(monkeypatch):
    cfg = make_cfg(2, 3)
    x, s, el = pt(0, 0), Q(1), GradedElement.zero(pt(0, 0), -1)
    _, _, nilpotent = oracle_probe(cfg, s, x, el, 100, 0, 0)
    assert nilpotent  # constant 2 x 2 samples over F_3: some are nilpotent
    monkeypatch.setattr(orbits, "dominance_leq", lambda a, b: False)
    assert oracle_probe(cfg, s, x, el, 100, 0, 0)[0] is False
    assert minimality_probe(cfg, DMPPair.make(cfg, s, x, el)) is False


# -- mutations the certificate must refuse --------------------------------


def swapped_dominance(monkeypatch):
    real = orbits.dominance_leq
    monkeypatch.setattr(orbits, "dominance_leq", lambda a, b: real(b, a))


def non_strict_bound(monkeypatch):
    real = orbits.mp_lattice
    monkeypatch.setattr(
        orbits, "mp_lattice", lambda cfg, x, s, strict=False, **kw: real(cfg, x, s, **kw)
    )


@pytest.mark.parametrize("mutate", [swapped_dominance, non_strict_bound])
def test_a_mutated_certificate_fails_the_probe_and_criterion_6(monkeypatch, mutate):
    pair = DMPPair.make(CFG2, 1, pt(0, 0), GradedElement.make(CFG2, pt(0, 0), -1, {(0, 1): 1}))
    assert minimality_probe(CFG2, pair)
    assert criterion_6_minimality(CFG2)[0]
    mutate(monkeypatch)
    assert not minimality_probe(CFG2, pair)
    # the sweep's first pair, the zero element at (0,0), s = 1, is refused
    assert criterion_6_minimality(CFG2) == (False, "certificate refused at (0,0), s=1")


# -- block draws against the randrange stream they reproduce ---------------


class CountingRandom(random.Random):
    """Counts getrandbits calls, to see which path a draw took."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def randrange_list(seed, q, count):
    """The oracle: what the per-sample loop draws."""
    rng = random.Random(seed)
    return [rng.randrange(q) for _ in range(count)]


@pytest.mark.parametrize("q", [*range(2, 256), 257])
def test_uniform_draws_equal_the_randrange_list(q):
    for seed in ("0:0", "7:199", "uniform", "-3:41"):
        for count in (0, 1, 47, 500):
            draws = coset_sampler.uniform_draws(random.Random(seed), q, count)
            assert list(draws) == randrange_list(seed, q, count)


@pytest.mark.parametrize("q", [2, 17])
def test_uniform_draws_top_up_a_short_block(q):
    """At q = 2 and 17 about half the top bytes are rejected, so some first
    blocks of 2 * 47 + 16 words hold fewer than 47 draws."""
    topped_up = 0
    for k in range(300):
        rng = CountingRandom(f"short:{k}")
        assert list(coset_sampler.uniform_draws(rng, q, 47)) == randrange_list(f"short:{k}", q, 47)
        topped_up += rng.calls > 1
    assert topped_up >= 2


def test_uniform_draws_take_one_block_per_sample_when_it_suffices():
    rng = CountingRandom("one-block")
    draws = coset_sampler.uniform_draws(rng, 7, 82)  # as many draws as the largest lifts sample
    # the byte path, not the randrange fallback, and no second block
    assert rng.calls == 1 and isinstance(draws, bytes) and len(draws) == 82
