"""Graded elements: degeneracy, lifts, profiles, orbits under unipotents."""

import itertools
import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes import gf, graded
from mptypes.apartment import (
    ApartmentPoint, GroupConfig, graded_support, inclusion_chain_ok, residue_classes
)
from mptypes.errors import InternalFault, ValidationError
from mptypes.graded import (
    GradedElement,
    coefficient_matrix,
    enumerate_graded_elements,
    graded_jordan_chains,
    is_degenerate,
    monomials,
    regrade,
    unipotent_image,
    unipotent_orbit_count,
)
from mptypes.laurent import LMatrix
from mptypes.orbits import debacker_lift, jordan_type, sl2_complete

from lift_oracle import graded_image, homogeneous_lift, is_zero_matrix, monomial
from quotient_oracle import (
    checked_conjugate, checked_element, checked_orbit, random_quotient_element, rank_profile
)


def make_cfg(n, q=5, m=8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


def pt(*coords):
    return ApartmentPoint.of([Q(c) for c in coords])


CFG2 = make_cfg(2)
CFG3 = make_cfg(3)


def phi2(x, s, coeffs):
    return GradedElement.make(CFG2, x, -Q(s), coeffs)


def test_degeneracy_worked_examples():
    x0 = pt(0, 0)
    assert is_degenerate(CFG2, phi2(x0, 1, {(0, 1): 1}))
    assert not is_degenerate(CFG2, phi2(x0, 1, {(0, 0): 1}))
    xi = pt(Q(1, 2), 0)
    for b in range(5):
        for c in range(5):
            el = phi2(xi, Q(1, 2), {(0, 1): b, (1, 0): c})
            assert is_degenerate(CFG2, el) == (b * c % 5 == 0)


def test_degeneracy_rejects_nonnegative_degree():
    with pytest.raises(ValidationError):
        is_degenerate(CFG2, GradedElement.make(CFG2, pt(0, 0), 0, {(0, 1): 1}))


def test_homogeneous_lift_worked_examples():
    xi = pt(Q(1, 2), 0)
    el = phi2(xi, Q(1, 2), {(0, 1): 2, (1, 0): 3})
    lift = homogeneous_lift(CFG2, el)
    assert lift.entry(0, 1) == monomial(5, -1, 2)
    assert lift.entry(1, 0) == monomial(5, 0, 3)
    assert lift.entry(0, 0) == ()
    # zero element lifts to the zero matrix
    z = homogeneous_lift(CFG2, GradedElement.zero(xi, Q(-1, 2)))
    assert is_zero_matrix(z)
    # n = 3 regular pattern at integral level: exponent -1 everywhere
    el3 = GradedElement.make(CFG3, pt(0, 0, 0), -1, {(0, 1): 1, (1, 2): 1})
    lift3 = homogeneous_lift(CFG3, el3)
    assert lift3.entry(0, 1) == monomial(5, -1, 1)
    assert lift3.entry(1, 2) == monomial(5, -1, 1)


def test_graded_image_round_trip():
    xi = pt(Q(1, 2), 0)
    el = phi2(xi, Q(1, 2), {(0, 1): 2, (1, 0): 3})
    lift = homogeneous_lift(CFG2, el)
    assert graded_image(CFG2, lift, xi, Q(-1, 2)) == el


def random_point(rng, n, d):
    return pt(*(Q(rng.randrange(-2 * d, 2 * d + 1), d) for _ in range(n)))


def test_regrade_and_monomials_match_the_lift_oracle():
    # elements of random GL_2 and GL_3 pieces at q = 3, each read in random
    # targets and in targets near its own piece; the oracle builds the
    # Laurent lift and reads it back with graded_image
    rng = random.Random(53)
    outcomes = set()
    for n in (2, 3):
        cfg = make_cfg(n, q=3, m=4)
        for _ in range(300):
            x, degree = random_point(rng, n, 4), Q(rng.randrange(-8, 5), 4)
            sup = graded_support(cfg, x, degree)
            el = GradedElement.make(cfg, x, degree, {p: rng.randrange(3) for p in sup.positions})
            lift = homogeneous_lift(cfg, el)
            assert monomials(el) == [
                (i, j, w, c) for i in range(n) for j in range(n) for w, c in lift.entry(i, j)
            ]
            targets = [(random_point(rng, n, 4), Q(rng.randrange(-8, 5), 4)) for _ in range(4)]
            targets += [(x, degree), (x, degree - Q(1, 4)), (x, degree + Q(1, 4))]
            targets.append((pt(*(c + Q(rng.randrange(-1, 2), 4) for c in x.coords)), degree))
            for y, target in targets:
                try:
                    expected = graded_image(cfg, lift, y, target)
                except ValidationError:
                    expected = None
                assert regrade(cfg, el, y, target) == expected, (el, y, target)
                outcomes.add("refused" if expected is None else expected.is_zero())
    assert outcomes == {"refused", True, False}


def test_rank_profile_worked_examples():
    # zero element: all ranks 0
    g, blocks = rank_profile(CFG2, GradedElement.zero(pt(0, 0), -1))
    assert g == (0, 0)
    # regular nilpotent pattern, n=2
    g, _ = rank_profile(CFG2, phi2(pt(0, 0), 1, {(0, 1): 1}))
    assert g == (1, 0)
    # n=3 pattern with two superdiagonal entries
    el3 = GradedElement.make(CFG3, pt(0, 0, 0), -1, {(0, 1): 2, (1, 2): 3})
    g, _ = rank_profile(CFG3, el3)
    assert g == (2, 1, 0)


def lift_oracle(cfg, el):
    """The F_q(t) path: nilpotence, Bareiss ranks of the lift's powers and
    of their column blocks, and the Jordan type when nilpotent."""
    lift = homogeneous_lift(cfg, el)
    n = cfg.n
    powers = [lift]
    for _ in range(n - 1):
        powers.append(powers[-1] @ lift)
    ranks = tuple(p.rank() for p in powers)
    blocks = tuple(
        (res, tuple(LMatrix.from_rows(p.q, [[r[j] for j in idx] for r in p.rows]).rank()
                    for p in powers))
        for res, idx in residue_classes(el.x)
    )
    nilpotent = lift.is_nilpotent()
    return nilpotent, (ranks, blocks), jordan_type(lift) if nilpotent else None


def assert_matches_lift_oracle(cfg, el):
    nilpotent, profile, jtype = lift_oracle(cfg, el)
    assert is_degenerate(cfg, el) == nilpotent, el
    assert rank_profile(cfg, el) == profile, el
    if nilpotent:
        assert debacker_lift(cfg, -el.degree, el) == jtype, el
    return nilpotent


def test_graded_invariants_match_lift_oracle_on_criterion_1_pieces():
    # every element of the four n = 2 pieces criterion 1 sweeps
    checked = degenerate = 0
    pieces = [(pt(0, 0), 1), (pt(0, 0), Q(1, 2)), (pt(Q(1, 2), 0), Q(1, 2)), (pt(Q(1, 2), 0), 1)]
    for x, s in pieces:
        for el in enumerate_graded_elements(CFG2, x, -Q(s)):
            degenerate += assert_matches_lift_oracle(CFG2, el)
            checked += 1
    assert (checked, degenerate) == (5**4 + 1 + 5**2 + 5**2, 36)


@pytest.mark.parametrize(
    "n, x, levels",
    [
        (3, (Q(1, 2), Q(1, 4), 0), (Q(1, 4), Q(1, 2), Q(3, 4), 1)),
        (4, (Q(3, 4), Q(1, 2), Q(1, 4), 0), (Q(1, 4), Q(1, 2), Q(3, 4), 1)),
        (4, (Q(1, 2), Q(1, 2), 0, 0), (Q(1, 2), 1)),
    ],
)
def test_graded_invariants_match_lift_oracle_at_fractional_points(n, x, levels):
    # seeded sparse elements, so that many of them are degenerate
    cfg = make_cfg(n)
    rng = random.Random(f"lift-oracle:{n}:{x}")
    degenerate = 0
    for _ in range(60):
        s = rng.choice(levels)
        sup = graded_support(cfg, pt(*x), -s)
        coeffs = {p: rng.randrange(cfg.q) for p in sup.positions if rng.random() < 0.5}
        degenerate += assert_matches_lift_oracle(cfg, GradedElement.make(cfg, pt(*x), -s, coeffs))
    assert degenerate >= 10


def test_rank_profile_matches_coefficient_matrix_ranks():
    # rank_profile reads F_q ranks of the coefficient matrix's powers; the
    # lift's Bareiss ranks over F_q(t) are the oracle
    rng = random.Random(11)
    for _ in range(60):
        if rng.random() < 0.5:
            cfg, x = CFG2, pt(Q(1, 2), 0)
            s = rng.choice([Q(1, 2), Q(1)])
        else:
            cfg, x = CFG3, pt(Q(1, 2), Q(1, 4), 0)
            s = rng.choice([Q(1), Q(3, 4)])
        sup = graded_support(cfg, x, -s)
        coeffs = {p: rng.randrange(cfg.q) for p in sup.positions}
        el = GradedElement.make(cfg, x, -s, coeffs)
        g, _ = rank_profile(cfg, el)
        _, (oracle, _), _ = lift_oracle(cfg, el)
        assert g == oracle
        # the profile determines degeneracy: vanishing of the n-th power
        assert is_degenerate(cfg, el) == (g[cfg.n - 1] == 0)


def test_degeneracy_invariant_under_quotient_conjugation():
    rng = random.Random(3)
    cases = [
        (CFG2, pt(0, 0), Q(-1)),
        (CFG2, pt(Q(1, 2), 0), Q(-1, 2)),
        (CFG3, pt(Q(1, 2), 0, 0), Q(-1, 2)),
    ]
    for _ in range(500):
        cfg, x, d = rng.choice(cases)
        sup = graded_support(cfg, x, d)
        el = GradedElement.make(
            cfg, x, d, {p: rng.randrange(cfg.q) for p in sup.positions}
        )
        g = random_quotient_element(cfg, x, rng)
        conj = checked_conjugate(cfg, el, g)
        assert is_degenerate(cfg, el) == is_degenerate(cfg, conj)
        if is_degenerate(cfg, el):
            assert rank_profile(cfg, el) == rank_profile(cfg, conj)


def test_profile_classifies_quotient_orbits_exhaustively():
    # tiny-size cross-check of the rank-invariant classification:
    # profiles agree iff elements are conjugate under the block quotient
    cfg = make_cfg(2, q=3)
    x = pt(Q(1, 2), 0)
    d = Q(-1, 2)
    elems = [e for e in enumerate_graded_elements(cfg, x, d) if is_degenerate(cfg, e)]
    # enumerate the full block group GL_1 x GL_1 over F_3
    group = [
        ((a, 0), (0, b)) for a in range(1, 3) for b in range(1, 3)
    ]
    orbit_of = {}
    for e in elems:
        orb = frozenset(checked_conjugate(cfg, e, g) for g in group)
        orbit_of[e] = orb
    for e1 in elems:
        for e2 in elems:
            same_profile = rank_profile(cfg, e1) == rank_profile(cfg, e2)
            assert same_profile == (e2 in orbit_of[e1])


def test_profile_classifies_gl2_hyperspecial_orbits():
    cfg = make_cfg(2, q=3)
    x = pt(0, 0)
    elems = [e for e in enumerate_graded_elements(cfg, x, -1) if is_degenerate(cfg, e)]
    group = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3:
                        group.append(((a, b), (c, d)))
    for e1 in elems:
        orb = frozenset(checked_conjugate(cfg, e1, g) for g in group)
        for e2 in elems:
            same = rank_profile(cfg, e1) == rank_profile(cfg, e2)
            assert same == (e2 in orb)


def test_unipotent_image_directions():
    # no same-class off-diagonal pairs at the half-point: trivial image
    assert unipotent_image(CFG2, pt(Q(3, 8), 0), pt(Q(1, 2), 0)) == ()
    # interior point vs hyperspecial at n=3: full upper triangle
    u3 = unipotent_image(CFG3, pt(Q(1, 2), Q(1, 4), 0), pt(0, 0, 0))
    assert u3 == ((0, 1), (0, 2), (1, 2))
    assert len(u3) == 3


def test_unipotent_orbit_count_worked_examples():
    # fixed point: N = 1
    n, members = unipotent_orbit_count(
        CFG2, pt(Q(1, 4), 0), pt(0, 0), GradedElement.zero(pt(0, 0), -1)
    )
    assert n == 1 and len(members) == 1
    # trivial unipotent image fixes phi
    xi = pt(Q(1, 2), 0)
    n, members = unipotent_orbit_count(
        CFG2, pt(Q(3, 8), 0), xi, phi2(xi, Q(1, 2), {(0, 1): 1})
    )
    assert n == 1
    # n=3 strictly-upper pattern: q^d with d fixed by the BFS oracle
    x3 = pt(0, 0, 0)
    el3 = GradedElement.make(CFG3, x3, -1, {(0, 1): 1, (1, 2): 1})
    n, members = unipotent_orbit_count(CFG3, pt(Q(1, 2), Q(1, 4), 0), x3, el3)
    assert n == 5  # orbit is {e12 + e23 + beta e13}
    assert len(members) == 5
    assert n % 5 == 0 or n == 1


def test_unipotent_count_divides_group_order():
    rng = random.Random(23)
    x3 = pt(0, 0, 0)
    y3 = pt(Q(1, 2), Q(1, 4), 0)
    order = 5 ** len(unipotent_image(CFG3, y3, x3))
    for _ in range(20):
        el = GradedElement.make(
            CFG3, x3, -1, {(i, j): rng.randrange(5) for i in range(3) for j in range(3)}
        )
        n, members = unipotent_orbit_count(CFG3, y3, x3, el)
        assert order % n == 0
        assert all(m.degree == el.degree and m.x == el.x for m in members)


def test_graded_jordan_chains_stay_in_residue_classes():
    xi = pt(Q(1, 2), 0)
    el = phi2(xi, Q(1, 2), {(0, 1): 2})
    chains = graded_jordan_chains(CFG2, el)
    assert sorted(len(c) for c in chains) == [2]
    for chain in chains:
        for v in chain:
            support = [i for i, c in enumerate(v) if c]
            classes = {xi[i] % 1 for i in support}
            assert len(classes) == 1


def oracle_jordan_chains(cfg, phi):
    """graded_jordan_chains as it was before it stopped at the first zero
    power: A^k for every k up to n + 1, and a class-restricted kernel of
    every power up to depth + 1, zero powers included."""
    a = graded.coefficient_matrix(cfg, phi)
    n, q = cfg.n, cfg.q
    field = gf.prime_field(q)
    powers = [gf.identity(n)]
    for _ in range(n + 1):
        powers.append(gf.mat_mul(powers[-1], a, field))
    depth = next((k for k in range(n + 1) if not any(map(any, powers[k]))), None)
    if depth is None:
        raise ValidationError("not nilpotent", where="oracle")
    depth = max(depth, 1)
    classes = residue_classes(phi.x)
    class_index = {i: res for res, idx in classes for i in idx}
    shift = phi.degree % 1
    kern = {}
    for k in range(depth + 2):
        for res, idx in classes:
            kern[(k, res)] = (
                [] if k == 0 else graded._class_subspace_kernel(cfg, powers[k], idx)
            )
    chains = []
    for length in range(depth, 0, -1):
        for res, idx in classes:
            t_space = kern[(length, res)]
            if not t_space:
                continue
            lower = list(kern[(length - 1, res)])
            src_res = (res - shift) % 1
            pushed = []
            for v in kern.get((length + 1, src_res), []):
                img = gf.mat_vec(a, v, field)
                if any(img):
                    pushed.append(img)
            for top in gf.complement_basis(lower + pushed, t_space, field):
                chain = [top]
                for _ in range(length - 1):
                    chain.append(gf.mat_vec(a, chain[-1], field))
                chains.append(chain)
    if sum(len(c) for c in chains) != n:
        raise InternalFault("short chain basis", where="oracle")
    chains.sort(
        key=lambda ch: (-len(ch), class_index[graded._support_class(ch[0])], ch[0])
    )
    return chains


def test_jordan_chains_stopping_at_the_first_zero_power_equal_the_oracle():
    # 210 seeded nilpotent elements over GL_2, GL_3 and GL_4, at integral and
    # half-integral points: random coefficients above the diagonal of a
    # random index order, conjugated by the reductive quotient at x
    rng = random.Random(53)
    depths = set()
    done = 0
    for n, q in ((2, 5), (3, 7), (4, 11)):
        cfg = make_cfg(n, q)
        for d in (1, 2):
            cell = 0
            while cell < 35:
                x = pt(*(Q(rng.randrange(-2 * d, 2 * d + 1), d) for _ in range(n)))
                s = Q(rng.randrange(1, 5), 2)
                order = list(range(n))
                rng.shuffle(order)
                upper = [
                    (i, j) for i, j in graded_support(cfg, x, -s).positions
                    if order.index(i) < order.index(j)
                ]
                el = GradedElement.make(cfg, x, -s, {p: rng.randrange(q) for p in upper})
                el = checked_conjugate(cfg, el, random_quotient_element(cfg, x, rng))
                chains = graded_jordan_chains(cfg, el)
                assert chains == oracle_jordan_chains(cfg, el), (n, q, x, s, el)
                depths.add(len(chains[0]))
                cell += 1
                done += 1
    assert done >= 200 and depths == {1, 2, 3, 4}



# -- unchecked builds against the checked quotient oracle -------------------

# (n, q, x, s): one, two and three residue classes; q > 2n for sl2_complete
ORACLE_PIECES = [
    (2, 5, (0, 0), 1),
    (2, 5, (Q(1, 2), 0), Q(1, 2)),
    (2, 5, (Q(1, 2), 0), 1),
    (3, 7, (0, 0, 0), 1),
    (3, 7, (Q(1, 2), 0, 0), Q(1, 2)),
    (3, 7, (Q(1, 2), Q(1, 4), 0), Q(3, 4)),
    (3, 7, (Q(1, 4), Q(1, 4), 0), Q(1, 4)),
]


def near_points(cfg, x):
    """Points y = x + k/8 (k in {-1, 0, 1} per coordinate) tied to x by the
    level-zero chain, x itself among them."""
    shifted = (
        pt(*(c + Q(k, 8) for c, k in zip(x.coords, ks)))
        for ks in itertools.product((-1, 0, 1), repeat=x.n)
    )
    return [y for y in shifted if inclusion_chain_ok(cfg, x, Q(0), y, Q(0))]


@pytest.mark.parametrize("n, q, coords, s", ORACLE_PIECES)
def test_unchecked_builds_equal_the_checked_oracle(n, q, coords, s):
    # the BFS members of unipotent_orbit_count and the H and E of
    # sl2_complete build their elements unchecked; each equals the element
    # GradedElement.make builds from the same matrix
    cfg = make_cfg(n, q)
    x = pt(*coords)
    rng = random.Random(f"quotient:{n}:{coords}:{s}")
    positions = graded_support(cfg, x, -s).positions
    near = near_points(cfg, x)
    orbit_sizes = set()
    for _ in range(12):
        el = GradedElement.make(cfg, x, -s, {p: rng.randrange(q) for p in positions})
        member = random_quotient_element(cfg, x, rng)
        y = rng.choice(near)
        count, members = unipotent_orbit_count(cfg, y, x, el)
        assert members == checked_orbit(cfg, y, x, el) and count == len(members)
        orbit_sizes.add(count)
        # a nilpotent element: strictly upper in a random index order, conjugated
        order = rng.sample(range(n), n)
        upper = [(i, j) for i, j in positions if order.index(i) < order.index(j)]
        nil = GradedElement.make(cfg, x, -s, {p: rng.randrange(1, q) for p in upper})
        triple = sl2_complete(cfg, checked_conjugate(cfg, nil, member))
        for part, degree in ((triple.H, 0), (triple.E, s)):
            assert part == checked_element(cfg, x, degree, coefficient_matrix(cfg, part))
    # the BFS moves phi only where some class holds two indices
    assert (max(orbit_sizes) > 1) == any(len(idx) > 1 for _, idx in residue_classes(x))


@pytest.mark.parametrize("n, q, coords, s", ORACLE_PIECES)
def test_stabilizer_dimension_count_equals_the_closed_orbit(monkeypatch, n, q, coords, s):
    # with the BFS bound at 0 only the dimension count runs (q > n); it
    # must give the size of the orbit the oracle closes.  The scalar
    # element commutes with every E_ij, so its rows vanish; with the sign
    # of one bracket term flipped they would not
    cfg = make_cfg(n, q)
    x = pt(*coords)
    rng = random.Random(f"stabilizer:{n}:{coords}:{s}")
    positions = graded_support(cfg, x, -s).positions
    near = near_points(cfg, x)
    scalar = GradedElement.make(cfg, x, -s, {p: 1 for p in positions if p[0] == p[1]})
    cases = [(scalar, y) for y in near] + [
        (GradedElement.make(cfg, x, -s, {p: rng.randrange(q) for p in positions}), rng.choice(near))
        for _ in range(12)
    ]
    monkeypatch.setattr(graded, "_ORBIT_BOUND", 0)
    sizes = set()
    for el, y in cases:
        count, members = unipotent_orbit_count(cfg, y, x, el)
        assert count == len(checked_orbit(cfg, y, x, el)) and members == frozenset()
        sizes.add(count)
    assert (max(sizes) > 1) == any(len(idx) > 1 for _, idx in residue_classes(x))


def test_random_quotient_element_draws_class_blocks_until_invertible():
    # x = (1/2, 0, 0): the class {1, 2} is drawn before {0}; a singular
    # draw is dropped whole (seed 1 draws three before an invertible one)
    cfg = make_cfg(3, 5)
    x = pt(Q(1, 2), 0, 0)
    rng, replay = random.Random(1), random.Random(1)
    g = random_quotient_element(cfg, x, rng)
    field = gf.prime_field(5)
    attempts = 0
    while True:
        attempts += 1
        m = [[0] * 3 for _ in range(3)]
        for i in (1, 2):
            for j in (1, 2):
                m[i][j] = replay.randrange(5)
        m[0][0] = replay.randrange(5)
        if gf.rank(m, field) == 3:
            break
    assert attempts == 4
    assert g == tuple(map(tuple, m)) and rng.random() == replay.random()
