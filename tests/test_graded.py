"""Graded elements: degeneracy, lifts, profiles, orbits under unipotents."""

import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes import gf
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support
from mptypes.errors import ValidationError
from mptypes.graded import (
    GradedElement,
    ReductiveQuotient,
    align_conjugator,
    coefficient_matrix,
    conjugate,
    enumerate_graded_elements,
    graded_image,
    graded_jordan_chains,
    homogeneous_lift,
    is_degenerate,
    rank_profile,
    unipotent_image,
    unipotent_orbit_count,
)
from mptypes.laurent import Laurent


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
    assert lift.mat.entry(0, 1) == Laurent.monomial(5, -1, 2)
    assert lift.mat.entry(1, 0) == Laurent.monomial(5, 0, 3)
    assert lift.mat.entry(0, 0).is_zero()
    # zero element lifts to the zero matrix
    z = homogeneous_lift(CFG2, GradedElement.zero(xi, Q(-1, 2)))
    assert z.mat.is_zero()
    # n = 3 regular pattern at integral level: exponent -1 everywhere
    el3 = GradedElement.make(CFG3, pt(0, 0, 0), -1, {(0, 1): 1, (1, 2): 1})
    lift3 = homogeneous_lift(CFG3, el3)
    assert lift3.mat.entry(0, 1) == Laurent.monomial(5, -1, 1)
    assert lift3.mat.entry(1, 2) == Laurent.monomial(5, -1, 1)


def test_graded_image_round_trip():
    xi = pt(Q(1, 2), 0)
    el = phi2(xi, Q(1, 2), {(0, 1): 2, (1, 0): 3})
    lift = homogeneous_lift(CFG2, el)
    assert graded_image(CFG2, lift.mat, xi, Q(-1, 2)) == el


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


def test_rank_profile_matches_coefficient_matrix_ranks():
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
        a = coefficient_matrix(cfg, el)
        field = gf.prime_field(cfg.q)
        p = gf.identity(cfg.n)
        for k in range(cfg.n):
            p = gf.mat_mul(p, a, field)
            assert g[k] == gf.rank(p, field)
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
        g = ReductiveQuotient.at(x).random_element(cfg, rng)
        conj = conjugate(cfg, el, g)
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
        orb = frozenset(conjugate(cfg, e, g) for g in group)
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
        orb = frozenset(conjugate(cfg, e1, g) for g in group)
        for e2 in elems:
            same = rank_profile(cfg, e1) == rank_profile(cfg, e2)
            assert same == (e2 in orb)


def test_unipotent_image_directions():
    # no same-class off-diagonal pairs at the half-point: trivial image
    u = unipotent_image(CFG2, pt(Q(3, 8), 0), pt(Q(1, 2), 0))
    assert u.directions == ()
    # interior point vs hyperspecial at n=3: full upper triangle
    u3 = unipotent_image(CFG3, pt(Q(1, 2), Q(1, 4), 0), pt(0, 0, 0))
    assert u3.directions == ((0, 1), (0, 2), (1, 2))
    assert u3.dim == 3


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
    u = unipotent_image(CFG3, y3, x3)
    order = 5**u.dim
    for _ in range(20):
        el = GradedElement.make(
            CFG3, x3, -1, {(i, j): rng.randrange(5) for i in range(3) for j in range(3)}
        )
        n, members = unipotent_orbit_count(CFG3, y3, x3, el)
        assert order % n == 0
        assert all(m.degree == el.degree and m.x == el.x for m in members)


def test_graded_jordan_chains_and_alignment():
    # chains stay inside residue classes
    xi = pt(Q(1, 2), 0)
    el = phi2(xi, Q(1, 2), {(0, 1): 2})
    chains = graded_jordan_chains(CFG2, el)
    assert sorted(len(c) for c in chains) == [2]
    for chain in chains:
        for v in chain:
            support = [i for i, c in enumerate(v) if c]
            classes = {xi[i] % 1 for i in support}
            assert len(classes) == 1
    # alignment between conjugate elements
    el_b = phi2(xi, Q(1, 2), {(0, 1): 3})
    g = align_conjugator(CFG2, el, el_b)
    assert g is not None
    assert conjugate(CFG2, el, g) == el_b
    # and refusal between non-conjugate ones
    assert align_conjugator(CFG2, el, GradedElement.zero(xi, Q(-1, 2))) is None
