"""Coset decomposition, relation records, and geodesic chains."""

import itertools
import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes import refine
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from mptypes.errors import InfeasibleError, InternalFault, ValidationError
from mptypes.graded import GradedElement
from mptypes.orbits import OrbitLabel
from mptypes.record import FrozenInstanceError
from mptypes.refine import (
    DMPPair,
    check_incidence,
    compose_chain,
    connect,
    enumerate_and_classify,
    refine_relation,
    verify_relation,
)
from mptypes.selftest import _random_incidence, worked_instances

from lift_oracle import graded_image, homogeneous_lift
from record_oracle import replace


def make_cfg(n, q=5, m=16):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


CFG = make_cfg(2)


def pt(*coords):
    return ApartmentPoint.of([Q(c) for c in coords])


X_HYP = pt(0, 0)
X_IWA = pt(Q(1, 2), 0)


def hyp_pair(phi_coeffs, s=1):
    phi = GradedElement.make(CFG, X_HYP, -Q(s), phi_coeffs)
    return DMPPair.make(CFG, Q(s), X_HYP, phi)


def test_incidence_checks():
    assert check_incidence(CFG, pt(Q(3, 8), 0), Q(5, 8), X_IWA, Q(1, 2))
    assert check_incidence(CFG, pt(Q(1, 4), 0), Q(1), X_HYP, Q(1))
    assert not check_incidence(CFG, X_HYP, Q(1), X_IWA, Q(1, 2))


def test_worked_instance_iwahori_side():
    # coarse (y=(3/8,0), tau=5/8, phi = b on (1,2)), finer (x=(1/2,0), s=1/2)
    y = pt(Q(3, 8), 0)
    phi = GradedElement.make(CFG, y, Q(-5, 8), {(0, 1): 1})
    coarse = DMPPair.make(CFG, Q(5, 8), y, phi)
    assert coarse.lift == OrbitLabel.of((2,))
    classes = enumerate_and_classify(CFG, coarse, (X_IWA, Q(1, 2)))
    assert len(classes) == 5
    tags = sorted(c.tag for c in classes)
    assert tags == ["A", "A", "A", "A", "B"]
    b = next(c for c in classes if c.tag == "B")
    assert b.chi.coeff(0, 1) == 1 and b.chi.coeff(1, 0) == 0

    rec = refine_relation(CFG, coarse, (X_IWA, Q(1, 2)))
    assert rec.c == 1
    assert rec.q_exponent(5) == 0
    assert rec.terms == ()
    assert rec.provenance.n_a == 4 and rec.provenance.n_b == 1 and rec.provenance.n_c == 0
    assert rec.base.phi == b.chi


def test_q_exponent_refuses_a_coefficient_that_is_not_positive():
    # c = 0 and c < 0 are no powers of q (c = 0 used to divide 0 forever)
    y = pt(Q(3, 8), 0)
    phi = GradedElement.make(CFG, y, Q(-5, 8), {(0, 1): 1})
    rec = refine_relation(CFG, DMPPair.make(CFG, Q(5, 8), y, phi), (X_IWA, Q(1, 2)))
    for c in (Q(0), Q(-5)):
        with pytest.raises(InternalFault, match="not a power of q") as err:
            replace(rec, c=c).q_exponent(5)
        assert err.value.where == "refine.RelationRecord"


def test_worked_instance_hyperspecial_side():
    # coarse (y=(1/4,0), tau=1, phi=0), finer (x=(0,0), s=1)
    y = pt(Q(1, 4), 0)
    coarse = DMPPair.make(CFG, Q(1), y, GradedElement.zero(y, -1))
    assert coarse.lift == OrbitLabel.of((1, 1))
    classes = enumerate_and_classify(CFG, coarse, (X_HYP, Q(1)))
    assert len(classes) == 5
    b = [c for c in classes if c.tag == "B"]
    cs = [c for c in classes if c.tag == "C"]
    assert len(b) == 1 and len(cs) == 4
    assert b[0].chi.is_zero()
    for c in cs:
        assert c.lift == OrbitLabel.of((2,))
        assert c.chi.coeff(0, 1) != 0

    rec = refine_relation(CFG, coarse, (X_HYP, Q(1)))
    assert rec.c == 1
    assert len(rec.terms) == 4
    assert all(coef == 1 for coef, _ in rec.terms)


def test_trivial_refinement():
    coarse = hyp_pair({(0, 1): 1})
    classes = enumerate_and_classify(CFG, coarse, (X_HYP, Q(1)))
    assert len(classes) == 1 and classes.classes[0].tag == "B"
    rec = refine_relation(CFG, coarse, (X_HYP, Q(1)))
    assert rec.c == 1 and rec.terms == () and rec.base == coarse


def test_partition_count_conservation():
    y = pt(Q(1, 4), 0)
    coarse = DMPPair.make(CFG, Q(1), y, GradedElement.zero(y, -1))
    classes = enumerate_and_classify(CFG, coarse, (X_HYP, Q(1)))
    rec = refine_relation(CFG, coarse, (X_HYP, Q(1)))
    qdim = rec.provenance.quotient_dim
    assert len(classes) == 5**qdim
    assert rec.provenance.n_a + rec.provenance.n_b + rec.provenance.n_c == 5**qdim


def test_enumeration_bound_refusal():
    y = pt(Q(1, 4), 0)
    coarse = DMPPair.make(CFG, Q(1), y, GradedElement.zero(y, -1))
    with pytest.raises(InfeasibleError):
        enumerate_and_classify(CFG, coarse, (X_HYP, Q(1)), bound=3)


def test_verify_relation_on_synthetic_components():
    y = pt(Q(1, 4), 0)
    coarse = DMPPair.make(CFG, Q(1), y, GradedElement.zero(y, -1))
    rec = refine_relation(CFG, coarse, (X_HYP, Q(1)))
    # the zero-orbit indicator: 1 on cosets containing 0
    comps = {rec.lhs: Q(1), rec.base: Q(1)}
    for _, p in rec.terms:
        comps[p] = Q(0)
    assert verify_relation(CFG, rec, comps)
    comps[rec.base] = Q(0)
    assert not verify_relation(CFG, rec, comps)
    with pytest.raises(ValidationError):
        verify_relation(CFG, rec, {rec.lhs: Q(1)})


def test_solved_for_finer_inverts():
    y = pt(Q(1, 4), 0)
    coarse = DMPPair.make(CFG, Q(1), y, GradedElement.zero(y, -1))
    rec = refine_relation(CFG, coarse, (X_HYP, Q(1)))
    flipped = rec.solved_for_finer()
    assert flipped.lhs == rec.base and flipped.base == rec.lhs
    assert flipped.c == 1 / rec.c
    comps = {rec.lhs: Q(5), rec.base: Q(1)}
    for _, p in rec.terms:
        comps[p] = Q(1)
    assert verify_relation(CFG, rec, comps) == verify_relation(CFG, flipped, comps)


def test_connect_trivial_and_worked_chain():
    p0 = hyp_pair({(0, 1): 1})
    assert connect(CFG, p0, p0) == []

    phi1 = GradedElement.make(CFG, X_IWA, Q(-1, 2), {(0, 1): 1})
    p1 = DMPPair.make(CFG, Q(1, 2), X_IWA, phi1)
    chain = connect(CFG, p0, p1)
    assert len(chain) == 2
    c, terms = compose_chain(CFG, chain, p0, p1)
    assert c == 1
    for coef, p in terms:
        assert dominance_ok(p, OrbitLabel.of((2,)))


def dominance_ok(pair, orbit):
    from mptypes.orbits import dominance_leq

    return dominance_leq(orbit, pair.lift)


def test_connect_zero_pairs_with_corrections():
    p0 = hyp_pair({}, s=1)
    y = pt(Q(1, 4), 0)
    p1 = DMPPair.make(CFG, Q(1), y, GradedElement.zero(y, -1))
    chain = connect(CFG, p0, p1)
    c, terms = compose_chain(CFG, chain, p0, p1)
    assert c == 1
    # q - 1 corrections, one per nonzero scalar on the t^-1 e_12 line
    assert len(terms) == 4
    assert sum(coef for coef, _ in terms) == 4
    for coef, p in terms:
        assert p.lift == OrbitLabel.of((2,))


def test_connect_reversal_cancels():
    p0 = hyp_pair({(0, 1): 1})
    phi1 = GradedElement.make(CFG, X_IWA, Q(-1, 2), {(0, 1): 1})
    p1 = DMPPair.make(CFG, Q(1, 2), X_IWA, phi1)
    c01, t01 = compose_chain(CFG, connect(CFG, p0, p1), p0, p1)
    c10, t10 = compose_chain(CFG, connect(CFG, p1, p0), p1, p0)
    assert c01 * c10 == 1
    # substitute: v1 = c01 v0 + t01, v0 = c10 v1 + t10
    folded = {}
    for coef, p in t10:
        folded[p] = folded.get(p, Q(0)) + c01 * coef
    for coef, p in t01:
        folded[p] = folded.get(p, Q(0)) + coef
    assert all(v == 0 for v in folded.values())


def test_connect_refuses_lift_mismatch():
    p0 = hyp_pair({(0, 1): 1})
    p1 = hyp_pair({})
    with pytest.raises(ValidationError):
        connect(CFG, p0, p1)


def test_connect_refuses_a_p0_lift_below_the_p1_lattice():
    # t^-2 e_12 has degree -2 at x = 0, below g_{x>=-1}
    p0, p1 = hyp_pair({(0, 1): 1}, s=2), hyp_pair({(0, 1): 1})
    assert p0.lift == p1.lift
    with pytest.raises(InfeasibleError, match="no shared datum") as err:
        connect(CFG, p0, p1)
    assert err.value.where == "refine.connect"


def test_refine_relation_refuses_a_coarse_lift_below_the_finer_lattice():
    # the relation reads the image before it compares the decomposition
    # of another incidence with its own, so the image of t^-2 e_12 in
    # g_{x=-1} is what refuses
    coarse = hyp_pair({(0, 1): 1}, s=2)
    classes = enumerate_and_classify(CFG, hyp_pair({(0, 1): 1}), (X_HYP, Q(1)))
    with pytest.raises(ValidationError, match="below the lattice bound") as err:
        refine_relation(CFG, coarse, (X_HYP, Q(1)), decomposition=classes)
    assert err.value.where == "graded.graded_image"


def test_connect_with_conjugation_alignment():
    p0 = hyp_pair({(0, 1): 1})
    phi1 = GradedElement.make(CFG, X_IWA, Q(-1, 2), {(0, 1): 3})
    p1 = DMPPair.make(CFG, Q(1, 2), X_IWA, phi1)
    chain = connect(CFG, p0, p1)
    assert chain[0].provenance.role == "conjugation"
    c, terms = compose_chain(CFG, chain, p0, p1)
    assert c == 1 and terms == ()


def _surface_positions(cfg, y, tau, x, s):
    """Support monomials of g_{x=-s} that remain free modulo g_{y>-tau}.

    These parametrize the finer-coset decomposition: the quotient
    g_{y>-tau} / g_{x>-s} is spanned by exactly the degree -s support
    monomials lying in g_{y>-tau}.
    """
    sup = graded_support(cfg, x, -s, _checked=True)
    strict_y = mp_lattice(cfg, y, -tau, strict=True, _checked=True)
    return [((i, j), w) for (i, j), w in sup.entries if w >= strict_y.bounds[i][j]]


def make_built_members(cfg, coarse, finer):
    """The decomposition's members in enumeration order, each through
    GradedElement.make: the image of the coarse lift plus every combination
    of coefficients on the free support positions."""
    x, s = finer[0], Q(finer[1])
    free = _surface_positions(cfg, coarse.x, coarse.s, x, s)
    base = graded_image(cfg, homogeneous_lift(cfg, coarse.phi), x, -s).as_dict()
    members = []
    for combo in itertools.product(range(cfg.q), repeat=len(free)):
        coeffs = dict(base)
        for (pos, _), c in zip(free, combo):
            coeffs[pos] = coeffs.get(pos, 0) + c
        members.append(GradedElement.make(cfg, x, -s, coeffs))
    return members


def seeded_incidences(cfg, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = _random_incidence(cfg, rng)
        if inst is not None:
            out.append(inst)
    return out


def test_direct_subcosets_equal_make_built_ones():
    checked = members = 0
    for coarse, finer in worked_instances(CFG) + seeded_incidences(CFG, 30, "subcosets"):
        try:
            classes = enumerate_and_classify(CFG, coarse, finer)
        except InfeasibleError:
            continue
        chis = [c.chi for c in classes]
        assert chis == make_built_members(CFG, coarse, finer)
        assert len(set(chis)) == len(chis)
        checked += 1
        members += len(chis)
    assert checked >= 30 and members > 300


def test_pair_hash_is_the_hash_of_its_fields():
    for coarse, (x, s) in worked_instances(CFG) + seeded_incidences(CFG, 10, "pair-hash"):
        assert hash(coarse) == hash((coarse.s, coarse.x, coarse.phi, coarse.lift))
        twin = DMPPair.make(CFG, coarse.s, coarse.x, coarse.phi)
        assert twin == coarse and hash(twin) == hash(coarse)
        # equality stays field by field: another phi gives another pair
        other = replace(coarse, phi=GradedElement.zero(coarse.x, -coarse.s))
        assert hash(other) == hash((other.s, other.x, other.phi, other.lift))
        assert (other == coarse) == coarse.phi.is_zero()


def test_class_pairs_equal_make_built_ones_and_feed_the_relation(monkeypatch):
    # each degenerate member carries the pair DMPPair.make builds for it;
    # the relation takes its base and C terms from the classes without
    # reading any lift again
    records = 0
    for coarse, finer in worked_instances(CFG) + seeded_incidences(CFG, 30, "class-pairs"):
        try:
            classes = enumerate_and_classify(CFG, coarse, finer)
        except InfeasibleError:
            continue
        x, s = finer
        for c in classes:
            assert (c.pair is None) == (c.tag == "A")
            if c.pair is not None:
                assert c.pair == DMPPair.make(CFG, s, x, c.chi) and c.lift == c.pair.lift
        monkeypatch.setattr(refine, "debacker_lift", None)  # a call would fail
        rec = refine_relation(CFG, coarse, finer, decomposition=classes)
        monkeypatch.undo()
        by_chi = {c.chi: c for c in classes}
        assert by_chi[rec.base.phi].tag == "B" and rec.base is by_chi[rec.base.phi].pair
        assert [p for _, p in rec.terms] == [c.pair for c in classes if c.tag == "C"]
        assert rec == refine_relation(CFG, coarse, finer)
        records += 1
    assert records >= 30


def test_refine_relation_refuses_a_base_that_is_not_tagged_b():
    # the hyperspecial worked incidence: the zero member is B, the rest C
    y = pt(Q(1, 4), 0)
    coarse = DMPPair.make(CFG, Q(1), y, GradedElement.zero(y, -1))
    classes = enumerate_and_classify(CFG, coarse, (X_HYP, Q(1)))
    c_member = next(c.chi for c in classes if c.tag == "C")
    outside = GradedElement.make(CFG, X_HYP, -1, {(1, 0): 1})
    for hint in (c_member, outside):
        with pytest.raises(InternalFault, match="base is not a B-tagged member") as err:
            refine_relation(CFG, coarse, (X_HYP, Q(1)), base_hint=hint, decomposition=classes)
        assert err.value.where == "refine.refine_relation"
    # classes without the image's B member refuse the image as base
    without_b = replace(classes, classes=tuple(c for c in classes if c.tag != "B"))
    with pytest.raises(InternalFault, match="base is not a B-tagged member"):
        refine_relation(CFG, coarse, (X_HYP, Q(1)), decomposition=without_b)


def test_refine_relation_refuses_a_foreign_decomposition():
    # the hyperspecial worked incidence, and the coarse zero element at
    # (0,0), s = 5/4 refined at the same finer point: read through the
    # first incidence's decomposition, the second relation would come out
    # as A/B/C = 0/1/4 with quotient dimension 4
    coarse, finer = worked_instances(CFG)[1]
    assert (coarse.s, str(coarse.x), coarse.phi.is_zero()) == (Q(1), "(1/4,0)", True)
    assert finer == (X_HYP, Q(1))
    foreign = enumerate_and_classify(CFG, coarse, finer)
    other = DMPPair.make(CFG, Q(5, 4), X_HYP, GradedElement.zero(X_HYP, Q(-5, 4)))
    rec = refine_relation(CFG, other, finer)
    prov = rec.provenance
    assert (prov.n_a, prov.n_b, prov.n_c, prov.quotient_dim) == (600, 1, 24, 4)
    with pytest.raises(InternalFault, match="is not the one of") as err:
        refine_relation(CFG, other, finer, decomposition=foreign)
    assert err.value.where == "refine.refine_relation"
    # another finer point or level is refused too
    for wrong in (replace(foreign, s=Q(1, 2)), replace(foreign, x=X_IWA)):
        with pytest.raises(InternalFault, match="is not the one of"):
            refine_relation(CFG, coarse, finer, decomposition=wrong)
    assert refine_relation(CFG, coarse, finer, decomposition=foreign) == refine_relation(
        CFG, coarse, finer
    )


def test_decomposition_fields_and_sequence_protocol():
    coarse, finer = worked_instances(CFG)[1]
    dec = enumerate_and_classify(CFG, coarse, finer)
    assert (dec.coarse, dec.x, dec.s) == (coarse, X_HYP, Q(1))
    assert dec.free == ((0, 1),) and dec.quotient_dim == 1
    assert len(dec) == len(dec.classes) == 5 and list(dec) == list(dec.classes)
    with pytest.raises(FrozenInstanceError):
        dec.free = ()


def test_derived_split_equals_the_lattice_built_one():
    # the decomposition's free positions against the support read modulo
    # L_{y>-tau}, and the fork identity's restricted positions, derived
    # from them by transposition, against the finer support read modulo
    # the coarse lattice L_{y>=tau}, built independently
    from mptypes.finite_types import _Incidence

    from finite_types_oracle import _restricted_positions

    cfg3 = make_cfg(3)
    seeded = [(CFG, inst) for inst in worked_instances(CFG)]
    seeded += [(CFG, inst) for inst in seeded_incidences(CFG, 40, "derived-split")]
    seeded += [(cfg3, inst) for inst in seeded_incidences(cfg3, 30, "derived-split-3")]
    checked = {2: 0, 3: 0}
    nontrivial = 0
    for cfg, (coarse, finer) in seeded:
        try:
            dec = enumerate_and_classify(cfg, coarse, finer, bound=5**4)
        except InfeasibleError:
            continue
        x, s = finer
        surface = _surface_positions(cfg, coarse.x, coarse.s, x, s)
        assert dec.free == tuple(pos for pos, _ in surface)
        assert dec.quotient_dim == len(dec.free)
        inc = _Incidence(cfg, dec)
        assert list(inc.restricted) == _restricted_positions(cfg, coarse.x, coarse.s, x, s)
        assert len(inc.free) == len(dec.free)
        checked[cfg.n] += 1
        nontrivial += bool(inc.restricted and inc.free)
    assert checked[2] >= 33 and checked[3] >= 10 and nontrivial >= 10
