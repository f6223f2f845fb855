"""Coset decomposition and relation records."""

import itertools
import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes import refine
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from mptypes.errors import InfeasibleError, InternalFault, ValidationError
from mptypes.graded import GradedElement, is_degenerate
from mptypes.orbits import OrbitLabel
from mptypes.record import FrozenInstanceError
from mptypes.refine import (
    Decomposition,
    DMPPair,
    SubcosetClass,
    check_incidence,
    enumerate_and_classify,
    refine_relation,
    verify_relation,
)
from mptypes.selftest import _random_incidence, worked_instances

from lift_oracle import coeff, graded_image, homogeneous_lift
from quotient_oracle import rank_profile
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
    assert coeff(b.chi, 0, 1) == 1 and coeff(b.chi, 1, 0) == 0

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
        assert coeff(c.chi, 0, 1) != 0

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


def test_refine_relation_refuses_a_coarse_lift_below_the_finer_lattice():
    # the relation reads the image before it compares the decomposition
    # of another incidence with its own, so the image of t^-2 e_12 in
    # g_{x=-1} is what refuses
    coarse = hyp_pair({(0, 1): 1}, s=2)
    classes = enumerate_and_classify(CFG, hyp_pair({(0, 1): 1}), (X_HYP, Q(1)))
    with pytest.raises(ValidationError, match="below the lattice bound") as err:
        refine_relation(CFG, coarse, (X_HYP, Q(1)), decomposition=classes)
    assert err.value.where == "graded.regrade"


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
    base = dict(graded_image(cfg, homogeneous_lift(cfg, coarse.phi), x, -s).coeffs)
    members = []
    for combo in itertools.product(range(cfg.q), repeat=len(free)):
        coeffs = dict(base)
        for (pos, _), c in zip(free, combo):
            coeffs[pos] = coeffs.get(pos, 0) + c
        members.append(GradedElement.make(cfg, x, -s, coeffs))
    return members


def classify_oracle(cfg, coarse, finer):
    """The decomposition as a loop over members builds it: each member a
    dict, then a `GradedElement`, tagged by `is_degenerate` and by
    `rank_profile` against the image's; the free positions come from the
    lattice (`_surface_positions`) and the image from the built lift."""
    x, s = finer[0], Q(finer[1])
    free = tuple(pos for pos, _ in _surface_positions(cfg, coarse.x, coarse.s, x, s))
    image = graded_image(cfg, homogeneous_lift(cfg, coarse.phi), x, -s)
    ref_profile = rank_profile(cfg, image)
    classes = []
    for combo in itertools.product(range(cfg.q), repeat=len(free)):
        coeffs = dict(image.coeffs)
        for pos, c in zip(free, combo):
            coeffs[pos] = coeffs.get(pos, 0) + c
        chi = GradedElement.make(cfg, x, -s, coeffs)
        if not is_degenerate(cfg, chi):
            classes.append(SubcosetClass(tag="A", chi=chi, pair=None))
            continue
        tag = "B" if rank_profile(cfg, chi) == ref_profile else "C"
        classes.append(SubcosetClass(tag=tag, chi=chi, pair=DMPPair.make(cfg, s, x, chi)))
    return Decomposition(coarse, x, s, image, free, tuple(classes))


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


def test_decomposition_image_is_the_regraded_coarse_lift():
    checked = 0
    for coarse, finer in worked_instances(CFG) + seeded_incidences(CFG, 30, "image"):
        try:
            dec = enumerate_and_classify(CFG, coarse, finer)
        except InfeasibleError:
            continue
        x, s = finer
        assert dec.image == refine.regrade(CFG, coarse.phi, x, -s)
        assert dec.image == graded_image(CFG, homogeneous_lift(CFG, coarse.phi), x, -s)
        assert any(c.chi == dec.image and c.tag == "B" for c in dec)
        checked += 1
    assert checked >= 30


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
    # classes without the image's B member refuse the image as base
    without_b = replace(classes, classes=tuple(c for c in classes if c.tag != "B"))
    with pytest.raises(InternalFault, match="base is not a B-tagged member") as err:
        refine_relation(CFG, coarse, (X_HYP, Q(1)), decomposition=without_b)
    assert err.value.where == "refine.refine_relation"


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


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (2, 7), (3, 3)])
def test_classification_equals_the_per_member_oracle(n, q):
    # seeded incidences whose free set holds a diagonal position, where the
    # trace of the members takes every value mod q, and ones whose free set
    # holds none, where it is the image's for every member
    cfg = make_cfg(n, q)
    rng = random.Random(f"classify:{n}:{q}")
    with_diagonal = without = degenerate_with_diagonal = 0
    while with_diagonal < 3 or without < 6:
        inst = _random_incidence(cfg, rng)
        if inst is None:
            continue
        try:
            dec = enumerate_and_classify(cfg, *inst, bound=q**4)
        except InfeasibleError:
            continue
        diagonal = any(i == j for i, j in dec.free)
        if (with_diagonal if diagonal else without) >= 6:
            continue
        assert dec == classify_oracle(cfg, *inst)
        traces = {sum(coeff(c.chi, i, i) for i in range(n)) % q for c in dec}
        if diagonal:
            assert traces == set(range(q))
            with_diagonal += 1
            degenerate_with_diagonal += sum(c.tag != "A" for c in dec)
        else:
            assert len(traces) == 1
            without += 1
    assert degenerate_with_diagonal >= 3
