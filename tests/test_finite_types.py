"""Characters over F_{l^a}, eigenspace dimensions, extension-sum identity."""

import inspect
import itertools
import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes import gf, refine
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support
from mptypes.errors import InfeasibleError, ValidationError
from mptypes.finite_types import (
    FiniteModule,
    _eigenspaces,
    _exponents,
    _Incidence,
    hom_dim,
    verify_fork_identity,
)
from mptypes.graded import GradedElement
from mptypes.refine import DMPPair, enumerate_and_classify
from mptypes.selftest import _random_incidence, worked_instances

from finite_types_oracle import (
    _restricted_positions,
    conjugated_generators,
    conjugated_module,
    extension_characters,
    fold_split,
    fork_report,
    random_invertible,
    regular_module,
    restrict_oracle,
    validate,
)


def make_cfg(n, q=5, m=16):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


CFG = make_cfg(2)
CFG7 = make_cfg(2, 7)
F4 = gf.ext_field(2, 2)  # 3 | 3
F8 = gf.ext_field(2, 3)  # 7 | 7
F16 = gf.ExtField(2, 4)  # 5 | 15
F256 = gf.ext_field(2, 8)  # 5 | 255


def _eigenspace_dim(M, gen_indices, exponents, zeta):
    """Oracle: the kernel dimension of the stacked g_k - zeta^e_k, one rank per tuple."""
    f = M.field
    rows = []
    for k, e in zip(gen_indices, exponents):
        lam = f.pow(zeta, e)
        rows += [
            [f.add(v, f.neg(lam)) if r == c else v for c, v in enumerate(row)]
            for r, row in enumerate(M.gens[k])
        ]
    return M.dim - gf.rank(rows, f)


def pt(*coords):
    return ApartmentPoint.of([Q(c) for c in coords])


X_HYP = pt(0, 0)
X_IWA = pt(Q(1, 2), 0)


def test_character_worked_examples():
    positions = graded_support(CFG, X_HYP, Q(1)).positions
    # trivial iff phi = 0
    zero = GradedElement.zero(X_HYP, -1)
    assert set(_exponents(zero, positions)) == {0}
    # e_12 pattern pairs against the (2,1) coordinate of the level piece
    phi = GradedElement.make(CFG, X_HYP, -1, {(0, 1): 1})
    exponents = _exponents(phi, positions)
    k21 = positions.index((1, 0))
    assert exponents[k21] == 1
    assert all(e == 0 for i, e in enumerate(exponents) if i != k21)
    # its value there, zeta^1, has order 5
    v = F16.pow(F16.root_of_unity(5), exponents[k21])
    acc = v
    order = 1
    while acc != F16.one:
        acc = F16.mul(acc, v)
        order += 1
    assert order == 5
    # the module on that one character holds phi once and 0 not at all
    M = FiniteModule.from_characters(CFG, F16, X_HYP, Q(1), [exponents])
    assert (hom_dim(CFG, M, phi), hom_dim(CFG, M, zero)) == (1, 0)


def test_from_characters_rejects_bad_field():
    f4 = gf.ExtField(2, 2)  # 5 does not divide 3
    with pytest.raises(ValidationError) as err:
        FiniteModule.from_characters(CFG, f4, X_HYP, Q(1), [(0, 0, 0, 0)])
    assert err.value.where == "finite_types.FiniteModule"


def test_hom_dim_refuses_another_piece_and_a_bad_field():
    s = Q(1, 2)
    M = FiniteModule.from_characters(CFG, F16, X_IWA, s, [(0, 0)])
    for phi in (
        GradedElement.zero(X_HYP, -s),  # another point
        GradedElement.zero(X_IWA, -1),  # another degree
        GradedElement.zero(X_IWA, s),  # the piece's own degree, not its dual
    ):
        with pytest.raises(ValidationError, match="degree -s") as err:
            hom_dim(CFG, M, phi)
        assert err.value.where == "finite_types.hom_dim"
    # a module built directly over F_4, which holds no 5th root of unity
    f4 = gf.ExtField(2, 2)
    bad = FiniteModule(
        field=f4, x=X_IWA, s=s, positions=M.positions, dim=1, gens=(((1,),),) * 2
    )
    with pytest.raises(ValidationError, match="does not divide") as err:
        hom_dim(CFG, bad, GradedElement.zero(X_IWA, -s))
    assert err.value.where == "finite_types.hom_dim"


def test_hom_dim_regular_module_on_small_piece():
    # the 2-dimensional piece at the half point: regular module has
    # every character exactly once
    s = Q(1, 2)
    reg = regular_module(CFG, F16, X_IWA, s)
    assert reg.dim == 25
    for coeffs in itertools.product(range(5), repeat=2):
        phi = GradedElement.make(
            CFG, X_IWA, -s, {(1, 0): coeffs[0], (0, 1): coeffs[1]}
        )
        assert hom_dim(CFG, reg, phi) == 1


def test_hom_dim_eigenspaces_partition_dimension():
    rng = random.Random(7)
    s = Q(1, 2)
    for _ in range(3):
        dim = rng.randrange(1, 9)
        M = FiniteModule.random(CFG, F16, X_IWA, s, dim, rng)
        total = 0
        for coeffs in itertools.product(range(5), repeat=2):
            phi = GradedElement.make(
                CFG, X_IWA, -s, {(1, 0): coeffs[0], (0, 1): coeffs[1]}
            )
            total += hom_dim(CFG, M, phi)
        assert total == dim


def test_hom_dim_field_extension_invariance():
    rng = random.Random(19)
    f256 = gf.ExtField(2, 8)  # 5 | 255
    s = Q(1, 2)
    tuples = [tuple(rng.randrange(5) for _ in range(2)) for _ in range(6)]
    m16 = FiniteModule.from_characters(CFG, F16, X_IWA, s, tuples)
    m256 = FiniteModule.from_characters(CFG, f256, X_IWA, s, tuples)
    for coeffs in [(0, 0), (1, 0), (2, 3)]:
        phi = GradedElement.make(
            CFG, X_IWA, -s, {(1, 0): coeffs[0], (0, 1): coeffs[1]}
        )
        assert hom_dim(CFG, m16, phi) == hom_dim(CFG, m256, phi)


def test_galois_twist_preserves_dimension_multiset():
    # twisting by zeta -> zeta^2 doubles every exponent of the module
    rng = random.Random(23)
    s = Q(1, 2)
    tuples = [tuple(rng.randrange(5) for _ in range(2)) for _ in range(7)]
    conj = random_invertible(F16, 7, rng)
    M = conjugated_module(CFG, F16, X_IWA, s, tuples, conj)
    twisted = conjugated_module(
        CFG, F16, X_IWA, s, [tuple(2 * e % 5 for e in t) for t in tuples], conj
    )

    def phi(c21, c12):
        return GradedElement.make(CFG, X_IWA, -s, {(1, 0): c21, (0, 1): c12})

    pairs = list(itertools.product(range(5), repeat=2))
    dims = [hom_dim(CFG, M, phi(*c)) for c in pairs]
    assert sorted(dims) == sorted(hom_dim(CFG, twisted, phi(*c)) for c in pairs)
    # the twist moves the multiplicity of phi to 2 phi
    assert dims == [hom_dim(CFG, twisted, phi(2 * a, 2 * b)) for a, b in pairs]


def iwahori_coarse():
    y = pt(Q(1, 4), 0)
    return DMPPair.make(CFG, 1, y, GradedElement.zero(y, -1))


def halfpoint_coarse():
    y = pt(Q(3, 8), 0)
    return DMPPair.make(
        CFG, Q(5, 8), y, GradedElement.make(CFG, y, Q(-5, 8), {(0, 1): 1})
    )


def test_extension_sets_match_decomposition():
    chars = extension_characters(CFG, iwahori_coarse(), (X_HYP, Q(1)))
    assert len(chars) == 5
    chars2 = extension_characters(CFG, halfpoint_coarse(), (X_IWA, Q(1, 2)))
    assert len(chars2) == 5


def test_fork_identity_regular_module():
    coarse = halfpoint_coarse()
    reg = regular_module(CFG, F16, X_IWA, Q(1, 2))
    lhs, rhs, _ = fork_report(CFG, reg, coarse, (X_IWA, Q(1, 2)))
    assert lhs == rhs == 5  # one per extension


def test_fork_identity_delta_module():
    coarse = halfpoint_coarse()
    chars = extension_characters(CFG, coarse, (X_IWA, Q(1, 2)))
    # a module supported on a single extension character
    target = chars[2]
    M = FiniteModule.from_characters(CFG, F16, X_IWA, Q(1, 2), [target])
    lhs, rhs, _ = fork_report(CFG, M, coarse, (X_IWA, Q(1, 2)))
    assert lhs == rhs == 1
    # and one supported on a non-extending character
    bad = tuple((e + 1) % 5 for e in target)
    restricted_differs = any(bad[k] != target[k] for k in range(len(bad)))
    assert restricted_differs
    M2 = FiniteModule.from_characters(CFG, F16, X_IWA, Q(1, 2), [bad])
    lhs2, rhs2, _ = fork_report(CFG, M2, coarse, (X_IWA, Q(1, 2)))
    assert lhs2 == rhs2


def test_hom_dim_trivial_module():
    s = Q(1, 2)
    trivial = FiniteModule.from_characters(CFG, F16, X_IWA, s, [(0, 0)])
    assert hom_dim(CFG, trivial, GradedElement.zero(X_IWA, -s)) == 1
    phi = GradedElement.make(CFG, X_IWA, -s, {(0, 1): 1})
    assert hom_dim(CFG, trivial, phi) == 0


def test_relation_verifies_on_multiplicity_components():
    # a relation record holds on finite-level multiplicity data when the
    # module is supported on degenerate extensions with the conjugate
    # B-characters carrying equal multiplicities (for genuine smooth
    # representations this is automatic; an abelian-quotient module must
    # be chosen that way)
    from mptypes.refine import enumerate_and_classify, refine_relation, verify_relation

    coarse = iwahori_coarse()
    finer = (X_HYP, Q(1))
    rec = refine_relation(CFG, coarse, finer)
    classes = enumerate_and_classify(CFG, coarse, finer)
    chars = extension_characters(CFG, coarse, finer)
    # two copies of every degenerate extension character
    tuples = []
    for cls, exponents in zip(classes, chars):
        if cls.tag != "A":
            tuples.extend([exponents] * 2)
    M = FiniteModule.from_characters(CFG, F16, X_HYP, Q(1), tuples)
    lhs, rhs, rhs_deg = fork_report(CFG, M, coarse, finer)
    assert lhs == rhs == rhs_deg  # no non-degenerate support
    comps = {rec.lhs: lhs, rec.base: hom_dim(CFG, M, rec.base.phi)}
    for _, p in rec.terms:
        comps[p] = hom_dim(CFG, M, p.phi)
    assert verify_relation(CFG, rec, comps)


def test_fork_identity_random_modules_both_instances():
    rng = random.Random(101)
    for coarse, xs in [
        (halfpoint_coarse(), (X_IWA, Q(1, 2))),
        (iwahori_coarse(), (X_HYP, Q(1))),
    ]:
        modules = (
            FiniteModule.random(CFG, F16, xs[0], xs[1], rng.randrange(1, 7), rng)
            for _ in range(10)
        )
        assert verify_fork_identity(CFG, modules, enumerate_and_classify(CFG, coarse, xs))


@pytest.mark.parametrize("bad", [(1,), (1, 2, 3, 4, 0, 1)], ids=["short", "long"])
def test_from_characters_rejects_wrong_tuple_length(bad):
    # the piece at the hyperspecial point and level 1 has 4 positions
    with pytest.raises(ValidationError) as err:
        FiniteModule.from_characters(CFG, F16, X_HYP, Q(1), [(0, 0, 0, 0), bad])
    assert err.value.where == "finite_types.FiniteModule"


def _split_draw(cfg, seed, count, bound):
    """Seeded valid random incidences, `count` of them on a nonzero graded piece."""
    out = []
    rng = random.Random(seed)
    nonzero = 0
    while nonzero < count:
        inst = _random_incidence(cfg, rng)
        if inst is None:
            continue
        try:
            inc = _Incidence(cfg, enumerate_and_classify(cfg, *inst, bound=bound))
        except InfeasibleError:
            continue
        out.append(inst)
        nonzero += bool(inc.restricted or inc.free)
    return out


@pytest.fixture(scope="module")
def split_incidences():
    """By q: at q = 5 the three worked GL_2 incidences and seeded valid
    random ones, 40 of them on a nonzero graded piece; at q = 7, 12 seeded
    ones with at most 7^2 members."""
    return {
        5: list(worked_instances(CFG)) + _split_draw(CFG, 31, 40, 10**6),
        7: _split_draw(CFG7, 37, 12, 7**2),
    }


def _oracle_modules(cfg, field, inc, chars, rng):
    """A random module, and a conjugated module with a repeated extension
    character and, where the piece has restricted positions, a
    non-extending one."""
    x, s, q = inc.x, inc.s, cfg.q
    yield FiniteModule.random(cfg, field, x, s, rng.randrange(1, 7), rng)
    twice = rng.choice(chars)
    tuples = [twice, rng.choice(chars), twice]
    if inc.restricted:
        k = rng.choice(inc.restricted)
        bad = list(twice)
        bad[k] = (bad[k] + rng.randrange(1, q)) % q
        tuples += [tuple(bad)] * 2
    conj = random_invertible(field, len(tuples), rng)
    yield conjugated_module(cfg, field, x, s, tuples, conj)


def _built_modules(cfg, field, inc, chars, rng):
    """Two modules built directly on 2 to 4 dimensions, around an extension
    character with exponent e_k at position k.  In the first, position k
    acts by zeta^e_k times I or, at random, times a Jordan block I + N,
    which has one eigenline: a node the block acts on is never filled by
    its eigenspaces.  In the second, position k acts by a diagonal of
    zeta^e_k and random roots conjugated by a random matrix of its own, so
    that the generators do not commute."""
    zeta = field.root_of_unity(cfg.q)
    positions = graded_support(cfg, inc.x, inc.s, _checked=True).positions
    ct = rng.choice(chars)
    roots = [field.pow(zeta, e) for e in ct]
    d = rng.randrange(2, 5)
    jordan = []
    for lam in roots:
        above = rng.random() < 0.6  # the superdiagonal of I + N
        jordan.append(tuple(
            tuple(lam if b == a or (above and b == a + 1) else 0 for b in range(d))
            for a in range(d)
        ))
    twisted = []
    for lam in roots:
        diag = [lam] + [field.pow(zeta, rng.randrange(cfg.q)) for _ in range(d - 1)]
        c = random_invertible(field, d, rng)
        cd = tuple(tuple(field.mul(v, r) for v, r in zip(row, diag)) for row in c)
        twisted.append(gf.mat_mul(cd, gf.mat_inv(c, field), field))
    for gens in (jordan, twisted):
        yield FiniteModule(
            field=field, x=inc.x, s=inc.s, positions=positions, dim=d, gens=tuple(gens)
        )


@pytest.mark.parametrize(
    "q,field", [(5, F16), (5, F256), (7, F8)], ids=["F16", "F256", "F8"]
)
def test_split_matches_stacked_oracle(split_incidences, q, field):
    # modules from the library, and, over F_8 and F_16, modules built
    # directly whose generators are neither semisimple nor commuting:
    # `split` and the identity's verdict equal the fold of one eigenvalue
    # at a time, and the eigenspaces of each generator on the whole space
    # are the fold's bases
    cfg = CFG if q == 5 else CFG7
    rng = random.Random(f"split:{field.order}")
    built_rng = random.Random(f"built:{field.order}")
    zeta = field.root_of_unity(q)
    lams = [field.pow(zeta, e) for e in range(q)]
    verdicts = set()
    for coarse, finer in split_incidences[q]:
        x, s = finer[0], Q(finer[1])
        classes = enumerate_and_classify(cfg, coarse, finer)
        inc = _Incidence(cfg, classes)
        chars = extension_characters(cfg, coarse, finer)
        tags = [cls.tag for cls in classes]
        restricted = _restricted_positions(cfg, coarse.x, coarse.s, x, s)
        everywhere = range(len(chars[0]))
        built = [] if field is F256 else list(_built_modules(cfg, field, inc, chars, built_rng))
        for M in [*_oracle_modules(cfg, field, inc, chars, rng), *built]:
            want_lhs = _eigenspace_dim(
                M, restricted, [chars[0][k] for k in restricted], zeta
            )
            want = [_eigenspace_dim(M, everywhere, c, zeta) for c in chars]
            assert inc.split(cfg, M) == fold_split(cfg, inc, M) == (want_lhs, want)
            verdict = verify_fork_identity(cfg, [M], classes)
            assert verdict == (want_lhs == sum(want))
            verdicts.add(verdict)
            if M in built:
                whole = gf.identity(M.dim)
                for k in everywhere:
                    assert _eigenspaces(M, whole, k, lams) == [
                        restrict_oracle(M, whole, k, lam) for lam in lams
                    ]
                continue
            assert [hom_dim(cfg, M, cls.chi) for cls in classes] == want
            want_deg = sum(d for d, t in zip(want, tags) if t != "A")
            assert fork_report(cfg, M, coarse, finer) == (want_lhs, sum(want), want_deg)
            # random phi of the piece: exponent e at (i, j) is phi's (j, i) coefficient
            for ct in {tuple(rng.randrange(q) for _ in everywhere) for _ in range(4)}:
                phi = GradedElement.make(
                    cfg, x, -s, {(j, i): e for (i, j), e in zip(M.positions, ct)}
                )
                assert hom_dim(cfg, M, phi) == _eigenspace_dim(M, everywhere, ct, zeta)
    # directly built modules break the identity where a Jordan block or a
    # generator that moves the node keeps the eigenspaces from filling it
    assert verdicts == ({True} if field is F256 else {True, False})


@pytest.mark.parametrize("q", [5, 7])
def test_incidence_base_and_keys_are_the_per_member_exponents(split_incidences, q):
    # the per-member oracle: each member's `_exponents` at every support
    # position, read at the restricted positions (the same for every
    # member) and at the free ones
    cfg = CFG if q == 5 else CFG7
    nonzero_base = nonzero_keys = 0
    for coarse, finer in split_incidences[q]:
        classes = enumerate_and_classify(cfg, coarse, finer)
        inc = _Incidence(cfg, classes)
        positions = graded_support(cfg, inc.x, inc.s, _checked=True).positions
        exponents = [_exponents(cls.chi, positions) for cls in classes]
        assert {tuple(ex[k] for k in inc.restricted) for ex in exponents} == {inc.base}
        assert inc.keys == [tuple(ex[k] for k in inc.free) for ex in exponents]
        nonzero_base += any(inc.base)
        nonzero_keys += len({key for key in inc.keys if any(key)}) > 1
    assert nonzero_base >= 1 and nonzero_keys >= 5


@pytest.mark.parametrize("q,field", [(3, F4), (7, F8), (5, F16)], ids=["F4", "F8", "F16"])
def test_random_module_generators_are_the_two_product_conjugates(q, field):
    # C D C^-1 with C D formed by scaling the columns of C: the draws of
    # `FiniteModule.random`, replayed on a twin stream, give the same
    # generators through two products, and leave the streams level
    cfg = make_cfg(2, q)
    npos = len(graded_support(cfg, X_HYP, Q(1)).positions)
    elems = list(field.elements())
    for dim in range(1, 7):
        for seed in range(3):
            rng = random.Random(f"gens:{q}:{dim}:{seed}")
            twin = random.Random(f"gens:{q}:{dim}:{seed}")
            M = FiniteModule.random(cfg, field, X_HYP, Q(1), dim, rng)
            tuples = [tuple(twin.randrange(q) for _ in range(npos)) for _ in range(dim)]
            while True:
                conj = [[twin.choice(elems) for _ in range(dim)] for _ in range(dim)]
                if gf.rank(conj, field) == dim:
                    break
            assert M.gens == conjugated_generators(cfg, field, tuples, conj)
            assert rng.getstate() == twin.getstate()


def test_fork_identity_classifies_once_and_stops_at_first_failure(monkeypatch):
    # at the hyperspecial worked instance every extension shares the
    # exponents on restricted positions 0, 1, 3 and position 2 is free; a
    # Jordan block there has a 2-dimensional restricted eigenspace but only
    # a 1-dimensional eigenspace for each extension.  The module is built
    # directly: `validate` would reject it, since the block has order 2.
    coarse, finer = worked_instances(CFG)[1]
    x, s = finer
    inc = _Incidence(CFG, enumerate_and_classify(CFG, coarse, finer))
    assert (inc.restricted, inc.free) == ((0, 1, 3), (2,))
    one = gf.identity(2)
    jordan = FiniteModule(
        field=F16, x=x, s=s, positions=graded_support(CFG, x, s).positions, dim=2,
        gens=(one, one, ((1, 1), (0, 1)), one),
    )
    assert _eigenspace_dim(jordan, (0, 1, 3), (0, 0, 0), F16.root_of_unity(5)) == 2
    assert fork_report(CFG, jordan, coarse, finer) == (2, 1, 1)
    classes = enumerate_and_classify(CFG, coarse, finer)
    assert sum(hom_dim(CFG, jordan, cls.chi) for cls in classes) == 1

    # the identity reads the decomposition it is handed: the one
    # classification is the caller's
    classified = []
    real = refine.enumerate_and_classify

    def counting(*args, **kwargs):
        classified.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(refine, "enumerate_and_classify", counting)
    drawn = []

    def modules():
        rng = random.Random(3)
        for _ in range(4):
            drawn.append("good")
            yield FiniteModule.random(CFG, F16, x, s, rng.randrange(1, 7), rng)
        drawn.append("jordan")
        yield jordan
        drawn.append("after")
        yield FiniteModule.random(CFG, F16, x, s, 2, rng)

    decomposition = refine.enumerate_and_classify(CFG, coarse, finer)
    assert verify_fork_identity(CFG, modules(), decomposition) is False
    assert drawn == ["good"] * 4 + ["jordan"]
    assert len(classified) == 1


def test_fork_identity_without_classes_crosschecks_the_b_class_once(monkeypatch):
    # the decomposition the identity reads cross-checked its B class
    # against the unipotent orbit, as every classification does, and the
    # identity classifies nothing more
    real = refine._crosscheck_b_class
    crosschecked = []

    def counting(*args, **kwargs):
        crosschecked.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(refine, "_crosscheck_b_class", counting)
    coarse, (x, s) = worked_instances(CFG)[0]
    rng = random.Random(5)
    modules = [FiniteModule.random(CFG, F16, x, s, 3, rng) for _ in range(2)]
    decomposition = enumerate_and_classify(CFG, coarse, (x, s))
    assert verify_fork_identity(CFG, modules, decomposition)
    assert len(crosschecked) == 1


def test_fork_identity_reads_only_its_decomposition():
    # a decomposition carries its incidence, so the identity takes nothing
    # beside it: an incidence paired with another one's classes cannot be
    # passed
    coarse, (x, s) = worked_instances(CFG)[1]
    foreign = enumerate_and_classify(CFG, coarse, (x, s))
    other = DMPPair.make(CFG, Q(5, 4), x, GradedElement.zero(x, Q(-5, 4)))
    rng = random.Random(9)
    modules = [FiniteModule.random(CFG, F16, x, s, 2, rng)]
    assert list(inspect.signature(verify_fork_identity).parameters) == [
        "cfg", "modules", "decomposition"
    ]
    with pytest.raises(TypeError):
        verify_fork_identity(CFG, modules, other, (x, s), classes=foreign)
    assert verify_fork_identity(CFG, modules, enumerate_and_classify(CFG, other, (x, s)))


def test_fork_identity_errors_name_the_public_entry():
    # a module on another piece, and one over a field without 5th roots of
    # unity, are refused by the CLI's entry, which the error names
    coarse, (x, s) = worked_instances(CFG)[0]
    decomposition = enumerate_and_classify(CFG, coarse, (x, s))
    elsewhere = FiniteModule.from_characters(CFG, F16, X_HYP, Q(1), [(0, 0, 0, 0)])
    with pytest.raises(ValidationError, match="finer graded piece") as err:
        verify_fork_identity(CFG, [elsewhere], decomposition)
    assert err.value.where == "finite_types.verify_fork_identity"
    f4 = gf.ExtField(2, 2)
    positions = graded_support(CFG, x, s).positions
    bad = FiniteModule(
        field=f4, x=x, s=s, positions=positions, dim=1, gens=(((1,),),) * len(positions)
    )
    with pytest.raises(ValidationError, match="does not divide") as err:
        verify_fork_identity(CFG, [bad], decomposition)
    assert err.value.where == "finite_types.verify_fork_identity"


def test_validate_accepts_constructed_modules_and_rejects_built_ones():
    # the library does not validate its modules: their generators C D C^-1
    # with D a diagonal of p-th roots of unity have order p and commute by
    # construction, which `validate` confirms on 50 seeded modules
    rng = random.Random("validate-oracle")
    pieces = [(X_HYP, Q(1)), (X_IWA, Q(1, 2)), (X_IWA, Q(1)), (X_IWA, Q(3, 2))]
    for k in range(50):
        x, s = pieces[k % len(pieces)]
        field = (F16, F256)[k % 2]
        M = FiniteModule.random(CFG, field, x, s, rng.randrange(1, 7), rng)
        assert M.gens
        validate(CFG, M)
    # the Jordan block of the fork-identity test has order 2, not dividing 5
    one = gf.identity(2)
    positions = regular_module(CFG, F16, X_HYP, Q(1)).positions
    jordan = FiniteModule(
        field=F16, x=X_HYP, s=Q(1), positions=positions, dim=2,
        gens=(one, one, ((1, 1), (0, 1)), one),
    )
    with pytest.raises(ValidationError, match="order dividing p"):
        validate(CFG, jordan)
    # two generators of order 5 that do not commute
    z = F16.root_of_unity(5)
    diag = ((z, 0), (0, 1))
    c = ((1, 1), (0, 1))
    twisted = gf.mat_mul(gf.mat_mul(c, diag, F16), gf.mat_inv(c, F16), F16)
    apart = FiniteModule(
        field=F16, x=X_HYP, s=Q(1), positions=positions, dim=2,
        gens=(diag, twisted, one, one),
    )
    with pytest.raises(ValidationError, match="do not commute"):
        validate(CFG, apart)
