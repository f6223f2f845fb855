"""Probe catalogs, triangular inversion, round trips."""

import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes.apartment import ApartmentPoint, GroupConfig
from mptypes.errors import InternalFault, ValidationError
from mptypes.measures import build_measure_table
from mptypes.orbits import OrbitLabel, closure_order, dominance_leq, partitions_of
from mptypes.refine import DMPPair
from mptypes.solver import (
    CoefficientMatrix,
    MultiplicityVector,
    _invert_rational,
    alt_probes_gl2,
    assemble_and_invert,
    choose_probes,
    matrix_problem,
    solve_expansion,
    synthesize_vector,
)

import solver_oracle


def make_cfg(n, q=5, m=16):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


CFG2 = make_cfg(2)
CFG3 = make_cfg(3)


def gl2_matrix(K=2):
    return assemble_and_invert(CFG2, build_measure_table(CFG2, choose_probes(CFG2, 0), K))


def gl3_matrix():
    return assemble_and_invert(CFG3, build_measure_table(CFG3, choose_probes(CFG3, 0), 1))


def test_choose_probes_default_catalog():
    probes = choose_probes(CFG2, 0)
    assert probes[0].lift == OrbitLabel.of((1, 1))
    assert probes[0].s == 1 and probes[0].phi.is_zero()
    assert probes[1].lift == OrbitLabel.of((2,))
    assert probes[1].s == Q(1, 2)
    assert probes[1].x.coords == (Q(1, 2), Q(0))
    # period-one translation of levels for r = 3/4
    shifted = choose_probes(CFG2, Q(3, 4))
    assert shifted[0].s == 1 and shifted[1].s == Q(3, 2)
    # n = 3: three probes realizing the three partitions
    probes3 = choose_probes(CFG3, 0)
    assert [p.lift for p in probes3] == list(partitions_of(3))
    # a measure table's rows are M as they stand: every catalog lists one
    # probe per orbit, in partitions_of order
    for m in (15, 16):
        for r in (0, Q(1, 2), 1, Q(7, 4)):
            for n in range(2, 7):
                lifts = [p.lift for p in choose_probes(make_cfg(n, m=m), r)]
                assert lifts == list(partitions_of(n)), (n, m, r)
            alt = [p.lift for p in alt_probes_gl2(make_cfg(2, m=m), r)]
            assert alt == list(partitions_of(2)), (m, r)


@pytest.mark.parametrize(
    "catalog, cfg",
    [(choose_probes, CFG2), (choose_probes, CFG3), (alt_probes_gl2, CFG2)],
    ids=["default-gl2", "default-gl3", "alt-gl2"],
)
def test_catalogs_reuse_a_known_pair_equal_in_its_fields(catalog, cfg):
    base = catalog(cfg, 0)
    again = catalog(cfg, 0, base[:1])
    assert again == base
    assert again[0] is base[0] and all(a is not b for a, b in zip(again[1:], base[1:]))


def test_choose_probes_checks_the_lift_of_a_reused_pair():
    # a known pair carrying the wrong lift is caught by the catalog's own check
    zero = choose_probes(CFG2, 0)[0]
    forged = DMPPair(s=zero.s, x=zero.x, phi=zero.phi, lift=OrbitLabel.of((2,)))
    with pytest.raises(InternalFault, match=r"probe for \(1,1\) has lift \(2\)"):
        choose_probes(CFG2, 0, [forged])


def test_assemble_and_invert_structure():
    cm = gl2_matrix()
    assert cm.m_rows[1][0] == 0
    assert cm.m_rows[0][0] > 0 and cm.m_rows[1][1] > 0
    # A = [[1, -m1/m2], [0, 1/m2]] for M = [[1, m1], [0, m2]]
    m1, m2 = cm.m_rows[0][1], cm.m_rows[1][1]
    assert cm.a_rows[0] == (1, -m1 / m2)
    assert cm.a_rows[1] == (0, 1 / m2)
    # A_{O',O}, the entry at (row O, column O'), is 0 unless O' >= O
    for i, o in enumerate(cm.orbits):
        for j, op in enumerate(cm.orbits):
            if cm.a_rows[i][j] != 0:
                assert dominance_leq(o, op)


def test_gl3_structure():
    cm = gl3_matrix()
    k = len(cm.orbits)
    for i in range(k):
        assert cm.m_rows[i][i] > 0
        for j in range(k):
            if not dominance_leq(cm.orbits[i], cm.orbits[j]):
                assert cm.m_rows[i][j] == 0
                assert cm.a_rows[i][j] == 0


def test_solve_unit_vectors():
    cm = gl2_matrix()
    # v = measure row of a single orbit: coefficients are the indicator
    for j, o in enumerate(cm.orbits):
        entries = {p: row[j] for p, row in zip(cm.probes, cm.m_rows)}
        # measure entries may be non-integral; synthesize via solve on a
        # scaled integral vector
        scale = 1
        for val in entries.values():
            scale = scale * val.denominator
        v = MultiplicityVector.make(0, {p: int(val * scale) for p, val in entries.items()})
        res = solve_expansion(CFG2, v, cm)
        assert res.coefficients == tuple((o2, scale if o2 == o else 0) for o2 in cm.orbits)


def test_solve_zero_vector():
    cm = gl2_matrix()
    v = MultiplicityVector.make(0, {p: 0 for p in cm.probes})
    res = solve_expansion(CFG2, v, cm)
    assert all(c == 0 for _, c in res.coefficients)


def test_round_trip_identity():
    rng = random.Random(53)
    for cm in (gl2_matrix(), gl3_matrix()):
        for _ in range(100):
            coeffs = {
                o: Q(rng.randrange(-20, 21), rng.randrange(1, 9)) for o in cm.orbits
            }
            comps = synthesize_vector(cm, coeffs)
            # invert directly (synthesized components are rational, not
            # integer multiplicities, so solve by the inverse matrix)
            vec = [comps[p] for p in cm.probes]
            k = len(cm.orbits)
            solved = [
                sum(cm.a_rows[i][j] * vec[j] for j in range(k)) for i in range(k)
            ]
            assert solved == [coeffs[o] for o in cm.orbits]


def test_solver_missing_probe_rejected():
    cm = gl2_matrix()
    v = MultiplicityVector.make(0, {cm.probes[0]: 1})
    with pytest.raises(ValidationError) as exc:
        solve_expansion(CFG2, v, cm)
    assert "missing" in str(exc.value)


def test_probe_independence_zero_sets():
    # two catalogs give coefficient vectors with the same zero set
    cm_a = gl2_matrix()
    cm_b = assemble_and_invert(CFG2, build_measure_table(CFG2, alt_probes_gl2(CFG2, 0), 2))
    rng = random.Random(71)
    for _ in range(25):
        coeffs = {o: Q(rng.randrange(0, 4)) for o in cm_a.orbits}
        comp_a = synthesize_vector(cm_a, coeffs)
        comp_b = synthesize_vector(cm_b, coeffs)
        vec_a = [comp_a[p] for p in cm_a.probes]
        vec_b = [comp_b[p] for p in cm_b.probes]
        k = len(cm_a.orbits)
        sa = [sum(cm_a.a_rows[i][j] * vec_a[j] for j in range(k)) for i in range(k)]
        sb = [sum(cm_b.a_rows[i][j] * vec_b[j] for j in range(k)) for i in range(k)]
        assert [x == 0 for x in sa] == [x == 0 for x in sb]
        assert sa == sb == [coeffs[o] for o in cm_a.orbits]


def test_multiplicity_vector_validation():
    probes = choose_probes(CFG2, 0)
    with pytest.raises(ValidationError):
        MultiplicityVector.make(2, {probes[0]: 1})  # level <= r
    with pytest.raises(ValidationError):
        MultiplicityVector.make(0, {probes[0]: -1})


@pytest.mark.parametrize("value", [Q(-1, 2), 2.5, True], ids=["fraction", "float", "bool"])
def test_multiplicity_vector_refuses_what_is_not_an_int(value):
    probe = choose_probes(CFG2, 0)[0]
    with pytest.raises(ValidationError, match="non-negative integers") as err:
        MultiplicityVector.make(0, {probe: value})
    assert err.value.where == "solver.MultiplicityVector"
    for ok in (0, 3):
        assert MultiplicityVector.make(0, {probe: ok}).entries == ((probe, ok),)


def test_synthesized_vectors_satisfy_refine_relations():
    # components built from any coefficient vector lie in the span the
    # relations cut out: every emitted record verifies on them
    from fractions import Fraction as F

    from mptypes.apartment import ApartmentPoint
    from mptypes.graded import GradedElement
    from mptypes.measures import count_measure, relation_lattice
    from mptypes.refine import refine_relation, verify_relation

    y = ApartmentPoint.of([Q(1, 4), 0])
    coarse = DMPPair.make(CFG2, 1, y, GradedElement.zero(y, -1))
    x0 = ApartmentPoint.of([0, 0])
    rec = refine_relation(CFG2, coarse, (x0, Q(1)))
    lam = relation_lattice(CFG2, rec)
    slices = {
        o: {p: count_measure(CFG2, o, p, 2, lam) for p in rec.pairs()}
        for o in partitions_of(2)
    }
    rng = random.Random(77)
    for _ in range(20):
        coeffs = {o: F(rng.randrange(-9, 10), rng.randrange(1, 5)) for o in slices}
        comps = {
            p: sum(slices[o][p] * c for o, c in coeffs.items()) for p in rec.pairs()
        }
        assert verify_relation(CFG2, rec, comps)


# -- back substitution and the skipped zero terms against the full forms ----


def random_triangular(rng, n):
    """A random rational k x k matrix, k = p(n), zero wherever the closure
    order on partitions_of(n) fails and, with probability 0.3, at each
    entry above the diagonal where it holds; the diagonal is nonzero."""
    leq = closure_order(n)
    k = len(leq)
    return tuple(
        tuple(
            Q(rng.choice((-1, 1)) * rng.randrange(1, 50), rng.randrange(1, 20)) if i == j
            else Q(rng.randrange(-30, 31), rng.randrange(1, 20))
            if leq[i][j] and rng.random() > 0.3 else Q(0)
            for j in range(k)
        )
        for i in range(k)
    )


def random_matrix(rng, n):
    """A CoefficientMatrix on GL_n's default catalog: a random triangular M
    with its inverse by Gauss-Jordan elimination."""
    m = random_triangular(rng, n)
    return CoefficientMatrix(
        orbits=partitions_of(n),
        probes=tuple(choose_probes(make_cfg(n), 0)),
        m_rows=m,
        a_rows=tuple(map(tuple, solver_oracle.invert_rational(m))),
        normalization="random",
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_back_substitution_equals_gauss_jordan(n):
    rng = random.Random(f"invert:{n}")
    for _ in range(40):
        m = random_triangular(rng, n)
        inv = _invert_rational(m)
        assert inv == solver_oracle.invert_rational(m)
        assert all(type(v) is Q for row in inv for v in row)
    # a zero on the diagonal makes the matrix singular, a missing row not square
    k = len(m)
    rows = [list(r) for r in m]
    rows[k // 2][k // 2] = Q(0)
    assert _invert_rational(rows) == solver_oracle.invert_rational(rows) == []
    assert _invert_rational([list(r) for r in m[:-1]]) == []


MESSAGES = (
    "orbits or probe lifts are not in the ascending orbit order",
    "M is not",
    "zero diagonal at",
    "nonzero entry below the order at",
    "A is not",
    "M A != I",
    "inverse nonzero below the order at",
)


def forge(rng, cm, fault):
    """cm with one fault of the kind named put in at random."""
    k = len(cm.orbits)
    leq = closure_order(cm.orbits[0].n)
    below = [(i, j) for i in range(k) for j in range(k) if not leq[i][j]]
    above = [(i, j) for i in range(k) for j in range(k) if leq[i][j]]
    m, a, probes = [list(r) for r in cm.m_rows], [list(r) for r in cm.a_rows], list(cm.probes)
    nonzero = Q(rng.choice((-1, 1)) * rng.randrange(1, 9), rng.randrange(1, 9))
    if fault == "probe order":
        i, j = sorted(rng.sample(range(k), 2))
        probes[i], probes[j] = probes[j], probes[i]
    elif fault in ("M shape", "A shape"):
        rows = m if fault == "M shape" else a
        rng.choice((rows.pop, rows[rng.randrange(k)].pop, lambda: rows[-1].append(Q(0))))()
    elif fault == "zero diagonal":
        i = rng.randrange(k)
        m[i][i] = Q(0)
    elif fault in ("M below", "A below"):
        i, j = rng.choice(below)
        (m if fault == "M below" else a)[i][j] = nonzero
    elif fault == "A below, balanced":
        # add a multiple of A's last column to an earlier column: M A then
        # differs from I in its last row only, after the entries of A below
        # the order that this puts in
        j = rng.randrange(k - 1)
        for i in range(k):
            a[i][j] += nonzero * a[i][k - 1]
    elif fault == "A above":
        i, j = rng.choice(above)
        a[i][j] += nonzero
    return CoefficientMatrix(
        orbits=cm.orbits, probes=tuple(probes), m_rows=tuple(map(tuple, m)),
        a_rows=tuple(map(tuple, a)), normalization=cm.normalization,
    )


FAULTS = (
    "probe order", "M shape", "A shape", "zero diagonal", "M below", "A below",
    "A below, balanced", "A above",
)


@pytest.mark.parametrize("n", range(2, 7))
def test_matrix_problem_reports_what_the_full_check_reports(n):
    rng = random.Random(f"forge:{n}")
    cfg = make_cfg(n)
    found = set()
    for trial in range(120):
        cm = random_matrix(rng, n)
        if trial < 80:
            faults = [FAULTS[trial % len(FAULTS)]]
        else:  # several faults, a change of shape last: the others index the full matrix
            faults = sorted(rng.sample(FAULTS, rng.randrange(2, 4)), key=lambda f: "shape" in f)
        for fault in faults:
            cm = forge(rng, cm, fault)
        problem = matrix_problem(cfg, cm)
        assert problem == solver_oracle.matrix_problem(cfg, cm), (faults, problem)
        found.add(next(msg for msg in MESSAGES if problem.startswith(msg)))
    assert matrix_problem(cfg, random_matrix(rng, n)) is None
    # at n = 2 the one entry below the order sits in the last row, where
    # M A = I is checked first and already fails
    assert found == set(MESSAGES) - ({"inverse nonzero below the order at"} if n == 2 else set())


@pytest.mark.parametrize("n", range(2, 7))
def test_solve_expansion_equals_the_full_sums(n):
    rng = random.Random(f"solve:{n}")
    cfg = make_cfg(n)
    for trial in range(30):
        cm = random_matrix(rng, n)
        if trial % 3 == 2:
            cm = forge(rng, cm, "A above")
        counts = [rng.choice((0, 0, rng.randrange(1, 100))) for _ in cm.probes]
        expected = solver_oracle.solve_coefficients(cm, [Q(c) for c in counts])
        v = MultiplicityVector.make(0, dict(zip(cm.probes, counts)))
        if expected is None:
            with pytest.raises(InternalFault, match="fail to reproduce the input"):
                solve_expansion(cfg, v, cm)
            continue
        res = solve_expansion(cfg, v, cm)
        assert res.coefficients == tuple(zip(cm.orbits, expected))
        assert all(type(c) is Q for _, c in res.coefficients)
