"""Probe catalogs, triangular inversion, round trips."""

import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes.apartment import ApartmentPoint, GroupConfig
from mptypes.errors import InternalFault, ValidationError
from mptypes.measures import build_measure_table
from mptypes.orbits import OrbitLabel, dominance_leq, partitions_of
from mptypes.refine import DMPPair
from mptypes.solver import (
    MultiplicityVector,
    alt_probes_gl2,
    assemble_and_invert,
    choose_probes,
    solve_expansion,
    synthesize_vector,
)


def make_cfg(n, q=5, m=16):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


CFG2 = make_cfg(2)
CFG3 = make_cfg(3)


def gl2_matrix(K=2):
    probes = choose_probes(CFG2, 0)
    table = build_measure_table(CFG2, probes, K, partitions_of(2))
    return assemble_and_invert(CFG2, probes, table), table


def gl3_matrix():
    probes = choose_probes(CFG3, 0)
    table = build_measure_table(CFG3, probes, 1, partitions_of(3))
    return assemble_and_invert(CFG3, probes, table), table


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
    cm, _ = gl2_matrix()
    assert cm.m_rows[1][0] == 0
    assert cm.m_rows[0][0] > 0 and cm.m_rows[1][1] > 0
    # A = [[1, -m1/m2], [0, 1/m2]] for M = [[1, m1], [0, m2]]
    m1, m2 = cm.m_rows[0][1], cm.m_rows[1][1]
    assert cm.a_rows[0] == (1, -m1 / m2)
    assert cm.a_rows[1] == (0, 1 / m2)
    # paper-indexed access: A_{O',O} = 0 unless O' >= O
    for o in cm.orbits:
        for op in cm.orbits:
            if cm.coeff(op, o) != 0:
                assert dominance_leq(o, op)


def test_gl3_structure():
    cm, _ = gl3_matrix()
    k = len(cm.orbits)
    for i in range(k):
        assert cm.m_rows[i][i] > 0
        for j in range(k):
            if not dominance_leq(cm.orbits[i], cm.orbits[j]):
                assert cm.m_rows[i][j] == 0
                assert cm.a_rows[i][j] == 0


def test_solve_unit_vectors():
    cm, table = gl2_matrix()
    # v = measure row of a single orbit: coefficients are the indicator
    for o in cm.orbits:
        entries = {p: table.entry(o, p) for p in cm.probes}
        # measure entries may be non-integral; synthesize via solve on a
        # scaled integral vector
        scale = 1
        for val in entries.values():
            scale = scale * val.denominator
        v = MultiplicityVector.make(0, {p: int(val * scale) for p, val in entries.items()})
        res = solve_expansion(CFG2, v, cm)
        for o2 in cm.orbits:
            assert res.coeff(o2) == (scale if o2 == o else 0)


def test_solve_zero_vector():
    cm, _ = gl2_matrix()
    v = MultiplicityVector.make(0, {p: 0 for p in cm.probes})
    res = solve_expansion(CFG2, v, cm)
    assert all(c == 0 for _, c in res.coefficients)


def test_round_trip_identity():
    rng = random.Random(53)
    for cfg, (cm, table) in ((CFG2, gl2_matrix()), (CFG3, gl3_matrix())):
        for _ in range(100):
            coeffs = {
                o: Q(rng.randrange(-20, 21), rng.randrange(1, 9)) for o in cm.orbits
            }
            comps = synthesize_vector(cfg, coeffs, cm.probes, table)
            # invert directly (synthesized components are rational, not
            # integer multiplicities, so solve by the inverse matrix)
            vec = [comps[p] for p in cm.probes]
            k = len(cm.orbits)
            solved = [
                sum(cm.a_rows[i][j] * vec[j] for j in range(k)) for i in range(k)
            ]
            assert solved == [coeffs[o] for o in cm.orbits]


def test_assemble_order_independence():
    probes = choose_probes(CFG2, 0)
    table = build_measure_table(CFG2, probes, 2, partitions_of(2))
    cm_fwd = assemble_and_invert(CFG2, probes, table)
    cm_rev = assemble_and_invert(CFG2, list(reversed(probes)), table)
    assert cm_fwd == cm_rev  # canonical dominance order inside


def test_solver_missing_probe_rejected():
    cm, _ = gl2_matrix()
    v = MultiplicityVector.make(0, {cm.probes[0]: 1})
    with pytest.raises(ValidationError) as exc:
        solve_expansion(CFG2, v, cm)
    assert "missing" in str(exc.value)


def test_probe_independence_zero_sets():
    # two catalogs give coefficient vectors with the same zero set
    cm_a, table_a = gl2_matrix()
    probes_b = alt_probes_gl2(CFG2, 0)
    table_b = build_measure_table(CFG2, probes_b, 2, partitions_of(2))
    cm_b = assemble_and_invert(CFG2, probes_b, table_b)
    rng = random.Random(71)
    for _ in range(25):
        coeffs = {o: Q(rng.randrange(0, 4)) for o in cm_a.orbits}
        comp_a = synthesize_vector(CFG2, coeffs, cm_a.probes, table_a)
        comp_b = synthesize_vector(CFG2, coeffs, cm_b.probes, table_b)
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
