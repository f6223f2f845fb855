"""Lattice shapes, graded supports, geodesic plans and convexity."""

import itertools
import random
import warnings
from fractions import Fraction as Q
from math import ceil, floor

import pytest

from geodesic_oracle import brute_constancy, certificate_witnesses, sampled_constancy_ok
from mptypes import apartment, jsonio
from mptypes.apartment import (
    ApartmentPoint,
    GeodesicPlan,
    GroupConfig,
    LatticeShape,
    breakpoints,
    convexity_check,
    graded_support,
    inclusion_chain_ok,
    mp_lattice,
    verify_plan,
)
from mptypes.errors import InternalFault, ValidationError
from mptypes.refine import check_incidence
from record_oracle import replace


def cfg2(m=8):
    return cfgn(2, m)


def cfg3(m=8):
    return cfgn(3, m)


def cfgn(n, m=8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=5, m=m)


def pt(*coords):
    return ApartmentPoint.of([Q(c) for c in coords])


def test_small_q_warns():
    # at the line that built the config, not inside the generated __init__
    with pytest.warns(UserWarning, match="large-p regime") as caught:
        GroupConfig(n=2, q=5, m=2)
    assert [w.filename for w in caught] == [__file__]


def test_point_normalization():
    x = ApartmentPoint.of([Q(3, 8), Q(1, 4)])
    assert x.coords == (Q(1, 8), Q(0))
    with pytest.raises(ValidationError):
        ApartmentPoint((Q(1, 2), Q(1, 4)))


def test_mp_lattice_worked_values():
    cfg = cfg2()
    # hyperspecial point, integral level: gl_2(O)
    sh = mp_lattice(cfg, pt(0, 0), 0)
    assert sh.bounds == ((0, 0), (0, 0))
    # ceil(1/2 + x_j - x_i) entrywise
    sh = mp_lattice(cfg, pt(Q(1, 2), 0), Q(1, 2))
    assert sh.bounds == ((1, 0), (1, 1))
    # floor(-1/2 + x_j - x_i) + 1 entrywise
    sh = mp_lattice(cfg, pt(Q(1, 2), 0), Q(-1, 2), strict=True)
    assert sh.bounds == ((0, 0), (1, 0))


def test_mp_lattice_rejects_bad_denominator():
    cfg = cfg2(m=2)
    with pytest.raises(ValidationError):
        mp_lattice(cfg, pt(Q(1, 3), 0), 0)
    with pytest.raises(ValidationError):
        mp_lattice(cfg, pt(0, 0), Q(1, 3))


def test_strict_vs_nonstrict_equality_pattern():
    cfg = cfg2()
    x = pt(Q(1, 2), 0)
    s = Q(1, 2)
    st = mp_lattice(cfg, x, s, strict=True).bounds
    ns = mp_lattice(cfg, x, s, strict=False).bounds
    for i in range(2):
        for j in range(2):
            integral = (s + x[j] - x[i]).denominator == 1
            assert st[i][j] >= ns[i][j]
            assert (st[i][j] == ns[i][j]) == (not integral)


def test_graded_support_worked_values():
    cfg = cfg2()
    sup = graded_support(cfg, pt(0, 0), -1)
    assert dict(sup.entries) == {(0, 0): -1, (0, 1): -1, (1, 0): -1, (1, 1): -1}
    sup = graded_support(cfg, pt(Q(1, 2), 0), Q(-1, 2))
    assert dict(sup.entries) == {(0, 1): -1, (1, 0): 0}
    assert sup.dim == 2
    sup = graded_support(cfg, pt(Q(3, 8), 0), Q(-5, 8))
    assert dict(sup.entries) == {(0, 1): -1}
    assert sup.dim == 1


def test_lattice_periodicity_and_nesting():
    cfg = cfg3(m=4)
    rng = random.Random(1)
    denoms = [1, 2, 4]
    for _ in range(40):
        d = rng.choice(denoms)
        x = ApartmentPoint.of([Q(rng.randrange(-4, 5), d) for _ in range(3)])
        s = Q(rng.randrange(-8, 9), rng.choice(denoms))
        a = mp_lattice(cfg, x, s).bounds
        b = mp_lattice(cfg, x, s + 1).bounds
        assert all(b[i][j] == a[i][j] + 1 for i in range(3) for j in range(3))
    # exhaustive nesting over a small grid
    grid = [Q(k, 4) for k in range(0, 4)]
    for xc in itertools.product(grid, repeat=2):
        x = ApartmentPoint.of(list(xc) + [0])
        for snum in range(-4, 5):
            s = Q(snum, 4)
            ns = mp_lattice(cfg, x, s)
            st = mp_lattice(cfg, x, s, strict=True)
            finer = mp_lattice(cfg, x, s + Q(1, 4))
            assert ns.contains(st)
            assert st.contains(finer)


def test_graded_dimension_is_lattice_quotient_rank():
    cfg = cfg3(m=4)
    grid = [Q(k, 4) for k in range(0, 4)]
    for a in grid:
        x = ApartmentPoint.of([a, Q(1, 2), 0])
        for snum in range(-3, 4):
            s = Q(snum, 4)
            ns = mp_lattice(cfg, x, s)
            st = mp_lattice(cfg, x, s, strict=True)
            assert graded_support(cfg, x, s).dim == ns.dim_quotient_by(st)


def test_graded_dimension_additivity():
    cfg = cfg3(m=4)
    grid = [Q(k, 4) for k in range(0, 4)]
    for xc in itertools.product(grid, repeat=2):
        x = ApartmentPoint.of(list(xc) + [0])
        for snum in range(-2, 3):
            s = Q(snum, 2)
            total = sum(
                graded_support(cfg, x, s + Q(k, 4)).dim for k in range(4)
            )
            assert total == 9


def test_breakpoints_worked_examples():
    cfg = cfg2()
    plan = breakpoints(cfg, pt(0, 0), 1, pt(Q(1, 2), 0), Q(1, 2))
    assert plan.ts == (Q(0), Q(1))
    plan = breakpoints(cfg, pt(Q(1, 4), 0), Q(3, 4), pt(Q(1, 4), 0), Q(3, 4))
    assert plan.ts == (Q(0), Q(1))
    plan = breakpoints(cfg, pt(0, 0), 1, pt(Q(1, 2), 0), 1)
    assert plan.ts == (Q(0), Q(1))
    # the interval lattice strictly contains the endpoint lattice via t^-1 e_12
    interval_shape = certificate_shapes(plan.intervals[0])[5]  # g_{y > -1}
    assert interval_shape.bounds[0][1] == -1
    endpoint = mp_lattice(cfg, pt(0, 0), -1, strict=True)
    assert endpoint.bounds[0][1] == 0
    assert endpoint.contains(interval_shape) is False
    assert interval_shape.contains(endpoint)


def test_interval_witnesses_cover_levels_zero_and_plus_minus_s():
    cfg = cfg3()
    plan = breakpoints(cfg, pt(Q(1, 4), Q(1, 2), 0), Q(3, 4), pt(0, Q(1, 8), 0), Q(1, 8))
    shapes_json = [iv["shapes"] for iv in jsonio.plan_to_json(cfg, plan)["intervals"]]
    for cert, shapes in zip(plan.intervals, shapes_json, strict=True):
        x, s = plan.point_at(cert.sample)
        assert (cert.x, cert.s) == (x, s)
        witnesses = [(lv, st) for lv in (0, s, -s) for st in (False, True)]
        provenance = [sh["provenance"] for sh in shapes]
        assert [(Q(p["s"]), p["strict"]) for p in provenance] == witnesses
        assert {Q(p["s"]) for p in provenance} == {Q(0), s, -s}
        assert cert.six == flat(
            mp_lattice(cfg, x, lv, st, _checked=True).bounds for lv, st in witnesses
        )


def test_breakpoints_catch_interior_crossing():
    cfg = cfg2()
    # from level 0 to level 1 at a fixed vertex the diagonal bound jumps at t=0,1
    # while a path crossing an alcove wall yields an interior breakpoint
    plan = breakpoints(cfg, pt(0, 0), Q(1, 2), pt(1, 0), Q(1, 2))
    assert Q(1, 2) in plan.ts


def test_convexity_worked_instance():
    cfg = cfg2()
    x0, x1 = pt(0, 0), pt(Q(1, 2), 0)
    assert convexity_check(cfg, x0, 1, x1, Q(1, 2), Q(1, 2))
    assert convexity_check(cfg, x0, 1, x1, Q(1, 2), 0)
    # an instance where the containment is strict at entry (2,1)
    y0, y1 = pt(Q(1, 8), 0), pt(Q(1, 4), 0)
    assert convexity_check(cfg, y0, 1, y1, 0, Q(1, 2))
    v0 = mp_lattice(cfg, y0, 1).bounds
    v1 = mp_lattice(cfg, y1, 0).bounds
    vt = mp_lattice(cfg, pt(Q(3, 16), 0), Q(1, 2), _checked=True).bounds
    assert max(v0[1][0], v1[1][0]) > vt[1][0]


def test_convexity_randomized():
    rng = random.Random(13)
    for n, cfg in ((2, cfg2()), (3, cfg3())):
        for _ in range(200):
            d0, d1 = rng.choice([1, 2, 4, 8]), rng.choice([1, 2, 4, 8])
            x0 = ApartmentPoint.of([Q(rng.randrange(-8, 9), d0) for _ in range(n)])
            x1 = ApartmentPoint.of([Q(rng.randrange(-8, 9), d1) for _ in range(n)])
            s0 = Q(rng.randrange(-16, 17), d0)
            s1 = Q(rng.randrange(-16, 17), d1)
            t = Q(rng.randrange(0, 9), 8)
            assert convexity_check(cfg, x0, s0, x1, s1, t)


def test_plans_verify_on_random_instances():
    rng = random.Random(5)
    for n in (2, 3, 4):
        cfg = cfgn(n)
        for _ in range(30):
            d = rng.choice([1, 2, 4, 8])
            x0 = ApartmentPoint.of([Q(rng.randrange(-4, 5), d) for _ in range(n)])
            x1 = ApartmentPoint.of([Q(rng.randrange(-4, 5), d) for _ in range(n)])
            s0 = Q(rng.randrange(0, 9), d)
            s1 = Q(rng.randrange(0, 9), d)
            plan = breakpoints(cfg, x0, s0, x1, s1)
            verify_plan(cfg, plan)


def test_level_zero_jump_inside_an_interval_is_caught():
    cfg = cfg2()
    x0, x1, s = pt(Q(-1, 2), 0), pt(Q(1, 2), 0), Q(1, 2)
    plan = breakpoints(cfg, x0, s, x1, s)
    assert Q(1, 2) in plan.ts
    # across t = 1/2 only the level-0 witnesses change
    left, right = (plan.intervals[plan.ts.index(Q(1, 2)) + k] for k in (-1, 0))
    changed = [left.six[k * 4:k * 4 + 4] != right.six[k * 4:k * 4 + 4] for k in range(6)]
    assert changed == [True, True, False, False, False, False]
    # either certificate stretched over (0, 1) is refused on the interval,
    # its sample's witnesses being genuine: the jump lies between the
    # sample and the far end, where the chains fail
    for cert, end in zip(plan.intervals, (1, 0), strict=True):
        forged = GeodesicPlan(x0=x0, s0=s, x1=x1, s1=s, ts=(Q(0), Q(1)), intervals=(cert,))
        u = cert.sample
        refusal = rf"^inclusion chains fail at breakpoint t = {end} against t = {u} in \(0, 1\)$"
        with pytest.raises(InternalFault, match=refusal):
            verify_plan(cfg, forged)
        assert not sampled_constancy_ok(forged)  # at t = 2/3 or 1/3
    # a certificate whose sample lies past the jump is refused as outside its interval
    moved = replace(plan.intervals[0], sample=Q(3, 4))
    forged = replace(plan, intervals=(moved, plan.intervals[1]))
    with pytest.raises(InternalFault, match=r"sample 3/4 not inside \(0, 1/2\)"):
        verify_plan(cfg, forged)
    # the witnesses from past the jump are refused at the sample
    swapped = replace(plan.intervals[0], six=plan.intervals[1].six)
    forged = replace(plan, intervals=(swapped, plan.intervals[1]))
    with pytest.raises(InternalFault, match=r"of \(0, 1/2\) differs from the witnesses at t = 1/4"):
        verify_plan(cfg, forged)


# the Fraction formulas the integer kernel replaced, kept as its oracle


def oracle_bound(s, xi, xj, strict):
    v = s + xj - xi
    return floor(v) + 1 if strict else ceil(v)


def oracle_bounds(x, s, strict):
    return tuple(tuple(oracle_bound(s, xi, xj, strict) for xj in x.coords) for xi in x.coords)


def oracle_support(x, degree):
    return tuple(
        ((i, j), int(w))
        for i, xi in enumerate(x.coords)
        for j, xj in enumerate(x.coords)
        if (w := degree - xi + xj).denominator == 1
    )


def oracle_chain(x, level_x, y, level_y):
    xs, ys, yn, xn = (
        oracle_bounds(p, lv, st)
        for p, lv, st in (
            (x, level_x, True), (y, level_y, True), (y, level_y, False), (x, level_x, False)
        )
    )

    def contains(big, small):
        return all(b >= a for rb, ra in zip(small, big) for b, a in zip(rb, ra))

    return contains(ys, xs) and contains(yn, ys) and contains(xn, yn)



def oracle_incidence(x, s, y, tau):
    """The full chain check: levels 0, s and -s, each with all three links."""
    return all(oracle_chain(x, lv, y, lu) for lv, lu in ((0, 0), (s, tau), (-s, -tau)))

def flat(matrices):
    return tuple(v for b in matrices for row in b for v in row)


def scaled(x, s):
    d, X, (S,) = apartment._scale(x.coords, s)
    return X, S, d


# the nested six-witness kernel and the Fraction-path certificate builder
# that the flat kernel and the scaled-path builder replaced, kept as oracles


def oracle_six_bounds(X, S, d):
    return tuple(
        apartment._bounds(X, sign * S, d, strict) for sign, strict in apartment._WITNESSES
    )


def oracle_six_shapes(x, s):
    return tuple(
        LatticeShape(bounds=b, x=x, s=sign * s, strict=strict)
        for b, (sign, strict) in zip(oracle_six_bounds(*scaled(x, s)), apartment._WITNESSES)
    )


def certificate_shapes(cert):
    """The six shapes that a certificate's flat tuple stands for."""
    return tuple(
        LatticeShape(bounds=tuple(map(tuple, rows)), x=cert.x, s=sign * cert.s, strict=strict)
        for rows, sign, strict in certificate_witnesses(cert)
    )


def oracle_cuts(x0, s0, x1, s1):
    """Sorted t in [0, 1] where w + x_t,i - x_t,j - level_t = 0, level_t in {s_t, -s_t, 0}."""
    cuts = {Q(0), Q(1)}
    pairs = [(a - b, c - e) for a, c in zip(x0.coords, x1.coords)
             for b, e in zip(x0.coords, x1.coords)]
    for a0, a1 in pairs:
        for l0, l1 in ((s0, s1), (-s0, -s1), (Q(0), Q(0))):
            b0, b1 = a0 - l0, a1 - l1
            if b0 != b1:
                for w in range(ceil(min(-b0, -b1)), floor(max(-b0, -b1)) + 1):
                    cuts.add((w + b0) / (b0 - b1))
    return tuple(sorted(cuts))


def random_point(rng, n, denoms):
    return ApartmentPoint.of([Q(rng.randrange(-40, 41), rng.choice(denoms)) for _ in range(n)])


def test_integer_kernel_matches_fraction_oracle():
    rng = random.Random(11)
    # 3, 5, 6, 7, 12 and 48 do not divide m = 8, like the denominators of
    # interval samples, so these calls go through _checked=True
    denoms = [1, 2, 3, 4, 5, 6, 7, 8, 12, 48]
    verdicts = set()
    for n in (2, 3, 4):
        cfg = cfgn(n)
        for _ in range(150):
            x = random_point(rng, n, denoms)
            # a nearby point and level, so that chains both hold and fail
            y = ApartmentPoint.of([c + Q(rng.randrange(-2, 3), 48) for c in x.coords])
            s = Q(rng.randrange(-40, 41), rng.choice(denoms))
            for level in (Q(0), s, -s):
                for strict in (False, True):
                    got = mp_lattice(cfg, x, level, strict, _checked=True).bounds
                    assert got == oracle_bounds(x, level, strict)
                assert graded_support(cfg, x, level, _checked=True).entries == oracle_support(
                    x, level
                )
                level_y = level + Q(rng.randrange(-2, 3), 48)
                got = inclusion_chain_ok(cfg, x, level, y, level_y)
                assert got == oracle_chain(x, level, y, level_y)
                verdicts.add(got)
            assert apartment._six_flat(*scaled(x, s)) == flat(
                oracle_bounds(x, lv, st) for lv in (0, s, -s) for st in (False, True)
            )
            # convexity checks its endpoints and levels against m, so it runs
            # under an m that every denominator here divides
            x0, x1 = random_point(rng, n, [1, 2, 4, 8]), random_point(rng, n, [1, 2, 4, 8])
            s1, t = Q(rng.randrange(-40, 41), rng.choice(denoms)), Q(rng.randrange(0, 9), 8)
            xt = ApartmentPoint(tuple((1 - t) * a + t * b for a, b in zip(x0.coords, x1.coords)))
            v0, v1, vt = (
                oracle_bounds(p, lv, False)
                for p, lv in ((x0, s), (x1, s1), (xt, (1 - t) * s + t * s1))
            )
            expected = all(
                max(a, b) >= c for r0, r1, rt in zip(v0, v1, vt) for a, b, c in zip(r0, r1, rt)
            )
            assert convexity_check(cfgn(n, m=1680), x0, s, x1, s1, t) == expected
    assert verdicts == {True, False}



def test_outer_links_at_levels_0_and_s_decide_the_full_chain():
    """Level -s mirrors level s and the middle link always holds, so the
    outer links at levels 0 and s, as `check_incidence` and `verify_plan`
    compare them, agree with the full chain, true or false."""
    rng = random.Random(37)
    verdicts = set()
    for n in (2, 3, 4):
        cfg = cfgn(n)
        N = n * n
        for _ in range(400):
            x = random_point(rng, n, [1, 2, 3, 4, 8, 12])
            y = ApartmentPoint.of([c + Q(rng.randrange(-2, 3), 24) for c in x.coords])
            s = Q(rng.randrange(-40, 41), rng.choice([1, 2, 4, 8]))
            tau = s + Q(rng.randrange(-2, 3), 24)
            full = oracle_incidence(x, s, y, tau)
            assert oracle_chain(x, -s, y, -tau) == oracle_chain(x, s, y, tau)
            assert check_incidence(cfg, y, tau, x, s) == full
            at_x, at_y = apartment._six_flat(*scaled(x, s)), apartment._six_flat(*scaled(y, tau))
            chains = [apartment._chain_ok(at_x, at_y, v, v + N, v + 2 * N) for v in (0, 2 * N)]
            assert all(chains) == full
            verdicts.add((full, oracle_chain(x, 0, y, 0)))
    assert verdicts == {(True, True), (False, True), (False, False)}

def test_path_bounds_match_six_shapes_at_plan_points():
    rng = random.Random(12)
    for n in (2, 3, 4):
        cfg = cfgn(n, m=16)
        for _ in range(20):
            d0, d1 = rng.choice([1, 2, 4, 8, 16]), rng.choice([1, 2, 4, 8, 16])
            x0 = ApartmentPoint.of([Q(rng.randrange(-2 * d0, 2 * d0 + 1), d0) for _ in range(n)])
            x1 = ApartmentPoint.of([Q(rng.randrange(-2 * d1, 2 * d1 + 1), d1) for _ in range(n)])
            s0 = Q(rng.randrange(-2 * d0, 2 * d0 + 1), d0)
            s1 = Q(rng.randrange(-2 * d1, 2 * d1 + 1), d1)
            plan = breakpoints(cfg, x0, s0, x1, s1)
            path = apartment._Geodesic(x0, s0, x1, s1)
            interior = [
                lo + (hi - lo) * Q(j, 3) for lo, hi in zip(plan.ts, plan.ts[1:]) for j in (1, 2)
            ]
            samples = [cert.sample for cert in plan.intervals]
            for u in list(plan.ts) + samples + interior:
                assert path.six(u.numerator, u.denominator) == flat(
                    sh.bounds for sh in oracle_six_shapes(*plan.point_at(u))
                )
            # an unreduced t = a / b gives the same point
            u = interior[0]
            assert path.six(3 * u.numerator, 3 * u.denominator) == path.six(
                u.numerator, u.denominator
            )


def test_flat_kernel_and_certificates_match_the_nested_oracles():
    rng = random.Random(21)
    denoms = [1, 2, 3, 4, 5, 6, 7, 8, 12, 48]
    negative = 0
    for n in (2, 3, 4, 5):
        cfg = cfgn(n, m=1680)  # every denominator here divides m
        for _ in range(12 if n < 5 else 6):
            d0, d1 = rng.choice(denoms), rng.choice(denoms)
            x0, x1 = (
                ApartmentPoint.of([Q(rng.randrange(-2 * d, 2 * d + 1), d) for _ in range(n)])
                for d in (d0, d1)
            )
            s0, s1 = (Q(rng.randrange(-2 * d, 2 * d + 1), d) for d in (d0, d1))
            negative += s0 < 0 or s1 < 0
            plan = breakpoints(cfg, x0, s0, x1, s1)
            assert plan.ts == oracle_cuts(x0, s0, x1, s1)
            path = apartment._Geodesic(x0, s0, x1, s1)
            shapes_json = [iv["shapes"] for iv in jsonio.plan_to_json(cfg, plan)["intervals"]]
            for lo, hi, cert, shapes in zip(plan.ts, plan.ts[1:], plan.intervals, shapes_json):
                u = (lo + hi) / 2
                x, s = plan.point_at(u)
                oracle = oracle_six_shapes(x, s)
                assert (cert.sample, cert.x, cert.s) == (u, x, s)
                assert cert.six == flat(sh.bounds for sh in oracle)
                assert certificate_shapes(cert) == oracle
                # the certificate's JSON: bounds, point, level and flag of each shape
                assert shapes == [jsonio.shape_to_json(sh) for sh in oracle]
                for t in (lo, u, lo + (hi - lo) / 3):
                    X, S, d = path.at(t.numerator, t.denominator)
                    assert apartment._six_flat(X, S, d) == flat(oracle_six_bounds(X, S, d))
    assert negative > 10


def test_cuts_at_levels_s_and_0_equal_the_three_level_oracle():
    # breakpoints scans the levels s_t and 0 only; the level -s_t roots
    # are the level s_t roots of the transposed entry, so the three-level
    # oracle must find the same cuts
    rng = random.Random(23)
    denoms = [1, 2, 4, 8]
    interior = 0
    for n in (2, 3, 4):
        cfg = cfgn(n)
        for _ in range(50):
            x0, x1 = (
                ApartmentPoint.of([Q(rng.randrange(-6, 7), rng.choice(denoms)) for _ in range(n)])
                for _ in range(2)
            )
            s0, s1 = (Q(rng.randrange(-6, 7), rng.choice(denoms)) for _ in range(2))
            ts = breakpoints(cfg, x0, s0, x1, s1).ts
            assert ts == oracle_cuts(x0, s0, x1, s1)
            interior += len(ts) - 2
    assert interior > 2000


FORGE = (pt(0, Q(1, 2), 0), Q(1, 2), pt(Q(3, 4), -1, 0), Q(3, 4))


def test_verify_plan_refuses_a_plan_stopping_short_of_one():
    cfg = cfgn(3, m=16)
    plan = breakpoints(cfg, *FORGE)
    assert plan.ts[:2] == (Q(0), Q(2, 9))
    forged = replace(plan, ts=plan.ts[:2], intervals=plan.intervals[:1])
    with pytest.raises(InternalFault, match="do not rise strictly from 0 to 1") as err:
        verify_plan(cfg, forged)
    assert err.value.where == "apartment.verify_plan"


def test_verify_plan_refuses_reversed_breakpoints():
    cfg = cfgn(3, m=16)
    plan = breakpoints(cfg, *FORGE)
    forged = replace(plan, ts=plan.ts[::-1], intervals=plan.intervals[::-1])
    with pytest.raises(InternalFault, match="do not rise strictly from 0 to 1"):
        verify_plan(cfg, forged)
    # from 0 to 1, but not increasing in between
    ts = (Q(0), plan.ts[2], plan.ts[1]) + plan.ts[3:]
    forged = replace(plan, ts=ts)
    with pytest.raises(InternalFault, match="do not rise strictly from 0 to 1") as err:
        verify_plan(cfg, forged)
    assert err.value.where == "apartment.verify_plan"


def test_verify_plan_refuses_one_certificate_too_few():
    cfg = cfgn(3, m=16)
    plan = breakpoints(cfg, *FORGE)
    forged = replace(plan, intervals=plan.intervals[:-1])
    with pytest.raises(InternalFault, match="7 certificates for 8 intervals") as err:
        verify_plan(cfg, forged)
    assert err.value.where == "apartment.verify_plan"


def test_convexity_check_refuses_a_level_beyond_m():
    cfg = cfgn(3, m=16)
    x0, x1 = pt(0, Q(1, 2), 0), pt(Q(3, 4), -1, 0)
    with pytest.raises(ValidationError, match="level 1/7") as err:
        convexity_check(cfg, x0, Q(1, 7), x1, Q(3, 4), Q(1, 2))
    assert err.value.where == "apartment.convexity_check"
    with pytest.raises(ValidationError, match="level 1/7"):
        convexity_check(cfg, x0, Q(3, 4), x1, Q(1, 7), Q(1, 2))
    assert convexity_check(cfg, x0, Q(1, 16), x1, Q(3, 4), Q(1, 2))


def test_verify_plan_refuses_swapped_truncated_or_regrouped_witness_blocks():
    cfg = cfgn(3, m=16)
    plan = breakpoints(cfg, *FORGE)
    cert, N = plan.intervals[0], 9
    blocks = [cert.six[k * N:k * N + N] for k in range(6)]

    def forge(six):
        assert six != cert.six
        certs = (replace(cert, six=six),) + plan.intervals[1:]
        return replace(plan, intervals=certs)

    def transposed(block):
        return tuple(block[j * 3 + i] for i in range(3) for j in range(3))

    forgeries = [
        # the first two blocks swapped: the same values, the flags exchanged
        tuple(itertools.chain(blocks[1], blocks[0], *blocks[2:])),
        # the levels reordered to 0, -s, s
        tuple(itertools.chain(*blocks[:2], *blocks[4:], *blocks[2:4])),
        # each block read column by column
        tuple(itertools.chain(*map(transposed, blocks))),
        # one entry, and one block, short; one entry too many
        cert.six[:-1],
        cert.six[:5 * N],
        cert.six + (0,),
        # the nested form the flat tuple replaced
        tuple(tuple(cert.six[r:r + 3]) for r in range(0, 6 * N, 3)),
    ]
    refusal = r"of \(0, 2/9\) differs from the witnesses at t = 1/9"
    for six in forgeries:
        with pytest.raises(InternalFault, match=refusal):
            verify_plan(cfg, forge(six))


def test_verify_plan_refuses_a_forged_point_or_level():
    cfg = cfg2()
    plan = breakpoints(cfg, pt(Q(-1, 2), 0), Q(1, 2), pt(Q(1, 2), 0), Q(1, 2))
    cert = plan.intervals[0]
    assert (cert.sample, cert.x, cert.s) == (Q(1, 4), pt(Q(-1, 4), 0), Q(1, 2))
    forgeries = [
        replace(cert, x=pt(Q(7, 3), 0)),
        replace(cert, s=Q(5)),
        replace(cert, x=pt(Q(7, 3), 0), s=Q(5)),
        # the right level with the wrong sign, and the point one coordinate long
        replace(cert, s=Q(-1, 2)),
        replace(cert, x=pt(Q(-1, 4), 0, 0)),
    ]
    refusal = r"of \(0, 1/2\) is not at the path point of t = 1/4"
    for forged in forgeries:
        with pytest.raises(InternalFault, match=refusal):
            verify_plan(cfg, replace(plan, intervals=(forged,) + plan.intervals[1:]))
    # an int coordinate is compared by value
    same = replace(cert, x=ApartmentPoint((Q(-1, 4), 0)))
    verify_plan(cfg, replace(plan, intervals=(same,) + plan.intervals[1:]))


def test_verify_plan_refuses_every_dropped_breakpoint():
    # Every interior breakpoint c of (lo, c, hi) is a crossing of some
    # witness entry, so dropping it, with either neighbour's certificate
    # kept for (lo, hi), leaves a plan whose chains fail against the kept
    # sample: at hi for the left certificate, at lo for the right one.
    # The sampled check accepted some of these plans.  Cover a chain
    # failure at level 0 alone and one at s and -s alone (entry (i, j) at
    # -s mirrors entry (j, i) at s).
    rng = random.Random(31)
    seen, sampled = set(), set()
    for _ in range(40):
        n = rng.choice((2, 3))
        cfg = cfgn(n, m=16)
        N = n * n
        x0, x1 = (random_point(rng, n, [4, 8, 16]) for _ in range(2))
        s0, s1 = (Q(rng.randrange(-40, 41), 16) for _ in range(2))
        plan = breakpoints(cfg, x0, s0, x1, s1)
        path = apartment._Geodesic(x0, s0, x1, s1)
        ts, inner = plan.ts, range(1, len(plan.ts) - 1)
        # every drop near an interval start, where the sampled check
        # could not see the jump, and a few others
        near = {k for k in inner if 3 * (ts[k] - ts[k - 1]) < ts[k + 1] - ts[k - 1]}
        for k in sorted(near.union(rng.sample(inner, min(4, len(inner))))):
            lo, c, hi = ts[k - 1:k + 2]
            for kept, end in ((k - 1, hi), (k, lo)):
                forged = replace(
                    plan,
                    ts=plan.ts[:k] + plan.ts[k + 1:],
                    intervals=plan.intervals[:k - 1] + plan.intervals[kept:kept + 1]
                    + plan.intervals[k + 1:],
                )
                u = plan.intervals[kept].sample
                refusal = rf"^inclusion chains fail at breakpoint t = {end} against t = {u} "
                refusal += rf"in \({lo}, {hi}\)$"
                with pytest.raises(InternalFault, match=refusal):
                    verify_plan(cfg, forged)
                merged = plan.intervals[kept:kept + 1]
                sampled.add(sampled_constancy_ok(
                    replace(plan, ts=(lo, hi), intervals=merged)
                ))
            u = plan.intervals[k].sample
            (x, s), (y, tau) = plan.point_at(lo), plan.point_at(u)
            failing = tuple(
                not oracle_chain(x, lv, y, lu) for lv, lu in ((0, 0), (s, tau), (-s, -tau))
            )
            assert any(failing)
            at_lo, at_u = (path.six(t.numerator, t.denominator) for t in (lo, u))
            chains = [apartment._chain_ok(at_lo, at_u, v, v + N, v + 2 * N) for v in (0, 2 * N)]
            assert chains == [not failing[0], not failing[1]]
            assert not apartment._chains_ok(at_lo, at_u, N)
            seen.add(failing)
    assert {(True, False, False), (False, True, True)} <= seen
    assert sampled == {True, False}


def test_chains_at_both_ends_decide_constancy_on_random_intervals():
    # the chains at lo and at hi against any u in (lo, hi) hold exactly
    # when the six witnesses are constant on (lo, hi), seen at every cut
    # inside it, between neighbouring cuts and on a grid
    rng = random.Random(53)
    verdicts = set()
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        N = n * n
        x0, x1 = (random_point(rng, n, [1, 2, 3, 4, 8]) for _ in range(2))
        s0, s1 = (Q(rng.randrange(-40, 41), rng.choice([1, 2, 3, 4, 8])) for _ in range(2))
        path = apartment._Geodesic(x0, s0, x1, s1)
        cuts = oracle_cuts(x0, s0, x1, s1)

        def six(t):
            return path.six(t.numerator, t.denominator)

        for _ in range(4):
            if rng.random() < 0.5:  # inside one cut interval, ends included
                k = rng.randrange(len(cuts) - 1)
                c0, c1 = cuts[k], cuts[k + 1]
                lo, hi = sorted(c0 + (c1 - c0) * Q(rng.randrange(0, 11), 10) for _ in range(2))
                if lo == hi:
                    continue
            else:
                lo = Q(rng.randrange(0, 40), 49)
                hi = lo + Q(rng.randrange(1, 10), 49)
            u = lo + (hi - lo) * Q(rng.randrange(1, 20), 20)
            inner = [c for c in cuts if lo < c < hi]
            ends = [lo, *inner, hi]
            probes = inner + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
            probes += [lo + (hi - lo) * Q(j, 12) for j in range(1, 12)]
            constant = len({six(t) for t in probes}) == 1
            chains = apartment._chains_ok(six(lo), six(u), N) and apartment._chains_ok(
                six(hi), six(u), N
            )
            assert chains == constant
            verdicts.add(constant)
    assert verdicts == {True, False}


def test_sampled_oracle_and_verify_plan_accept_every_genuine_plan():
    rng = random.Random(41)
    denoms = [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]
    for n in (2, 3, 4, 5):
        cfg = cfgn(n, m=48)
        for _ in range(25 if n < 5 else 8):
            d0, d1 = rng.choice(denoms), rng.choice(denoms)
            x0, x1 = (
                ApartmentPoint.of([Q(rng.randrange(-2 * d, 2 * d + 1), d) for _ in range(n)])
                for d in (d0, d1)
            )
            s0, s1 = (Q(rng.randrange(-2 * d, 2 * d + 1), d) for d in (d0, d1))
            plan = breakpoints(cfg, x0, s0, x1, s1)  # which runs verify_plan
            assert sampled_constancy_ok(plan)


def test_chains_at_both_ends_match_brute_force_on_random_affine_functions():
    # the level s witnesses of a GL_1 point with level g = (a + b t) / c
    # are ceil g and floor g + 1: the chains at lo and at hi against a u
    # in (lo, hi) hold exactly when ceil g and floor g are constant there
    rng = random.Random(43)
    verdicts = set()
    for _ in range(1500):
        a, b, c = rng.randrange(-60, 61), rng.randrange(-12, 13), rng.randrange(1, 13)
        r0, r1 = rng.randrange(1, 13), rng.randrange(1, 13)
        p0 = rng.randrange(-2 * r0, 2 * r0 + 1)
        p1 = p0 * r1 // r0 + rng.randrange(1, 2 * r1 + 1)  # p1 / r1 > p0 / r0
        lo, hi = (p0, r0), (p1, r1)
        j = rng.randrange(1, 24)
        u = (p0 * r1 * (24 - j) + p1 * r0 * j, r0 * r1 * 24)

        def six(t):
            p, r = t
            return apartment._six_flat([0], a * r + b * p, c * r)  # g(p / r)

        chains = all(apartment._chains_ok(six(t), six(u), 1) for t in (lo, hi))
        assert chains == brute_constancy(a, b, c, lo, hi, grid=24)
        verdicts.add((chains, b == 0))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_breakpoints_computes_3i_plus_1_witness_tuples_and_no_lattice_shape(monkeypatch):
    calls, built = [], []
    six_flat, init = apartment._six_flat, LatticeShape.__init__

    def counting_six_flat(*args):
        calls.append(1)
        return six_flat(*args)

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(apartment, "_six_flat", counting_six_flat)
    monkeypatch.setattr(LatticeShape, "__init__", counting_init)
    # both counters see their calls
    assert inclusion_chain_ok(cfg2(), pt(0, 0), 0, pt(0, 0), 0) and len(calls) == 2
    mp_lattice(cfg2(), pt(0, 0), 0)
    assert len(built) == 1
    calls.clear()
    built.clear()
    rng = random.Random(47)
    for n in (2, 3, 4):
        cfg = cfgn(n, m=16)
        for _ in range(10):
            x0, x1 = (random_point(rng, n, [2, 4, 8, 16]) for _ in range(2))
            s0, s1 = (Q(rng.randrange(-40, 41), 16) for _ in range(2))
            plan = breakpoints(cfg, x0, s0, x1, s1)
            intervals = len(plan.intervals)
            assert len(calls) == 3 * intervals + 1
            calls.clear()
            verify_plan(cfg, plan)
            assert len(calls) == 2 * intervals + 1
            calls.clear()
            jsonio.plan_to_json(cfg, plan)
            assert not calls and not built
