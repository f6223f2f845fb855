"""Lattice shapes, graded supports, geodesic plans and convexity."""

import dataclasses
import itertools
import random
import warnings
from fractions import Fraction as Q
from math import ceil, floor

import pytest

from mptypes import apartment
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


def test_small_q_warns_and_strict_rejects():
    with pytest.warns(UserWarning):
        GroupConfig(n=2, q=5, m=2)
    with pytest.raises(ValidationError):
        GroupConfig(n=2, q=5, m=2, strict_p=True)


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
    interval_shape = plan.intervals[0].shapes[5]  # g_{y > -1}
    assert interval_shape.bounds[0][1] == -1
    endpoint = mp_lattice(cfg, pt(0, 0), -1, strict=True)
    assert endpoint.bounds[0][1] == 0
    assert endpoint.contains(interval_shape) is False
    assert interval_shape.contains(endpoint)


def test_interval_witnesses_cover_levels_zero_and_plus_minus_s():
    cfg = cfg3()
    plan = breakpoints(cfg, pt(Q(1, 4), Q(1, 2), 0), Q(3, 4), pt(0, Q(1, 8), 0), Q(1, 8))
    for cert in plan.intervals:
        _, s = plan.point_at(cert.sample)
        assert [(sh.s, sh.strict) for sh in cert.shapes] == [
            (lv, st) for lv in (0, s, -s) for st in (False, True)
        ]
        assert {sh.s for sh in cert.shapes} == {Q(0), s, -s}


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
            verify_plan(cfg, plan, samples_per_interval=2)


def test_level_zero_jump_inside_an_interval_is_caught():
    cfg = cfg2()
    x0, x1, s = pt(Q(-1, 2), 0), pt(Q(1, 2), 0), Q(1, 2)
    plan = breakpoints(cfg, x0, s, x1, s)
    assert Q(1, 2) in plan.ts
    # across t = 1/2 only the level-0 witnesses change
    left, right = (plan.intervals[plan.ts.index(Q(1, 2)) + k] for k in (-1, 0))
    changed = [a.bounds != b.bounds for a, b in zip(left.shapes, right.shapes)]
    assert changed == [True, True, False, False, False, False]
    forged = GeodesicPlan(
        x0=x0, s0=s, x1=x1, s1=s, ts=(Q(0), Q(1)), intervals=(plan.intervals[0],)
    )
    with pytest.raises(InternalFault, match=r"not constant on \(0, 1\) at t = 2/3"):
        verify_plan(cfg, forged)
    # the right interval's certificate stretched over (0, 1) is refused at 1/3
    forged = dataclasses.replace(forged, intervals=(plan.intervals[1],))
    with pytest.raises(InternalFault, match=r"not constant on \(0, 1\) at t = 1/3"):
        verify_plan(cfg, forged)
    # a certificate whose sample lies past the jump is refused as outside its interval
    moved = dataclasses.replace(plan.intervals[0], sample=Q(3, 4))
    forged = dataclasses.replace(plan, intervals=(moved, plan.intervals[1]))
    with pytest.raises(InternalFault, match=r"sample 3/4 not inside \(0, 1/2\)"):
        verify_plan(cfg, forged)
    # the shapes from past the jump are refused at the sample
    swapped = dataclasses.replace(plan.intervals[0], shapes=plan.intervals[1].shapes)
    forged = dataclasses.replace(plan, intervals=(swapped, plan.intervals[1]))
    with pytest.raises(InternalFault, match=r"not constant on \(0, 1/2\) at t = 1/4"):
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
            for lo, hi, cert in zip(plan.ts, plan.ts[1:], plan.intervals):
                u = (lo + hi) / 2
                x, s = plan.point_at(u)
                assert cert == apartment.IntervalCertificate(
                    sample=u, shapes=oracle_six_shapes(x, s)
                )
                for t in (lo, u, lo + (hi - lo) / 3):
                    X, S, d = path.at(t.numerator, t.denominator)
                    assert apartment._six_flat(X, S, d) == flat(oracle_six_bounds(X, S, d))
    assert negative > 10


FORGE = (pt(0, Q(1, 2), 0), Q(1, 2), pt(Q(3, 4), -1, 0), Q(3, 4))


def test_verify_plan_refuses_a_plan_stopping_short_of_one():
    cfg = cfgn(3, m=16)
    plan = breakpoints(cfg, *FORGE)
    assert plan.ts[:2] == (Q(0), Q(2, 9))
    forged = dataclasses.replace(plan, ts=plan.ts[:2], intervals=plan.intervals[:1])
    with pytest.raises(InternalFault, match="do not rise strictly from 0 to 1") as err:
        verify_plan(cfg, forged)
    assert err.value.where == "apartment.verify_plan"


def test_verify_plan_refuses_reversed_breakpoints():
    cfg = cfgn(3, m=16)
    plan = breakpoints(cfg, *FORGE)
    forged = dataclasses.replace(plan, ts=plan.ts[::-1], intervals=plan.intervals[::-1])
    with pytest.raises(InternalFault, match="do not rise strictly from 0 to 1"):
        verify_plan(cfg, forged)
    # from 0 to 1, but not increasing in between
    ts = (Q(0), plan.ts[2], plan.ts[1]) + plan.ts[3:]
    forged = dataclasses.replace(plan, ts=ts)
    with pytest.raises(InternalFault, match="do not rise strictly from 0 to 1") as err:
        verify_plan(cfg, forged)
    assert err.value.where == "apartment.verify_plan"


def test_verify_plan_refuses_one_certificate_too_few():
    cfg = cfgn(3, m=16)
    plan = breakpoints(cfg, *FORGE)
    forged = dataclasses.replace(plan, intervals=plan.intervals[:-1])
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


def test_verify_plan_compares_flags_and_shapes_not_only_the_flat_bounds():
    cfg = cfgn(3, m=16)
    plan = breakpoints(cfg, *FORGE)
    cert = plan.intervals[0]

    def forge(shapes):
        certs = (dataclasses.replace(cert, shapes=shapes),) + plan.intervals[1:]
        return dataclasses.replace(plan, intervals=certs)

    # the first two flags swapped: the same bounds in the same order
    a, b = cert.shapes[:2]
    swapped = (dataclasses.replace(a, strict=True), dataclasses.replace(b, strict=False))
    with pytest.raises(InternalFault, match=r"not constant on \(0, 2/9\) at t = 1/9"):
        verify_plan(cfg, forge(swapped + cert.shapes[2:]))
    # the same flat bounds regrouped into rows of 1, 2 and 6, then 4, 4 and 1 entries
    values = flat(sh.bounds for sh in cert.shapes[:2])
    regrouped = (values[:1], values[1:3], values[3:9]), (values[9:13], values[13:17], values[17:])
    shapes = tuple(dataclasses.replace(sh, bounds=bd) for sh, bd in zip(cert.shapes, regrouped))
    assert flat(sh.bounds for sh in shapes) == values
    with pytest.raises(InternalFault, match=r"not constant on \(0, 2/9\) at t = 1/9"):
        verify_plan(cfg, forge(shapes + cert.shapes[2:]))


def test_chains_refuse_a_breakpoint_dropped_near_an_interval_start():
    # Dropping a breakpoint c of (lo, c, hi) with c - lo < (hi - lo) / 3 and
    # keeping the certificate of (c, hi) passes every constancy point, so
    # only the chains at lo can refuse the plan.  Levels s and -s always
    # fail together (entry (i, j) at -s mirrors entry (j, i) at s); cover a
    # failure at level 0 alone and one at s and -s alone.
    rng = random.Random(31)
    seen = set()
    for _ in range(40):
        n = rng.choice((2, 3))
        cfg = cfgn(n, m=16)
        x0, x1 = (random_point(rng, n, [4, 8, 16]) for _ in range(2))
        s0, s1 = (Q(rng.randrange(-40, 41), 16) for _ in range(2))
        plan = breakpoints(cfg, x0, s0, x1, s1)
        for k in range(1, len(plan.ts) - 1):
            lo, c, hi = plan.ts[k - 1:k + 2]
            if 3 * (c - lo) >= hi - lo:
                continue
            (x, s), (y, tau) = plan.point_at(lo), plan.point_at(plan.intervals[k].sample)
            failing = tuple(
                not oracle_chain(x, lv, y, lu) for lv, lu in ((0, 0), (s, tau), (-s, -tau))
            )
            forged = dataclasses.replace(
                plan,
                ts=plan.ts[:k] + plan.ts[k + 1:],
                intervals=plan.intervals[:k - 1] + plan.intervals[k:],
            )
            if any(failing):
                with pytest.raises(InternalFault, match=f"fail at breakpoint t = {lo} "):
                    verify_plan(cfg, forged)
            else:
                verify_plan(cfg, forged)
            seen.add(failing)
    assert {(True, False, False), (False, True, True)} <= seen
