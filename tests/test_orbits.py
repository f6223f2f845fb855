"""Dominance order, Jordan types, lifts, triple completion, minimality."""

import random
import warnings
from fractions import Fraction as Q

import pytest

from mptypes import orbits
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from mptypes.errors import InfeasibleError, ValidationError
from mptypes.graded import (
    GradedElement,
    ReductiveQuotient,
    conjugate,
    enumerate_graded_elements,
    homogeneous_lift,
    is_degenerate,
)
from mptypes.laurent import Laurent, LMatrix
from mptypes.orbits import (
    OrbitLabel,
    debacker_lift,
    dominance_leq,
    jordan_type,
    minimality_probe,
    partitions_of,
    sl2_complete,
)


def make_cfg(n, q=5, m=8):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=n, q=q, m=m)


CFG2 = make_cfg(2)
CFG3 = make_cfg(3)


def pt(*coords):
    return ApartmentPoint.of([Q(c) for c in coords])


def lmat(q, entries):
    return LMatrix.from_rows(
        q,
        [
            [Laurent.from_dict(q, dict(e)) for e in row]
            for row in entries
        ],
    )


def test_orbit_label_dims():
    assert OrbitLabel.zero(4).dim == 0
    assert OrbitLabel.regular(4).dim == 12
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


def test_from_ranks_inverts_rank_at_up_to_n6():
    for n in range(1, 7):
        for lam in partitions_of(n):
            ranks = [lam.rank_at(k) for k in range(1, n + 1)]
            assert OrbitLabel.from_ranks(n, ranks) == lam
    with pytest.raises(ValidationError):
        OrbitLabel.from_ranks(2, [2, 2])  # not nilpotent
    with pytest.raises(ValidationError):
        OrbitLabel.from_ranks(3, [1, 0])  # too few powers


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
    assert jordan_type(LMatrix.zero(q, 2)) == OrbitLabel.of((1, 1))
    m = lmat(q, [[{}, {-1: 1}], [{}, {}]])
    assert jordan_type(m) == OrbitLabel.of((2,))
    for b, c in [(1, 0), (0, 1), (2, 0)]:
        m = lmat(q, [[{}, {-1: b}], [{0: c}, {}]])
        assert jordan_type(m) == OrbitLabel.of((2,))
    with pytest.raises(ValidationError) as exc:
        jordan_type(lmat(q, [[{-1: 1}, {}], [{}, {}]]))
    assert "char-poly" in str(exc.value)


def test_debacker_lift_worked_examples():
    assert debacker_lift(
        CFG2, 1, pt(0, 0), GradedElement.zero(pt(0, 0), -1)
    ) == OrbitLabel.of((1, 1))
    xi = pt(Q(1, 2), 0)
    el = GradedElement.make(CFG2, xi, Q(-1, 2), {(0, 1): 1})
    assert debacker_lift(CFG2, Q(1, 2), xi, el) == OrbitLabel.of((2,))
    el3 = GradedElement.make(CFG3, pt(0, 0, 0), -1, {(0, 1): 2, (1, 2): 3})
    assert debacker_lift(CFG3, 1, pt(0, 0, 0), el3) == OrbitLabel.of((3,))
    with pytest.raises(ValidationError):
        nondeg = GradedElement.make(CFG2, pt(0, 0), -1, {(0, 0): 1})
        debacker_lift(CFG2, 1, pt(0, 0), nondeg)


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
        lift = homogeneous_lift(cfg, el).mat
        base_type = jordan_type(lift)
        # conjugation by a random invertible monomial matrix over F_q(t)
        perm = list(range(n))
        rng.shuffle(perm)
        rowsg = [
            [
                Laurent.monomial(q, rng.randrange(-1, 2), rng.randrange(1, q))
                if perm[i] == j
                else Laurent.zero(q)
                for j in range(n)
            ]
            for i in range(n)
        ]
        g = LMatrix.from_rows(q, rowsg)
        ginv_rows = [[Laurent.zero(q) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            e = g.entry(i, perm[i])
            w, c = e.coeffs[0]
            ginv_rows[perm[i]][i] = Laurent.monomial(q, -w, pow(c, q - 2, q))
        ginv = LMatrix.from_rows(q, ginv_rows)
        assert (g @ ginv) == LMatrix.identity(q, n)
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
        g = ReductiveQuotient.at(x).random_element(cfg, rng)
        assert debacker_lift(cfg, s, x, el) == debacker_lift(
            cfg, s, x, conjugate(cfg, el, g)
        )
        done += 1


def test_lift_is_witnessed_in_coset_exhaustively():
    # n=2, q=5: for every degenerate phi the homogeneous lift itself lies in
    # the coset and realizes the lift orbit
    for x, s in [(pt(0, 0), Q(1)), (pt(0, 0), Q(1, 2)), (pt(Q(1, 2), 0), Q(1, 2)), (pt(Q(1, 2), 0), Q(1))]:
        for el in enumerate_graded_elements(CFG2, x, -s):
            if not is_degenerate(CFG2, el):
                continue
            lift = homogeneous_lift(CFG2, el)
            assert jordan_type(lift.mat) == debacker_lift(CFG2, s, x, el)


def test_sl2_worked_examples():
    # Phi = t^-1 e_12: H = diag(1,-1), E = t e_21
    x = pt(0, 0)
    el = GradedElement.make(CFG2, x, -1, {(0, 1): 1})
    tr = sl2_complete(CFG2, homogeneous_lift(CFG2, el))
    assert tr.H.mat.entry(0, 0) == Laurent.const(5, 1)
    assert tr.H.mat.entry(1, 1) == Laurent.const(5, -1)
    assert tr.E.mat.entry(1, 0) == Laurent.monomial(5, 1, 1)
    # zero element: degenerate triple
    tz = sl2_complete(CFG2, homogeneous_lift(CFG2, GradedElement.zero(x, -1)))
    assert tz.H.mat.is_zero() and tz.E.mat.is_zero()
    # principal triple for n = 3
    x3 = pt(0, 0, 0)
    el3 = GradedElement.make(CFG3, x3, -1, {(0, 1): 1, (1, 2): 1})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg_big = GroupConfig(n=3, q=7, m=8)
    tr3 = sl2_complete(cfg_big, homogeneous_lift(cfg_big, el3))
    assert tr3.H.mat.entry(0, 0) == Laurent.const(7, 2)
    assert tr3.H.mat.entry(1, 1).is_zero()
    assert tr3.H.mat.entry(2, 2) == Laurent.const(7, -2)
    assert tr3.E.mat.entry(1, 0) == Laurent.monomial(7, 1, 2)
    assert tr3.E.mat.entry(2, 1) == Laurent.monomial(7, 1, 2)


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
        sl2_complete(cfg, homogeneous_lift(cfg, el))  # bracket check is internal
        done += 1


def test_sl2_refuses_small_q():
    with pytest.raises(ValidationError):
        el3 = GradedElement.make(CFG3, pt(0, 0, 0), -1, {(0, 1): 1})
        sl2_complete(CFG3, homogeneous_lift(CFG3, el3))


def test_minimality_probe_worked_examples():
    assert minimality_probe(
        CFG2, 1, pt(0, 0), GradedElement.zero(pt(0, 0), -1), samples=50, depth=3
    )
    el = GradedElement.make(CFG2, pt(0, 0), -1, {(0, 1): 1})
    assert minimality_probe(CFG2, 1, pt(0, 0), el, samples=200, depth=3)
    xi = pt(Q(1, 2), 0)
    eli = GradedElement.make(CFG2, xi, Q(-1, 2), {(0, 1): 1})
    assert minimality_probe(CFG2, Q(1, 2), xi, eli, samples=200, depth=3)


# -- the trace-first probe, and the plain per-sample loop as its oracle -----


def random_coset_element(cfg, s, x, phi, depth, rng):
    """Random element of phi + g_{x>-s} with entries truncated at t^depth."""
    strict = mp_lattice(cfg, x, -s, strict=True, _checked=True)
    lift = homogeneous_lift(cfg, phi).mat
    rows = []
    for i in range(cfg.n):
        row = []
        for j in range(cfg.n):
            d = {}
            for w in range(strict.bounds[i][j], depth + 1):
                c = rng.randrange(cfg.q)
                if c:
                    d[w] = c
            row.append(lift.entry(i, j) + Laurent.from_dict(cfg.q, d))
        rows.append(row)
    return LMatrix.from_rows(cfg.q, rows)


def oracle_probe(cfg, s, x, phi, samples, depth, seed):
    """Every sample a full matrix from its own stream, run to the end:
    (verdict, trace-zero samples, nilpotent indices)."""
    lift_orbit = debacker_lift(cfg, s, x, phi)
    verdict, trace_zero, nilpotent = True, {}, []
    for k in range(samples):
        sample = random_coset_element(cfg, s, x, phi, depth, random.Random(f"{seed}:{k}"))
        trace = Laurent.zero(cfg.q)
        for i in range(cfg.n):
            trace = trace + sample.entry(i, i)
        if trace.is_zero():
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
    diff = sample - homogeneous_lift(cfg, el).mat
    trace = Laurent.zero(cfg.q)
    for i in range(cfg.n):
        trace = trace + sample.entry(i, i)
        for j in range(cfg.n):
            assert all(strict[i][j] <= w <= depth for w, _ in diff.entry(i, j).coeffs)
    assert trace.is_zero()


GRID = ((2, 3), (3, 3), (3, 5), (4, 3), (2, 2), (3, 2), (3, 7), (2, 11), (3, 13))


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
        lift_orbit = debacker_lift(cfg, s, x, el)
        for sample in orbits._trace_zero_samples(cfg, s, x, el, 100, depth, seed):
            assert_in_coset_with_zero_trace(cfg, s, x, el, depth, sample)
            if sample.is_nilpotent():
                assert dominance_leq(lift_orbit, jordan_type(sample))
            zero += 1
        p = Q(1, q**L)
        mean += 100 * p
        var += 100 * p * (1 - p)
    assert (zero - mean) ** 2 <= 36 * var


def test_more_than_100_trace_first_samples_reach_the_nilpotent_branch():
    rng = random.Random("trace-first")
    nilpotent = 0
    for n, q in GRID:
        for seed, (cfg, x, s, el) in enumerate(degenerate_instances(n, q, 12, rng)):
            depth = mp_lattice(cfg, x, -s, strict=True).bounds[0][0]  # one draw per diagonal slot
            samples = orbits._trace_zero_samples(cfg, s, x, el, 100, depth, seed)
            nilpotent += sum(1 for sample in samples if sample.is_nilpotent())
    assert nilpotent > 100


def test_the_seed_fixes_the_samples():
    rng = random.Random("trace-seed")
    for n, q in ((2, 3), (3, 2), (3, 7)):
        for cfg, x, s, el in degenerate_instances(n, q, 3, rng):
            depth = mp_lattice(cfg, x, -s, strict=True).bounds[0][0]
            runs = {
                seed: list(orbits._trace_zero_samples(cfg, s, x, el, 100, depth, seed))
                for seed in (0, 1, -1)
            }
            assert runs[0] and runs[1] and runs[-1]
            assert runs[0] == list(orbits._trace_zero_samples(cfg, s, x, el, 100, depth, 0))
            assert runs[0] != runs[1] and runs[1] != runs[-1]


@pytest.mark.parametrize("n, q", [(3, 7), (4, 11)])
def test_trace_first_probe_matches_the_old_loop_at_benchmark_depth(n, q):
    rng = random.Random(f"bench-shaped:{n}")
    for seed, (cfg, x, s, el) in enumerate(degenerate_instances(n, q, 2, rng)):
        verdict, _, _ = oracle_probe(cfg, s, x, el, 200, 3, seed)
        assert minimality_probe(cfg, s, x, el, samples=200, depth=3, seed=seed) == verdict


def test_a_failing_dominance_check_fails_both_probes(monkeypatch):
    cfg = make_cfg(2, 3)
    x, s, el = pt(0, 0), Q(1), GradedElement.zero(pt(0, 0), -1)
    _, _, nilpotent = oracle_probe(cfg, s, x, el, 100, 0, 0)
    assert nilpotent  # constant 2 x 2 samples over F_3: some are nilpotent
    monkeypatch.setattr(orbits, "dominance_leq", lambda a, b: False)
    assert oracle_probe(cfg, s, x, el, 100, 0, 0)[0] is False
    assert minimality_probe(cfg, s, x, el, samples=100, depth=0) is False


def test_minimality_probe_refuses_a_depth_that_draws_nothing():
    el = GradedElement.make(CFG2, pt(0, 0), -1, {(0, 1): 1})
    assert minimality_probe(CFG2, 1, pt(0, 0), el, samples=5, depth=0)  # bounds are all 0
    with pytest.raises(ValidationError, match="draw nothing"):
        minimality_probe(CFG2, 1, pt(0, 0), el, samples=5, depth=-1)


def test_minimality_probe_refuses_more_draws_than_the_bound():
    el = GradedElement.make(CFG3, pt(0, 0, 0), -1, {(0, 1): 1})
    # 9 entries, each drawn at exponents 0 .. depth (all strict bounds are 0 here)
    assert minimality_probe(CFG3, 1, pt(0, 0, 0), el, samples=10, depth=1, bound=180)
    with pytest.raises(InfeasibleError, match="exceed bound 179") as info:
        minimality_probe(CFG3, 1, pt(0, 0, 0), el, samples=10, depth=1, bound=179)
    assert info.value.where == "orbits.minimality_probe"
    # refused before any draw or any layout work proportional to the depth
    with pytest.raises(InfeasibleError):
        minimality_probe(CFG3, 1, pt(0, 0, 0), el, samples=1, depth=10**12)


# -- block draws against the randrange stream they reproduce ---------------


class CountingRandom(random.Random):
    """Counts getrandbits calls, to see which path a draw took."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def randrange_list(seed, q, count):
    """The oracle: what the per-sample loop drew before block draws."""
    rng = random.Random(seed)
    return [rng.randrange(q) for _ in range(count)]


@pytest.mark.parametrize("q", [*range(2, 256), 257])
def test_uniform_draws_equal_the_randrange_list(q):
    for seed in ("0:0", "7:199", "uniform", "-3:41"):
        for count in (0, 1, 47, 500):
            draws = orbits._uniform_draws(random.Random(seed), q, count)
            assert list(draws) == randrange_list(seed, q, count)


@pytest.mark.parametrize("q", [2, 17])
def test_uniform_draws_top_up_a_short_block(q):
    """At q = 2 and 17 about half the top bytes are rejected, so some first
    blocks of 2 * 47 + 16 words hold fewer than 47 draws."""
    topped_up = 0
    for k in range(300):
        rng = CountingRandom(f"short:{k}")
        assert list(orbits._uniform_draws(rng, q, 47)) == randrange_list(f"short:{k}", q, 47)
        topped_up += rng.calls > 1
    assert topped_up >= 2


def test_uniform_draws_take_one_block_per_sample_when_it_suffices():
    rng = CountingRandom("one-block")
    draws = orbits._uniform_draws(rng, 7, 82)  # as many draws as the largest lifts sample
    # the byte path, not the randrange fallback, and no second block
    assert rng.calls == 1 and isinstance(draws, bytes) and len(draws) == 82
