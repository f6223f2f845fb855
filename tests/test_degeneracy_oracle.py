"""Dual-route check of the degeneracy criterion at n = 2.

The implementation decides degeneracy by nilpotence of the homogeneous
lift.  The oracle here instead solves the coset nilpotency equations
(trace and determinant) exactly over the entry balls of the full coset,
with no reference to the lift; the two must agree everywhere.
"""

import random
import warnings
from fractions import Fraction as Q

from mptypes.apartment import ApartmentPoint, GroupConfig, mp_lattice
from mptypes.graded import enumerate_graded_elements, is_degenerate
from mptypes.laurent import ser_neg
from mptypes.measures import _ball_intersect

from cone_oracle import _meets_nilcone_2x2
from lift_oracle import homogeneous_lift


def make_cfg():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupConfig(n=2, q=5, m=16)


CFG = make_cfg()
QR5 = frozenset((a * a) % 5 for a in range(1, 5))


def pt(*coords):
    return ApartmentPoint.of([Q(c) for c in coords])


def coset_contains_nilpotent(cfg, x, s, el) -> bool:
    """Exact solvability of tr = det = 0 over the coset entry balls."""
    strict = mp_lattice(cfg, x, -s, strict=True, _checked=True)
    lift = homogeneous_lift(cfg, el)
    ser = [[lift.entry(i, j) for j in range(2)] for i in range(2)]
    b = strict.bounds
    merged = _ball_intersect(ser[0][0], b[0][0], ser_neg(ser[1][1], cfg.q), b[1][1], cfg.q)
    if merged is None:
        return False
    u, eu = merged
    return _meets_nilcone_2x2(cfg.q, QR5, u, eu, ser[0][1], b[0][1], ser[1][0], b[1][0])


def test_oracle_agrees_exhaustively():
    for x, s in [
        (pt(0, 0), Q(1)),
        (pt(0, 0), Q(1, 2)),
        (pt(Q(1, 2), 0), Q(1, 2)),
        (pt(Q(1, 2), 0), Q(1)),
    ]:
        for el in enumerate_graded_elements(CFG, x, -s):
            assert is_degenerate(CFG, el) == coset_contains_nilpotent(CFG, x, s, el)


def test_cosets_of_constructed_nilpotents_are_degenerate():
    # rank-one traceless matrices c * (-v1 v2, v1^2; -v2^2, v1 v2) are
    # nilpotent for arbitrary Laurent entries; shifting one into the
    # filtration, the graded image of its coset must test degenerate
    from lift_oracle import graded_image, is_zero_matrix, series
    from mptypes.laurent import LMatrix, ser_mul

    rng = random.Random(37)
    x, s = pt(0, 0), Q(1)
    informative = 0
    for _ in range(200):
        def rand_poly():
            return series(5, {e: rng.randrange(5) for e in range(rng.randrange(1, 4))})

        def mul(*factors):
            acc = ((0, 1),)
            for f in factors:
                acc = ser_mul(acc, f, 5)
            return acc

        v1, v2, c = rand_poly(), rand_poly(), rand_poly()
        z = LMatrix.from_rows(
            5,
            [
                [mul(c, v1, v2), ser_neg(mul(c, v1, v1), 5)],
                [mul(c, v2, v2), ser_neg(mul(c, v1, v2), 5)],
            ],
        )
        if is_zero_matrix(z):
            continue
        assert z.is_nilpotent()
        # minimal shift placing z inside g_{x >= -1}: every entry at
        # valuation >= -1, with at least one exactly there
        shift = max(-1 - e[0][0] for row in z.rows for e in row if e)
        shifted = LMatrix.from_rows(
            5, [[tuple((w + shift, k) for w, k in e) for e in row] for row in z.rows]
        )
        el = graded_image(CFG, shifted, x, Q(-1))
        if not el.is_zero():
            informative += 1
        assert is_degenerate(CFG, el)
    assert informative > 100
