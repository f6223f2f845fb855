"""The GL_2 per-residue nilpotent-cone test, kept as a test oracle.

`measures._count_n2` never tests a residue on its own: it tallies the
square classes of the merged diagonal entry and the product classes of
the off-diagonal pair, and pairs them.  `_meets_nilcone_2x2` decides one
residue (u, v, w) directly; the tests walk every triple with it and
compare, and use it to decide degeneracy at n = 2 without the lift.
"""

from mptypes.laurent import Series, ser_mul, ser_neg
from mptypes.measures import _ser_eq_below


def _meets_nilcone_2x2(
    q: int, qr: frozenset, u: Series, eu: int, v: Series, ev: int, w: Series, ew: int
) -> bool:
    """Whether u'^2 + v'w' = 0 is solvable over the three given balls.

    All value sets are computed exactly: squares of a ball missing 0
    form a ball, squares of t^e O are the elements of even valuation
    >= 2e with square leading coefficient, and products of balls are
    balls or full balls t^r O.
    """
    vu, vv, vw = (u[0][0] if u else None), (v[0][0] if v else None), (w[0][0] if w else None)
    if vv is None and vw is None:
        prod_full, rho = True, ev + ew
    elif vv is None:
        prod_full, rho = True, ev + vw
    elif vw is None:
        prod_full, rho = True, vv + ew
    else:
        prod_full = False
        rho = min(vv + ew, vw + ev)
        z0 = ser_neg(ser_mul(v, w, q, rho), q)
    if vu is not None:
        r_s = vu + eu
        s0 = ser_mul(u, u, q, r_s)
        if prod_full:
            return 2 * vu >= rho
        return _ser_eq_below(s0, z0, min(r_s, rho), q)
    if prod_full:
        return True
    v0 = z0[0][0]
    return v0 % 2 == 0 and v0 >= 2 * eu and z0[0][1] in qr
