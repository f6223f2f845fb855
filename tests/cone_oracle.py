"""The GL_2 nilpotent-cone count by enumeration, kept as a test oracle.

`measures._tally_n2` counts the residues of a walk that pass the cone
test in closed form, stratum by stratum, and enumerates none of them.
Two slower counts are kept here for the tests to compare it with:

- `enumerated_tally` walks every residue of each ball once: it tallies
  the square class of every merged diagonal residue u (`_square_class`)
  and the product class of every off-diagonal pair (v, w)
  (`_product_class`), q^du plus q^(dv+dw) residues in all, and pairs
  the classes;
- `_meets_nilcone_2x2` decides one residue triple (u, v, w) directly;
  the tests walk every triple with it, and use it to decide degeneracy
  at n = 2 without the lift.
"""

import itertools
from collections import Counter
from typing import Dict, Iterable, Tuple

from mptypes.laurent import Series, ser_add, ser_mul, ser_neg, ser_trunc
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


def _variants(q: int, center: Series, floor: int, depth: int) -> Iterable[Series]:
    """Every residue of the ball center + t^floor O modulo t^depth."""
    exps = range(floor, depth)
    for combo in itertools.product(range(q), repeat=len(exps)):
        yield ser_add(center, tuple((e, c) for e, c in zip(exps, combo) if c), q)


def _square_class(q: int, u: Series, eu: int):
    """Everything the cone test reads of u: None for u = 0, else
    (val u, u^2 mod t^(val u + eu))."""
    if not u:
        return None
    vu = u[0][0]
    return vu, ser_mul(u, u, q, vu + eu)


def _product_class(q: int, v: Series, ev: int, w: Series, ew: int):
    """Everything the cone test reads of (v, w): (rho, None) when
    products fill the ball t^rho O, else (rho, -(v w) mod t^rho)."""
    if not v:
        return ev + (w[0][0] if w else ew), None
    if not w:
        return v[0][0] + ew, None
    rho = min(v[0][0] + ew, w[0][0] + ev)
    return rho, ser_neg(ser_mul(v, w, q, rho), q)


def enumerated_tally(q: int, qr: frozenset, walk) -> int:
    """The passing residues of a walk, from every residue's class.

    A full ball t^rho O meets the squares of a nonzero u iff
    2 val u >= rho, a partial product class (rho, z0) meets them iff
    z0 = u^2 below min(val u + eu, rho), and u = 0 meets every full ball
    and the z0 of even valuation >= 2 eu with square leading coefficient.
    """
    (uc, uf, eu), (vc, vf, ev), (wc, wf, ew) = walk

    full: Counter = Counter()  # rho -> products filling t^rho O
    partial: Dict[int, Counter] = {}  # rho -> Counter of z0
    w_list = list(_variants(q, wc, wf, ew))
    for v in _variants(q, vc, vf, ev):
        for w in w_list:
            rho, z0 = _product_class(q, v, ev, w, ew)
            if z0 is None:
                full[rho] += 1
            else:
                zs = partial.get(rho)
                if zs is None:
                    zs = partial[rho] = Counter()
                zs[z0] += 1
    squares = Counter(_square_class(q, u, eu) for u in _variants(q, uc, uf, eu))

    # (rho, b) -> Counter of the partial z0 at that rho, truncated below t^b
    index: Dict[Tuple[int, int], Counter] = {}
    count = 0
    for sq, mult in squares.items():
        if sq is None:
            hits = sum(full.values()) + sum(
                m
                for zs in partial.values()
                for z0, m in zs.items()
                if z0[0][0] % 2 == 0 and z0[0][0] >= 2 * eu and z0[0][1] in qr
            )
        else:
            vu, s0 = sq
            hits = sum(m for rho, m in full.items() if 2 * vu >= rho)
            for rho, zs in partial.items():
                b = min(vu + eu, rho)
                table = index.get((rho, b))
                if table is None:
                    table = index[(rho, b)] = Counter()
                    for z0, m in zs.items():
                        table[ser_trunc(z0, b)] += m
                hits += table[ser_trunc(s0, b)]
        count += mult * hits
    return count
