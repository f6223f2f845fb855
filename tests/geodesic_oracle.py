"""The sampled constancy check that `verify_plan` replaced, kept as a test oracle.

`verify_plan` proves that the six witnesses are constant on each open
interval from the inclusion chains at its two ends against the sample
(see its docstring).  Before that it also recomputed the witnesses at the
two interior points lo + (hi - lo) j / 3, j = 1, 2, and compared them with
the certificate: three points of the interval, not a proof.  The tests
run both checks on the same plans, genuine and forged, and check the
chains against `brute_constancy`.

It also keeps a plan's JSON value, the one `jsonio.dump` writes straight
from the flat `six` tuples: `plan_to_json` builds it with one fresh list
per row and per matrix, through `certificate_witnesses`, and the tests
compare `json.dumps` of it with the bytes `dump` writes for the plan.
"""

from functools import cmp_to_key

from mptypes import apartment
from mptypes.jsonio import frac_str, point_to_json


def sampled_constancy_ok(plan) -> bool:
    """Whether the six witnesses at each interval's sample and at its two
    interior thirds equal the certificate's flat tuple."""
    path = apartment._Geodesic(plan.x0, plan.s0, plan.x1, plan.s1)
    for lo, hi, cert in zip(plan.ts, plan.ts[1:], plan.intervals):
        for u in (cert.sample, lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3):
            if path.six(u.numerator, u.denominator) != cert.six:
                return False
    return True


def _floor(num: int, den: int) -> int:
    return num // den


def _ceil(num: int, den: int) -> int:
    return -(-num // den)


def affine_values(a: int, b: int, c: int, t):
    """g(t) = (a + b t) / c at t = (p, r), r > 0, as a fraction (num, den), den > 0."""
    p, r = t
    return a * r + b * p, c * r


def _less(u, v) -> bool:
    return u[0] * v[1] < v[0] * u[1]


def brute_constancy(a: int, b: int, c: int, lo, hi, grid: int) -> bool:
    """Whether ceil g and floor g agree at every tested rational of (lo, hi).

    The tested points are the grid lo + (hi - lo) j / grid, every t in
    (lo, hi) where g is an integer, and the midpoint of each pair of
    neighbours among these, lo and hi; so a crossing of an integer inside
    the interval is seen both at itself and on either side of it.
    """
    (p0, r0), (p1, r1) = lo, hi
    points = {(p0 * r1 * (grid - j) + p1 * r0 * j, r0 * r1 * grid) for j in range(1, grid)}
    if b:
        glo, ghi = affine_values(a, b, c, lo), affine_values(a, b, c, hi)
        low, high = sorted((_floor(*glo), _floor(*ghi)))
        for k in range(low, high + 2):
            # g(t) = k at t = (k c - a) / b
            t = (k * c - a, b) if b > 0 else (a - k * c, -b)
            if _less(lo, t) and _less(t, hi):
                points.add(t)
    ordered = sorted(points | {lo, hi}, key=cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1]))
    mids = {(u[0] * v[1] + v[0] * u[1], 2 * u[1] * v[1]) for u, v in zip(ordered, ordered[1:])}
    values = {
        (_floor(*g), _ceil(*g))
        for g in (affine_values(a, b, c, t) for t in points | mids)
    }
    return len(values) <= 1


def certificate_witnesses(cert):
    """The six witnesses of `cert` as (n bound rows, level sign, strict), in
    `apartment._WITNESSES` order: block k of n^2 entries of `six` is witness
    k's bound matrix, row-major."""
    n, six = cert.x.n, cert.six
    rows = [list(six[r:r + n]) for r in range(0, len(six), n)]
    return [
        (rows[k * n:k * n + n], sign, strict)
        for k, (sign, strict) in enumerate(apartment._WITNESSES)
    ]


def certificate_shapes_json(cert):
    """The six witness shapes of `cert`, in `shape_to_json`'s form."""
    x = point_to_json(cert.x)
    levels = (frac_str(0), frac_str(cert.s), frac_str(-cert.s))  # levels[sign] is sign * s
    return [
        {"bounds": rows, "provenance": {"x": x, "s": levels[sign], "strict": strict}}
        for rows, sign, strict in certificate_witnesses(cert)
    ]


def plan_to_json(plan):
    """The plan JSON, one fresh list per row and per matrix."""
    return {
        "endpoints": {
            "x0": point_to_json(plan.x0),
            "s0": frac_str(plan.s0),
            "x1": point_to_json(plan.x1),
            "s1": frac_str(plan.s1),
        },
        "breakpoints": [frac_str(t) for t in plan.ts],
        "intervals": [
            {"sample": frac_str(cert.sample), "shapes": certificate_shapes_json(cert)}
            for cert in plan.intervals
        ],
    }
