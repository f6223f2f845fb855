"""The general inverse and the full-sum checks, kept as test oracles.

`solver._invert_rational` inverts an upper triangular matrix by back
substitution, and `solver.matrix_problem` reads the closure order from
`orbits.closure_order` and skips zero terms of M A.  The slower forms
they replaced are kept here for the tests to compare them with:

- `invert_rational`, Gauss-Jordan elimination with pivot search, which
  inverts any nonsingular matrix and returns [] on a singular one;
- `matrix_problem`, the same checks in the same order, with every order
  test a fresh `dominance_leq` call and every product a full sum;
- `solve_coefficients`, c = A v and the check M c = v by full sums.
"""

from fractions import Fraction as Q
from typing import List, Optional, Sequence

from mptypes.orbits import dominance_leq, partitions_of


def invert_rational(rows: Sequence[Sequence[Q]]) -> List[List[Q]]:
    """The exact inverse, or [] when the matrix is singular."""
    k = len(rows)
    aug = [list(rows[i]) + [Q(1) if j == i else Q(0) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            return []
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [a / f for a in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                g = aug[i][col]
                aug[i] = [a - g * b for a, b in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]


def matrix_problem(cfg, cm) -> Optional[str]:
    """The first check cm fails, or None when it passes all of them."""
    orbits = tuple(partitions_of(cfg.n))
    k = len(orbits)
    if cm.orbits != orbits or tuple(p.lift for p in cm.probes) != orbits:
        return "orbits or probe lifts are not in the ascending orbit order"
    m, a = cm.m_rows, cm.a_rows
    if len(m) != k or any(len(r) != k for r in m):
        return f"M is not {k} x {k}"
    for i in range(k):
        if m[i][i] == 0:
            return f"zero diagonal at {orbits[i]}: contradicts triangularity"
        for j in range(k):
            if m[i][j] != 0 and not dominance_leq(orbits[i], orbits[j]):
                return f"nonzero entry below the order at ({orbits[i]}, {orbits[j]})"
    if len(a) != k or any(len(r) != k for r in a):
        return f"A is not {k} x {k}"
    for i in range(k):
        for j in range(k):
            if sum(m[i][l] * a[l][j] for l in range(k)) != (1 if i == j else 0):
                return "M A != I"
            if a[i][j] != 0 and not dominance_leq(orbits[i], orbits[j]):
                return f"inverse nonzero below the order at ({orbits[i]}, {orbits[j]})"
    return None


def solve_coefficients(cm, vec: Sequence[Q]) -> Optional[List[Q]]:
    """A v for the probe values `vec`, or None when M (A v) != v."""
    k = len(cm.orbits)
    coeffs = [sum(cm.a_rows[i][j] * vec[j] for j in range(k)) for i in range(k)]
    for i in range(k):
        if sum(cm.m_rows[i][j] * coeffs[j] for j in range(k)) != vec[i]:
            return None
    return coeffs
