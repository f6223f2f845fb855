"""Sparse Laurent series over F_q and matrices of them, with exact, division-free kernels.

Everything here works over F_q[t, 1/t] for a prime q.  A `Series` is a
tuple of (exponent, coefficient) pairs sorted by exponent, with every
coefficient in 1..q-1, and the `ser_*` kernels add, negate, multiply,
truncate and exactly divide them.  They are the one sparse series layer:
`LMatrix` entries are bare series, and the ball counting in `measures`
uses the same kernels.

Ranks are taken over the fraction field F_q(t) by fraction-free
(Bareiss) elimination, never by specializing t, and characteristic
polynomials come from Berkowitz's recurrence, which uses ring operations
only, so no division by integers ever happens (which would be unsound in
small characteristic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InternalFault, ValidationError

__all__ = [
    "LMatrix", "Series", "ser_add", "ser_divexact", "ser_mul", "ser_neg", "ser_trunc",
]

Series = Tuple[Tuple[int, int], ...]  # sorted (exponent, coeff != 0)


def ser_neg(s: Series, q: int) -> Series:
    return tuple((e, (-c) % q) for e, c in s)


def ser_add(a: Series, b: Series, q: int) -> Series:
    d = dict(a)
    for e, c in b:
        v = (d.get(e, 0) + c) % q
        if v:
            d[e] = v
        elif e in d:
            del d[e]
    return tuple(sorted(d.items()))


def ser_trunc(s: Series, below: int) -> Series:
    return tuple((e, c) for e, c in s if e < below)


def ser_mul(a: Series, b: Series, q: int, below: Optional[int] = None) -> Series:
    """The product a*b, truncated below t^below when a bound is given."""
    if below is None:
        return _ser_dot((a,), (b,), q)
    d: Dict[int, int] = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            if e >= below:
                break  # b is sorted: every later term lies above the bound too
            v = (d.get(e, 0) + c1 * c2) % q
            if v:
                d[e] = v
            elif e in d:
                del d[e]
    return tuple(sorted(d.items()))


def ser_divexact(a: Series, b: Series, q: int) -> Series:
    """The quotient a/b; the remainder must vanish (else a fault)."""
    if not b:
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if not a:
        return a
    # strip t-powers separately so the denominator has a unit constant
    # term; then a Laurent-exact quotient is a polynomial quotient.
    va, vb = a[0][0], b[0][0]
    num = {e - va: c for e, c in a}
    den = [(e - vb, c) for e, c in b]
    dd, lead = den[-1]
    lead_inv = pow(lead, q - 2, q)
    out: Dict[int, int] = {}
    while num:
        nd = max(num)
        if nd < dd:
            raise InternalFault(
                "inexact division in fraction-free elimination",
                where="laurent.ser_divexact",
            )
        f = num[nd] * lead_inv % q
        out[nd - dd] = f
        for e, c in den:
            k = e + nd - dd
            v = (num.get(k, 0) - f * c) % q
            if v:
                num[k] = v
            elif k in num:
                del num[k]
    return tuple(sorted((e + va - vb, c) for e, c in out.items()))


def _ser_dot(xs: Sequence[Series], ys: Sequence[Series], q: int) -> Series:
    """sum x*y over the paired series, gathered in one pass."""
    d: Dict[int, int] = {}
    for a, b in zip(xs, ys):
        for e1, c1 in a:
            for e2, c2 in b:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return tuple(sorted((e, r) for e, c in d.items() if (r := c % q)))


def _lowest_to_zero(row: List[Series]) -> List[Series]:
    """The row times t^-v, v its lowest exponent (the row unchanged if zero)."""
    v = min((s[0][0] for s in row if s), default=0)
    return [tuple((e - v, c) for e, c in s) for s in row] if v else row


@dataclass(frozen=True)
class LMatrix:
    """Square-or-rectangular matrix of `Series` entries over a fixed F_q."""

    q: int
    rows: Tuple[Tuple[Series, ...], ...]

    @staticmethod
    def from_rows(q: int, rows: Sequence[Sequence[Series]]) -> "LMatrix":
        return LMatrix(q, tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> Series:
        return self.rows[i][j]

    def __matmul__(self, other: "LMatrix") -> "LMatrix":
        q = self.q
        cols = [[r[j] for r in other.rows] for j in range(other.ncols)]
        return LMatrix(q, tuple(
            tuple(_ser_dot(row, col, q) for col in cols) for row in self.rows
        ))

    # -- characteristic polynomial -------------------------------------

    def charpoly(self) -> List[Series]:
        """Coefficients [c_0, ..., c_n] of det(X*I - M) = sum c_k X^(n-k).

        Berkowitz's recurrence: write the trailing block from row k on as
        [[a, R], [C, S]]; its characteristic polynomial is T times that
        of S, where T is lower-triangular Toeplitz with first column
        (1, -a, -R C, -R S C, -R S^2 C, ...).  Ring operations only, so
        it is valid in any characteristic and for every n.
        """
        n, q = self.nrows, self.q
        if n != self.ncols:
            raise ValidationError(
                "characteristic polynomial of a non-square matrix",
                where="laurent.LMatrix.charpoly",
            )
        m = self.rows
        one: Series = ((0, 1),)
        poly: List[Series] = [one]  # of the empty trailing block
        for k in range(n - 1, -1, -1):
            r = m[k][k + 1 :]
            s = [row[k + 1 :] for row in m[k + 1 :]]
            v = [row[k] for row in m[k + 1 :]]  # C, then S^j C
            col = [one, ser_neg(m[k][k], q)]
            for j in range(n - 1 - k):
                if j:
                    v = [_ser_dot(row, v, q) for row in s]
                col.append(ser_neg(_ser_dot(r, v, q), q))
            # T times poly: entry i is sum_j col[i - j] * poly[j]
            poly = [
                _ser_dot([col[i - j] for j in range(min(i + 1, len(poly)))], poly, q)
                for i in range(len(col))
            ]
        return poly

    def nilpotency_witness(self) -> Tuple[int, Series] | None:
        """None when nilpotent, else (k, coeff) for the first nonzero c_k.

        c_1 is minus the trace, so a nonzero trace answers without the
        characteristic polynomial.
        """
        q = self.q
        if self.nrows == self.ncols:
            trace: Series = ()
            for i, row in enumerate(self.rows):
                trace = ser_add(trace, row[i], q)
            if trace:
                return 1, ser_neg(trace, q)
        cp = self.charpoly()
        for k in range(1, self.nrows + 1):
            if cp[k]:
                return k, cp[k]
        return None

    def is_nilpotent(self) -> bool:
        return self.nilpotency_witness() is None

    # -- rank over F_q(t) ----------------------------------------------

    def rank(self) -> int:
        q, ncols = self.q, self.ncols
        work = [_lowest_to_zero(list(r)) for r in self.rows if any(r)]
        rk = 0
        prev: Series = ((0, 1),)
        for col in range(ncols):
            piv = next((i for i in range(rk, len(work)) if work[i][col]), None)
            if piv is None:
                continue
            work[rk], work[piv] = work[piv], work[rk]
            top = work[rk]
            pivot = top[col]
            for i in range(rk + 1, len(work)):
                row = work[i]
                if not any(row[col:]):
                    continue
                # Bareiss: (pivot * row - row[col] * top) / prev is exact;
                # moving the lowest exponent to 0 keeps coefficients small
                work[i] = _lowest_to_zero([
                    ser_divexact(
                        ser_add(
                            ser_mul(pivot, row[j], q),
                            ser_neg(ser_mul(row[col], top[j], q), q),
                            q,
                        ),
                        prev,
                        q,
                    )
                    for j in range(ncols)
                ])
            prev = pivot
            rk += 1
            if rk == len(work):
                break
        return rk
