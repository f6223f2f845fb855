"""Laurent-polynomial matrices over F_q with exact, division-free kernels.

Everything here works over F_q[t, 1/t] for a prime q.  Ranks are taken
over the fraction field F_q(t) by fraction-free (Bareiss) elimination,
never by specializing t, and characteristic polynomials come from
Berkowitz's recurrence, which uses ring operations only, so no division
by integers ever happens (which would be unsound in small characteristic).

This module is the one home of sparse series arithmetic: the `ser_*`
kernels work on the bare format of `Laurent.coeffs` (a `Series`, sorted
(exponent, coefficient) pairs with nonzero coefficients) and serve both
`Laurent` and the ball counting in `measures`, which avoids objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InternalFault, ValidationError

__all__ = [
    "Laurent", "LMatrix", "Series", "commutator", "ser_add", "ser_mul", "ser_neg", "ser_trunc",
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


def _ser_dot(xs: Sequence[Series], ys: Sequence[Series], q: int) -> Series:
    """sum x*y over the paired series, gathered in one pass."""
    d: Dict[int, int] = {}
    for a, b in zip(xs, ys):
        for e1, c1 in a:
            for e2, c2 in b:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return tuple(sorted((e, r) for e, c in d.items() if (r := c % q)))


@dataclass(frozen=True)
class Laurent:
    """A Laurent polynomial sum c * t^w; coeffs sorted by exponent."""

    q: int
    coeffs: Series  # (exponent, coefficient in 1..q-1)

    # -- construction ------------------------------------------------

    @staticmethod
    def zero(q: int) -> "Laurent":
        return Laurent(q, ())

    @staticmethod
    def monomial(q: int, exp: int, c: int) -> "Laurent":
        c %= q
        return Laurent(q, ((exp, c),) if c else ())

    @staticmethod
    def const(q: int, c: int) -> "Laurent":
        return Laurent.monomial(q, 0, c)

    @staticmethod
    def from_dict(q: int, d: Dict[int, int]) -> "Laurent":
        items = tuple(sorted((e, c % q) for e, c in d.items() if c % q))
        return Laurent(q, items)

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def val(self) -> int:
        """Valuation (lowest exponent); raises on the zero polynomial."""
        if not self.coeffs:
            raise ValidationError("valuation of 0", where="laurent.Laurent.val")
        return self.coeffs[0][0]

    def degree(self) -> int:
        if not self.coeffs:
            raise ValidationError("degree of 0", where="laurent.Laurent.degree")
        return self.coeffs[-1][0]

    def coeff(self, exp: int) -> int:
        for e, c in self.coeffs:
            if e == exp:
                return c
        return 0

    def is_monomial(self) -> bool:
        return len(self.coeffs) <= 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Laurent") -> "Laurent":
        return Laurent(self.q, ser_add(self.coeffs, other.coeffs, self.q))

    def __neg__(self) -> "Laurent":
        return Laurent(self.q, ser_neg(self.coeffs, self.q))

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        return Laurent(self.q, ser_mul(self.coeffs, other.coeffs, self.q))

    def shift(self, k: int) -> "Laurent":
        """Multiply by t^k."""
        return Laurent(self.q, tuple((e + k, c) for e, c in self.coeffs))

    def divexact(self, other: "Laurent") -> "Laurent":
        """Exact division; the remainder must vanish (else a fault)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return self
        # strip t-powers separately so the denominator has a unit constant
        # term; then a Laurent-exact quotient is a polynomial quotient.
        shift_num = self.val()
        shift_den = other.val()
        num = dict(self.shift(-shift_num).coeffs)
        den = other.shift(-shift_den)
        dd = den.degree()
        lead_inv = pow(den.coeff(dd), self.q - 2, self.q)
        out: Dict[int, int] = {}
        while num:
            nd = max(num)
            if nd < dd:
                raise InternalFault(
                    "inexact division in fraction-free elimination",
                    where="laurent.Laurent.divexact",
                )
            f = num[nd] * lead_inv % self.q
            out[nd - dd] = f
            for e, c in den.coeffs:
                k = e + nd - dd
                v = (num.get(k, 0) - f * c) % self.q
                if v:
                    num[k] = v
                elif k in num:
                    del num[k]
        return Laurent.from_dict(self.q, out).shift(shift_num - shift_den)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e, c in self.coeffs:
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*t" if c != 1 else "t")
            else:
                terms.append(f"{c}*t^{e}" if c != 1 else f"t^{e}")
        return " + ".join(terms)


@dataclass(frozen=True)
class LMatrix:
    """Square-or-rectangular matrix with Laurent entries over a fixed F_q."""

    q: int
    rows: Tuple[Tuple[Laurent, ...], ...]

    @staticmethod
    def zero(q: int, n: int, m: int | None = None) -> "LMatrix":
        m = n if m is None else m
        z = Laurent.zero(q)
        return LMatrix(q, tuple(tuple(z for _ in range(m)) for _ in range(n)))

    @staticmethod
    def identity(q: int, n: int) -> "LMatrix":
        one = Laurent.const(q, 1)
        z = Laurent.zero(q)
        return LMatrix(q, tuple(tuple(one if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def from_rows(q: int, rows: Sequence[Sequence[Laurent]]) -> "LMatrix":
        return LMatrix(q, tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> Laurent:
        return self.rows[i][j]

    def __add__(self, other: "LMatrix") -> "LMatrix":
        return LMatrix(
            self.q,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: "LMatrix") -> "LMatrix":
        return LMatrix(
            self.q,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __matmul__(self, other: "LMatrix") -> "LMatrix":
        q = self.q
        cols = [[r[j].coeffs for r in other.rows] for j in range(other.ncols)]
        return LMatrix(q, tuple(
            tuple(Laurent(q, _ser_dot([e.coeffs for e in row], col, q)) for col in cols)
            for row in self.rows
        ))

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "LMatrix":
        return LMatrix(
            self.q, tuple(tuple(self.rows[i][j] for j in cols) for i in rows)
        )

    # -- characteristic polynomial -------------------------------------

    def charpoly(self) -> List[Laurent]:
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
        m = [[e.coeffs for e in row] for row in self.rows]
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
        return [Laurent(q, c) for c in poly]

    def nilpotency_witness(self) -> Tuple[int, Laurent] | None:
        """None when nilpotent, else (k, coeff) for the first nonzero c_k.

        c_1 is minus the trace, so a nonzero trace answers without the
        characteristic polynomial.
        """
        q = self.q
        if self.nrows == self.ncols:
            trace: Series = ()
            for i, row in enumerate(self.rows):
                trace = ser_add(trace, row[i].coeffs, q)
            if trace:
                return 1, Laurent(q, ser_neg(trace, q))
        cp = self.charpoly()
        for k in range(1, self.nrows + 1):
            if not cp[k].is_zero():
                return k, cp[k]
        return None

    def is_nilpotent(self) -> bool:
        return self.nilpotency_witness() is None

    # -- rank over F_q(t) ----------------------------------------------

    def rank(self) -> int:
        work: List[List[Laurent]] = []
        for r in self.rows:
            vals = [e.val() for e in r if not e.is_zero()]
            if not vals:
                continue
            shift = -min(vals)
            work.append([e.shift(shift) if not e.is_zero() else e for e in r])
        rk = 0
        prev = Laurent.const(self.q, 1)
        rowpos = 0
        ncols = self.ncols
        for col in range(ncols):
            piv = None
            for i in range(rowpos, len(work)):
                if not work[i][col].is_zero():
                    piv = i
                    break
            if piv is None:
                continue
            work[rowpos], work[piv] = work[piv], work[rowpos]
            pivot = work[rowpos][col]
            for i in range(rowpos + 1, len(work)):
                if all(work[i][j].is_zero() for j in range(col, ncols)):
                    continue
                row = work[i]
                new_row = list(row)
                for j in range(ncols):
                    num = pivot * row[j] - row[col] * work[rowpos][j]
                    new_row[j] = num.divexact(prev) if not num.is_zero() else num
                # renormalize valuations to keep coefficients small
                vals = [e.val() for e in new_row if not e.is_zero()]
                if vals and min(vals) != 0:
                    s = -min(vals)
                    new_row = [e.shift(s) if not e.is_zero() else e for e in new_row]
                work[i] = new_row
            prev = pivot
            rk += 1
            rowpos += 1
            if rowpos == len(work):
                break
        return rk


def commutator(a: LMatrix, b: LMatrix) -> LMatrix:
    """Standard commutator a b - b a."""
    return (a @ b) - (b @ a)
