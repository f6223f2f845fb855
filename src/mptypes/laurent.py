"""Laurent-polynomial matrices over F_q with exact, division-free kernels.

Everything here works over F_q[t, 1/t] for a prime q.  Ranks are taken
over the fraction field F_q(t) by fraction-free (Bareiss) elimination,
never by specializing t, and characteristic polynomials are assembled
from principal minors so no division by integers ever happens (which
would be unsound in small characteristic).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .errors import InternalFault, ValidationError

__all__ = ["Laurent", "LMatrix", "commutator"]


@dataclass(frozen=True)
class Laurent:
    """A Laurent polynomial sum c * t^w; coeffs sorted by exponent."""

    q: int
    coeffs: Tuple[Tuple[int, int], ...]  # (exponent, coefficient in 1..q-1)

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
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = (d.get(e, 0) + c) % self.q
        return Laurent.from_dict(self.q, d)

    def __neg__(self) -> "Laurent":
        return Laurent(self.q, tuple((e, (-c) % self.q) for e, c in self.coeffs))

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        d: Dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                d[e] = (d.get(e, 0) + c1 * c2) % self.q
        return Laurent.from_dict(self.q, d)

    def scale(self, c: int) -> "Laurent":
        c %= self.q
        if c == 0:
            return Laurent.zero(self.q)
        return Laurent(self.q, tuple((e, (c * a) % self.q) for e, a in self.coeffs))

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
        n, k, m = self.nrows, self.ncols, other.ncols
        z = Laurent.zero(self.q)
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = z
                for s in range(k):
                    a = self.rows[i][s]
                    b = other.rows[s][j]
                    if a.coeffs and b.coeffs:
                        acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return LMatrix(self.q, tuple(out))

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def trace(self) -> Laurent:
        acc = Laurent.zero(self.q)
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "LMatrix":
        return LMatrix(
            self.q, tuple(tuple(self.rows[i][j] for j in cols) for i in rows)
        )

    # -- determinant / characteristic polynomial -----------------------

    def det(self) -> Laurent:
        n = self.nrows
        if n != self.ncols:
            raise ValidationError("determinant of non-square matrix", where="laurent")
        if n > 6:
            raise ValidationError("determinant restricted to n <= 6", where="laurent")
        return _det_expand(self.rows, tuple(range(n)), self.q)

    def charpoly(self) -> List[Laurent]:
        """Coefficients [c_0, ..., c_n] of det(X*I - M) = sum c_k X^(n-k).

        Assembled as c_k = (-1)^k * (sum of principal k x k minors); this
        avoids all division and is valid in any characteristic.
        """
        n = self.nrows
        coeffs = [Laurent.const(self.q, 1)]
        idx = range(n)
        for k in range(1, n + 1):
            acc = Laurent.zero(self.q)
            for sub in combinations(idx, k):
                acc = acc + self.submatrix(sub, sub).det()
            sign = -1 if k % 2 else 1
            coeffs.append(acc.scale(sign))
        return coeffs

    def nilpotency_witness(self) -> Tuple[int, Laurent] | None:
        """None when nilpotent, else (k, coeff) for the first nonzero c_k."""
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


def _det_expand(rows, cols: Tuple[int, ...], q: int) -> Laurent:
    if len(rows) == 1:
        return rows[0][cols[0]]
    acc = Laurent.zero(q)
    rest = rows[1:]
    for pos, c in enumerate(cols):
        a = rows[0][c]
        if a.is_zero():
            continue
        minor = _det_expand(rest, cols[:pos] + cols[pos + 1 :], q)
        term = a * minor
        acc = acc + (term if pos % 2 == 0 else -term)
    return acc


def commutator(a: LMatrix, b: LMatrix) -> LMatrix:
    """Standard commutator a b - b a."""
    return (a @ b) - (b @ a)
