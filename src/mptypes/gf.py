"""Exact arithmetic and linear algebra over small finite fields.

An element of F_{l^a} is an int 0 .. l^a - 1 whose base-l digits, lowest
first, are its coefficients as a polynomial modulo the first primitive
polynomial of degree a (see `ExtField`), so repeated runs agree bit for
bit.  The prime field F_q is the case a = 1: plain residues modulo q.
Zero and one are 0 and 1 in every field, and one row-reduction stack
serves all of them.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Iterable, List, Sequence, Tuple

from .errors import InternalFault, ValidationError

Vec = Tuple[int, ...]
Mat = Tuple[Vec, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(code: int, ell: int, a: int) -> Vec:
    """The coefficient tuple (lowest first) of the element coded `code`."""
    coeffs = []
    for _ in range(a):
        coeffs.append(code % ell)
        code //= ell
    return tuple(coeffs)


def _primitive_modulus(ell: int, a: int) -> Tuple[Vec, List[int]]:
    """The first monic f of degree a > 1, in the order of the codes of its
    low coefficients, modulo which x has order l^a - 1, and the codes of
    x^0, ..., x^(l^a - 2) modulo that f.

    A candidate with a root r in F_l has the factor x - r, so x cannot
    have full order.  On the others f(0) != 0 makes x a unit, and its
    powers are walked as digit lists, one multiplication by x (a shift,
    then top * f subtracted once) per step, until they return to 1; only
    the winner's powers are coded.
    """
    one = [1] + [0] * (a - 1)

    def powers(f: Vec) -> Iterable[List[int]]:
        y = one
        while True:
            yield y
            top = y[-1]
            y = [0] + y[:-1]
            if top:
                y = [(c - top * m) % ell for c, m in zip(y, f)]
            if y == one:
                return

    weights = [ell**i for i in range(a)]
    for code in range(ell**a):
        f = _digits(code, ell, a) + (1,)
        if any(sum(c * r**i for i, c in enumerate(f)) % ell == 0 for r in range(ell)):
            continue
        if sum(1 for _ in powers(f)) == ell**a - 1:
            return f, [sum(map(mul, y, weights)) for y in powers(f)]
    raise InternalFault(f"no primitive polynomial of degree {a} over F_{ell}")


class ExtField:
    """F_{l^a} with elements stored as the ints 0 .. l^a - 1.

    For a = 1 the arithmetic is plain arithmetic modulo l, with no
    tables, and `modulus` is (0, 1).  For a > 1 the modulus is the first
    primitive polynomial f of degree a: modulo f, x has order l^a - 1.
    Such an f is irreducible, since a factor of f would leave fewer than
    l^a - 1 units modulo f, so x is a generator g of F_l[x]/(f).  It is
    the first element of order l^a - 1, the one `multiplicative_generator`
    returns: x has the code l, and the codes below it are constants,
    whose orders divide l - 1.  Products, inverses and powers go through log and
    antilog tables and sums through a Zech table: g^zech[k] = 1 + g^k.
    Each holds at most 2 l^a ints and is built once, from the powers of x
    that found f.
    """

    def __init__(self, ell: int, a: int):
        if not is_prime(ell):
            raise ValidationError(f"l = {ell} is not prime", where="gf.ExtField")
        if a < 1:
            raise ValidationError("degree must be >= 1", where="gf.ExtField")
        self.ell = ell
        self.deg = a
        self.order = ell**a
        self.modulus: Vec = (0, 1)
        self.zero = 0
        self.one = 1
        if a > 1:
            self.modulus, antilog = _primitive_modulus(ell, a)
            self._log = [0] * self.order
            for k, e in enumerate(antilog):
                self._log[e] = k
            # doubled, so the sum of two logs needs no reduction
            self._exp = antilog + antilog
            # e - e % l + (e + 1) % l is 1 + e: only the lowest digit moves;
            # None marks 1 + g^k = 0
            self._zech = [
                self._log[p] if (p := e - e % ell + (e + 1) % ell) else None
                for e in antilog
            ]
            self._log_minus_one = self._log[ell - 1]

    def __repr__(self) -> str:
        return f"ExtField({self.ell}^{self.deg})"

    def add(self, x: int, y: int) -> int:
        if self.deg == 1:
            return (x + y) % self.ell
        if not x:
            return y
        if not y:
            return x
        lx = self._log[x]
        # x + y = x (1 + g^(log y - log x)); a negative index wraps modulo l^a - 1
        z = self._zech[self._log[y] - lx]
        return 0 if z is None else self._exp[lx + z]

    def neg(self, x: int) -> int:
        if self.deg == 1:
            return -x % self.ell
        return self._exp[self._log[x] + self._log_minus_one] if x else 0

    def mul(self, x: int, y: int) -> int:
        if self.deg == 1:
            return x * y % self.ell
        return self._exp[self._log[x] + self._log[y]] if x and y else 0

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if self.deg == 1:
            return pow(x, e, self.ell)
        if not x:
            return 0 if e else 1
        return self._exp[self._log[x] * e % (self.order - 1)]

    def inv(self, x: int) -> int:
        if not x % self.order:
            raise ZeroDivisionError(f"inverse of 0 in {self!r}")
        if self.deg == 1:
            return pow(x, self.ell - 2, self.ell)
        return self._exp[self.order - 1 - self._log[x]]

    def elements(self) -> range:
        return range(self.order)

    def multiplicative_generator(self) -> int:
        """The first element of order l^a - 1: for a > 1 the tables' g,
        which is x; for a = 1 the first g whose powers cover F_l^*."""
        if self.deg > 1:
            return self._exp[1]
        ell = self.ell
        return next(
            g for g in range(1, ell) if len({pow(g, k, ell) for k in range(ell - 1)}) == ell - 1
        )

    def root_of_unity(self, p: int) -> int:
        """A fixed primitive p-th root of unity; requires p | l^a - 1."""
        if (self.order - 1) % p:
            raise ValidationError(
                f"p = {p} does not divide {self.ell}^{self.deg} - 1",
                where="gf.ExtField.root_of_unity",
            )
        g = self.multiplicative_generator()
        return self.pow(g, (self.order - 1) // p)


@lru_cache(maxsize=None)
def ext_field(ell: int, a: int) -> ExtField:
    """F_{l^a}, built once per (l, a)."""
    return ExtField(ell, a)


def prime_field(q: int) -> ExtField:
    """F_q, built once per q."""
    return ext_field(q, 1)


# ---------------------------------------------------------------------------
# linear algebra over any of these fields; entries are canonical elements
# ---------------------------------------------------------------------------


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _dot(u: Sequence[int], v: Sequence[int], field: ExtField) -> int:
    if field.deg == 1:
        # a prime field is the integers modulo l: reduce the plain sum once
        return sum(map(mul, u, v)) % field.ell
    acc = 0
    if field.ell == 2:
        # the base-2 digits of an element are its coefficients, so a sum is XOR
        log, exp = field._log, field._exp
        for x, y in zip(u, v):
            if x and y:
                acc ^= exp[log[x] + log[y]]
        return acc
    for x, y in zip(u, v):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], field: ExtField) -> Mat:
    cols = list(zip(*b))
    if field.deg == 1:
        p = field.ell
        return tuple(tuple(sum(map(mul, ra, col)) % p for col in cols) for ra in a)
    return tuple(tuple(_dot(ra, col, field) for col in cols) for ra in a)


def mat_pow(a: Sequence[Sequence[int]], e: int, field: ExtField) -> Mat:
    """a^e for e >= 0, by square-and-multiply.

    The running product starts at the lowest power of a it needs, not at
    the identity, so a^(2^k) costs k products; a^1 is a copied to tuples
    of reduced entries, as a product would return it.
    """
    if not e:
        return identity(len(a))
    if e == 1:
        p = field.ell if field.deg == 1 else field.order
        return tuple(tuple(x % p for x in row) for row in a)
    while not e & 1:
        a = mat_mul(a, a, field)
        e >>= 1
    result = a
    e >>= 1
    while e:
        a = mat_mul(a, a, field)
        if e & 1:
            result = mat_mul(result, a, field)
        e >>= 1
    return result


def is_nilpotent(a: Sequence[Sequence[int]], field: ExtField) -> bool:
    """Over a field, an n x n matrix is nilpotent exactly when a^n = 0."""
    return not any(map(any, mat_pow(a, len(a), field)))


def power_ranks(
    a: Sequence[Sequence[int]], field: ExtField, blocks: Sequence[Sequence[int]] = ()
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """Ranks of a^1, ..., a^n, and of each column block of those powers:
    block_ranks[b][k - 1] is the rank of the columns blocks[b] of a^k.
    The products stop at the first zero power: every later one is zero."""
    powers = [a]
    while len(powers) < len(a) and any(map(any, powers[-1])):
        powers.append(mat_mul(powers[-1], a, field))
    zeros = (0,) * (len(a) - len(powers))
    block_ranks = tuple(
        tuple(rank([[row[c] for c in idx] for row in p], field) for p in powers) + zeros
        for idx in blocks
    )
    return tuple(rank(p, field) for p in powers) + zeros, block_ranks


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int], field: ExtField) -> Vec:
    return tuple(_dot(r, v, field) for r in a)


def rref(
    rows: Iterable[Sequence[int]], field: ExtField
) -> Tuple[List[List[int]], List[int]]:
    """Row-reduce; returns (reduced nonzero rows, pivot columns).

    Over a prime field the row operations run on plain ints with one
    reduction modulo l per entry; other fields go through the tables.
    """
    add, mul, p = field.add, field.mul, field.ell
    work = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][c])
        if field.deg == 1:
            prow = work[r] = [inv * x % p for x in work[r]]
            for i, row in enumerate(work):
                if i != r and row[c]:
                    f = row[c]
                    work[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        else:
            prow = work[r] = [mul(inv, x) for x in work[r]]
            for i, row in enumerate(work):
                if i != r and row[c]:
                    f = field.neg(row[c])
                    work[i] = [add(x, mul(f, y)) if y else x for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows: Iterable[Sequence[int]], field: ExtField) -> int:
    return len(rref(rows, field)[1])


def kernel(rows: Sequence[Sequence[int]], ncols: int, field: ExtField) -> List[Vec]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    reduced, pivots = rref(rows, field)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = field.neg(reduced[i][f])
        basis.append(tuple(v))
    return basis


def mat_inv(rows: Sequence[Sequence[int]], field: ExtField) -> Mat:
    n = len(rows)
    reduced, pivots = rref([list(r) + list(e) for r, e in zip(rows, identity(n))], field)
    if pivots != list(range(n)):
        raise ValidationError(f"matrix is singular over F_{field.order}", where="gf.mat_inv")
    return tuple(tuple(row[n:]) for row in reduced)


def complement_basis(
    sub: Sequence[Sequence[int]], whole: Sequence[Sequence[int]], field: ExtField
) -> List[Vec]:
    """Vectors from `whole` extending span(sub) to span(sub)+span(whole)."""
    current = [list(v) for v in sub]
    out: List[Vec] = []
    base_rank = rank(current, field)
    for v in whole:
        cand = current + [list(v)]
        r = rank(cand, field)
        if r > base_rank:
            current = cand
            base_rank = r
            out.append(tuple(v))
    return out
