"""Exact arithmetic and linear algebra over small finite fields.

An element of F_{l^a} is an int 0 .. l^a - 1 whose base-l digits, lowest
first, are its coefficients as a polynomial modulo a deterministically
chosen irreducible polynomial, so repeated runs agree bit for bit.  The
prime field F_q is the case a = 1: plain residues modulo q.  Zero and
one are 0 and 1 in every field, and one row-reduction stack serves all
of them.
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


# ---------------------------------------------------------------------------
# polynomial arithmetic: the modulus search and the antilog table
# ---------------------------------------------------------------------------


def _poly_mul_mod(a: Vec, b: Vec, modulus: Vec, ell: int) -> Vec:
    deg = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % ell
    # reduce modulo the monic modulus
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg):
                prod[i - deg + j] = (prod[i - deg + j] - c * modulus[j]) % ell
    out = prod[:deg] + [0] * max(0, deg - len(prod))
    return tuple(out[:deg])


def _poly_is_irreducible(modulus: Vec, ell: int) -> bool:
    # f (monic, degree a) is irreducible iff x^(ell^a) == x mod f and
    # gcd-style check x^(ell^(a/r)) != x for every prime r | a.
    a = len(modulus) - 1
    x = tuple([0, 1] + [0] * (a - 2)) if a >= 2 else (0,)

    def frob_pow(k: int) -> Vec:
        y = x
        for _ in range(k):
            y = _poly_pow(y, ell, modulus, ell)
        return y

    if frob_pow(a) != x:
        return False
    r = 2
    aa = a
    primes = set()
    while aa > 1:
        while aa % r == 0:
            primes.add(r)
            aa //= r
        r += 1
    for p in primes:
        if frob_pow(a // p) == x:
            return False
    return True


def _poly_pow(base: Vec, e: int, modulus: Vec, ell: int) -> Vec:
    deg = len(modulus) - 1
    result = tuple([1] + [0] * (deg - 1))
    b = base
    while e:
        if e & 1:
            result = _poly_mul_mod(result, b, modulus, ell)
        b = _poly_mul_mod(b, b, modulus, ell)
        e >>= 1
    return result


def _digits(code: int, ell: int, a: int) -> Vec:
    """The coefficient tuple (lowest first) of the element coded `code`."""
    coeffs = []
    for _ in range(a):
        coeffs.append(code % ell)
        code //= ell
    return tuple(coeffs)


def _code(coeffs: Vec, ell: int) -> int:
    return sum(c * ell**i for i, c in enumerate(coeffs))


def _find_modulus(ell: int, a: int) -> Vec:
    if a == 1:
        return (0, 1)
    # smallest monic irreducible in lexicographic order on low coefficients
    for code in range(ell**a):
        modulus = _digits(code, ell, a) + (1,)
        if _poly_is_irreducible(modulus, ell):
            return modulus
    raise InternalFault(f"no irreducible polynomial of degree {a} over F_{ell}")


def _antilog(ell: int, modulus: Vec) -> List[int]:
    """Powers g^0 .. g^(l^a - 2) of the first element g of order l^a - 1."""
    a = len(modulus) - 1
    for g in range(2, ell**a):
        gen = _digits(g, ell, a)
        powers = [1]
        y = gen
        while (code := _code(y, ell)) != 1:
            powers.append(code)
            y = _poly_mul_mod(y, gen, modulus, ell)
        if len(powers) == ell**a - 1:
            return powers
    raise InternalFault("no multiplicative generator found")


class ExtField:
    """F_{l^a} with elements stored as the ints 0 .. l^a - 1.

    For a = 1 the arithmetic is plain arithmetic modulo l, with no
    tables.  For a > 1 products, inverses and powers go through log and
    antilog tables and sums through a Zech table: g^zech[k] = 1 + g^k.
    Each holds at most 2 l^a ints and is built once, from the first
    element g of order l^a - 1, the one `multiplicative_generator`
    returns.
    """

    def __init__(self, ell: int, a: int):
        if not is_prime(ell):
            raise ValidationError(f"l = {ell} is not prime", where="gf.ExtField")
        if a < 1:
            raise ValidationError("degree must be >= 1", where="gf.ExtField")
        self.ell = ell
        self.deg = a
        self.order = ell**a
        self.modulus = _find_modulus(ell, a)
        self.zero = 0
        self.one = 1
        if a > 1:
            antilog = _antilog(ell, self.modulus)
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

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

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

    def from_int(self, k: int) -> int:
        return k % self.ell

    def elements(self) -> range:
        return range(self.order)

    def multiplicative_generator(self) -> int:
        """The first element of order l^a - 1: for a > 1 the tables' g."""
        if self.deg > 1:
            return self._exp[1]
        m = self.order - 1
        primes = []
        mm, r = m, 2
        while mm > 1:
            if mm % r == 0:
                primes.append(r)
                while mm % r == 0:
                    mm //= r
            r += 1
        for g in self.elements():
            if g == self.zero:
                continue
            if all(self.pow(g, m // p) != self.one for p in primes):
                return g
        raise InternalFault("no multiplicative generator found")

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
    block_ranks[b][k - 1] is the rank of the columns blocks[b] of a^k."""
    powers = [a]
    for _ in range(len(a) - 1):
        powers.append(mat_mul(powers[-1], a, field))
    block_ranks = tuple(
        tuple(rank([[row[c] for c in idx] for row in p], field) for p in powers)
        for idx in blocks
    )
    return tuple(rank(p, field) for p in powers), block_ranks


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
