"""The finite-field layer: table arithmetic and the shared linear algebra."""

import random
import warnings

import pytest

import gf_oracle
from mptypes import gf
from mptypes.apartment import GroupConfig
from mptypes.errors import ValidationError
from mptypes.finite_types import fork_field


def test_rank_kernel_inverse_mod5():
    q = 5
    f = gf.prime_field(q)
    m = [(1, 2), (2, 4)]
    assert gf.rank(m, f) == 1
    ker = gf.kernel(m, 2, f)
    assert len(ker) == 1
    v = ker[0]
    assert all(sum(r[k] * v[k] for k in range(2)) % q == 0 for r in m)

    a = [(1, 1), (0, 1)]
    ainv = gf.mat_inv(a, f)
    assert gf.mat_mul(a, ainv, f) == gf.identity(2)
    with pytest.raises(ValidationError):
        gf.mat_inv([(1, 2), (2, 4)], f)


def test_complement_basis():
    f = gf.prime_field(3)
    sub = [(1, 0, 0)]
    whole = [(1, 0, 0), (1, 1, 0), (2, 2, 0)]
    comp = gf.complement_basis(sub, whole, f)
    assert len(comp) == 1
    assert gf.rank(sub + comp, f) == 2


def test_ext_field_f16_has_fifth_roots():
    f = gf.ext_field(2, 4)
    assert f is gf.ext_field(2, 4) and f.order == 16
    z = f.root_of_unity(5)
    assert z != f.one
    assert f.pow(z, 5) == f.one
    powers = {f.pow(z, k) for k in range(5)}
    assert len(powers) == 5


def test_mat_pow_matches_repeated_products():
    rng = random.Random(3)
    for f in (gf.prime_field(5), gf.ExtField(2, 4)):
        a = tuple(tuple(rng.randrange(f.order) for _ in range(3)) for _ in range(3))
        power = gf.identity(3)
        for e in range(12):
            assert gf.mat_pow(a, e, f) == power
            power = gf.mat_mul(power, a, f)


def test_ext_field_arithmetic_consistency():
    f = gf.ExtField(3, 2)
    rng = random.Random(7)
    elems = list(f.elements())
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        assert f.mul(a, b) == f.mul(b, a)
        if a != f.zero:
            assert f.mul(a, f.inv(a)) == f.one
    # Frobenius fixes the prime field
    for e in range(3):
        assert f.pow(e, 3) == e


def test_ext_field_matrix_kernel():
    f = gf.ExtField(2, 4)
    one, zero = f.one, f.zero
    rows = [[one, one], [one, one]]
    assert gf.rank(rows, f) == 1
    ker = gf.kernel(rows, 2, f)
    assert len(ker) == 1


def _oracle(f):
    """The polynomial arithmetic on coefficient tuples the tables replace."""
    digits = lambda x: gf._digits(x, f.ell, f.deg)
    code = lambda t: gf_oracle.code(t, f.ell)
    mul = lambda x, y: code(gf_oracle.poly_mul_mod(digits(x), digits(y), f.modulus, f.ell))
    add = lambda x, y: code(tuple((a + b) % f.ell for a, b in zip(digits(x), digits(y))))
    return mul, add


@pytest.mark.parametrize("ell,a", [(2, 4), (3, 4)])
def test_table_arithmetic_matches_polynomials_exhaustively(ell, a):
    f = gf.ExtField(ell, a)
    mul, add = _oracle(f)
    for x in f.elements():
        for y in f.elements():
            assert f.mul(x, y) == mul(x, y)
            assert f.add(x, y) == add(x, y)
            assert f.add(f.add(x, f.neg(y)), y) == x
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert mul(x, f.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_table_arithmetic_matches_polynomials_on_a_sample_of_f256():
    f = gf.ExtField(2, 8)
    mul, add = _oracle(f)
    rng = random.Random(256)
    for _ in range(2000):
        x, y = rng.randrange(f.order), rng.randrange(f.order)
        e = rng.randrange(-300, 300)
        assert f.mul(x, y) == mul(x, y)
        assert f.add(x, y) == add(x, y)
        if x:
            assert mul(x, f.inv(x)) == 1
            expected = gf_oracle.poly_pow(gf._digits(x if e >= 0 else f.inv(x), 2, 8), abs(e), f.modulus, 2)
            assert f.pow(x, e) == gf_oracle.code(expected, 2)


def test_tables_start_from_the_first_primitive_element():
    for ell, a in [(2, 4), (3, 4), (2, 8), (3, 2)]:
        f = gf.ExtField(ell, a)
        m = f.order - 1
        primes = [p for p in range(2, m + 1) if m % p == 0 and gf.is_prime(p)]
        one = gf._digits(1, ell, a)
        first = next(
            g
            for g in range(1, f.order)
            if all(gf_oracle.poly_pow(gf._digits(g, ell, a), m // p, f.modulus, ell) != one for p in primes)
        )
        assert f.multiplicative_generator() == first == f._exp[1]


# every F_{l^a} with a >= 2 and l^a <= 4096
SMALL_EXTENSIONS = [
    (ell, a)
    for ell in range(2, 65)
    if gf.is_prime(ell)
    for a in range(2, 13)
    if ell**a <= 4096
]


def test_modulus_is_the_first_primitive_polynomial_and_irreducible():
    for ell, a in SMALL_EXTENSIONS:
        f = gf.ext_field(ell, a)
        x = gf._digits(ell, ell, a)
        assert f.modulus[-1] == 1 and len(f.modulus) == a + 1
        assert gf_oracle.is_irreducible(f.modulus, ell), (ell, a)
        assert gf_oracle.has_full_order(x, f.modulus, ell), (ell, a)
        assert f._exp[1] == ell == f.multiplicative_generator()
        # no candidate with a smaller code is primitive
        for c in range(gf_oracle.code(f.modulus[:-1], ell)):
            g = gf._digits(c, ell, a) + (1,)
            assert not (c % ell and gf_oracle.has_full_order(x, g, ell)), (ell, a, g)


def test_tables_equal_the_three_pass_oracle_where_the_first_irreducible_is_primitive():
    same = []
    for ell, a in SMALL_EXTENSIONS:
        f, smallest = gf.ext_field(ell, a), gf_oracle.smallest_irreducible(ell, a)
        if not gf_oracle.has_full_order(gf._digits(ell, ell, a), smallest, ell):
            assert f.modulus != smallest
            continue
        assert (f.modulus, f._exp, f._log, f._zech) == gf_oracle.tables(ell, a), (ell, a)
        same.append(ell**a)
    # F_16 is the field the `refine` fork identity builds at q = 5
    assert {4, 8, 16, 32, 64, 128, 1024, 2048, 27, 81, 243} <= set(same)


def test_prime_field_generators():
    primes = [p for p in range(2, 100) if gf.is_prime(p)]
    assert [gf.prime_field(p).multiplicative_generator() for p in primes[:6]] == [1, 2, 2, 3, 2, 2]
    for p in primes:
        assert gf.prime_field(p).multiplicative_generator() == gf_oracle.factor_scan_generator(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q = 2 is below the large-p regime
        cfg = GroupConfig(n=2, q=2)
    f3 = fork_field(cfg)
    assert f3 is gf.prime_field(3) and f3.root_of_unity(2) == 2


def test_prime_field_is_plain_modular_arithmetic():
    q = 7
    f = gf.prime_field(q)
    assert f is gf.prime_field(q) and f.order == q and (f.zero, f.one) == (0, 1)
    for x in range(q):
        for y in range(q):
            assert f.mul(x, y) == x * y % q
            assert f.add(x, y) == (x + y) % q
            assert f.add(x, f.neg(y)) == (x - y) % q
        if x:
            assert f.mul(x, f.inv(x)) == 1
            assert f.pow(x, -2) == pow(x * x, q - 2, q)


@pytest.mark.parametrize("a", [4, 8])
def test_xor_dot_matches_field_add_and_mul(a):
    f = gf.ext_field(2, a)
    rng = random.Random(f"xor-dot:{a}")

    def dot(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = f.add(acc, f.mul(x, y))
        return acc

    for length in (0, 1, 2, 5, 17, 64):
        for _ in range(30):
            u = [rng.choice((0, rng.randrange(f.order))) for _ in range(length)]
            v = [rng.randrange(f.order) for _ in range(length)]
            assert gf._dot(u, v, f) == dot(u, v)
    m = [[rng.randrange(f.order) for _ in range(4)] for _ in range(4)]
    col = [[rng.randrange(f.order)] for _ in range(4)]
    assert gf.mat_mul(m, col, f) == tuple((dot(row, [c[0] for c in col]),) for row in m)


def per_entry_dot(u, v, f):
    """The per-entry loop the prime-field path replaced: one field add and
    one field multiplication per nonzero term."""
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = f.add(acc, f.mul(x, y))
    return acc


def identity_first_pow(a, e, f):
    """Square-and-multiply starting from the identity, with per-entry products."""

    def product(x, y):
        cols = list(zip(*y))
        return tuple(tuple(per_entry_dot(row, col, f) for col in cols) for row in x)

    result = gf.identity(len(a))
    while e:
        if e & 1:
            result = product(result, a)
        e >>= 1
        if e:
            a = product(a, a)
    return result


def is_canonical(m, f):
    return type(m) is tuple and all(
        type(row) is tuple and all(type(v) is int and 0 <= v < f.order for v in row)
        for row in m
    )


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_prime_products_and_powers_match_the_per_entry_oracles(q):
    f = gf.prime_field(q)
    rng = random.Random(f"prime-path:{q}")
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            b = [[rng.randrange(-2 * q, 2 * q) for _ in range(n)] for _ in range(n)]
            for e in range(2 * n + 1):
                power = gf.mat_pow(a, e, f)
                assert power == identity_first_pow(a, e, f)
                assert is_canonical(power, f)
            # entries outside 0..q-1 are reduced like the field arithmetic does
            prod = gf.mat_mul(a, b, f)
            cols = list(zip(*b))
            assert prod == tuple(tuple(per_entry_dot(r, c, f) for c in cols) for r in a)
            assert is_canonical(prod, f)
            assert gf._dot(a[0], b[0], f) == per_entry_dot(a[0], b[0], f)
            assert gf.mat_vec(a, b[0], f) == tuple(per_entry_dot(r, b[0], f) for r in a)
            assert gf.mat_pow(b, 1, f) == tuple(tuple(v % q for v in row) for row in b)
            assert is_canonical(gf.mat_pow(b, 1, f), f)
            assert gf.mat_pow(b, 0, f) == gf.identity(n)


@pytest.mark.parametrize("ell, a", [(2, 4), (3, 2), (2, 8)])
def test_table_field_powers_match_the_identity_first_oracle(ell, a):
    f = gf.ext_field(ell, a)
    rng = random.Random(f"table-pow:{ell}:{a}")
    for n in (1, 2, 3):
        m = [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
        for e in range(2 * n + 1):
            power = gf.mat_pow(m, e, f)
            assert power == identity_first_pow(m, e, f) and is_canonical(power, f)


def per_entry_rref(rows, f):
    """Row reduction with one field add and one field multiplication per
    entry, on every field: the oracle for the prime-field path."""
    work, pivots, r = [list(row) for row in rows], [], 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = f.inv(work[r][c])
        work[r] = [f.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                g = f.neg(work[i][c])
                work[i] = [f.add(x, f.mul(g, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


@pytest.mark.parametrize("ell, a", [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 4), (3, 2)])
def test_rref_rank_kernel_and_inverse_match_the_per_entry_oracle(ell, a):
    f = gf.ext_field(ell, a)
    rng = random.Random(f"rref:{ell}:{a}")
    singular = invertible = 0
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        # sparse rows too, so that some matrices are rank deficient
        m = [
            [rng.choice((0, rng.randrange(f.order))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        reduced, pivots = per_entry_rref(m, f)
        assert gf.rref(m, f) == (reduced, pivots)
        assert gf.rank(m, f) == len(pivots)
        kernel = gf.kernel(m, ncols, f)
        free = [c for c in range(ncols) if c not in pivots]
        expected = [[int(c == j) for c in range(ncols)] for j in free]
        for v, j in zip(expected, free):
            for row, c in zip(reduced, pivots):
                v[c] = f.neg(row[j])
        assert kernel == [tuple(v) for v in expected]
        assert all(gf.mat_vec(m, v, f) == (0,) * nrows for v in kernel)
        square = [row[:nrows] for row in m] if ncols >= nrows else None
        if square is None:
            continue
        if len(per_entry_rref(square, f)[1]) < nrows:
            singular += 1
            with pytest.raises(ValidationError, match="singular"):
                gf.mat_inv(square, f)
        else:
            invertible += 1
            inverse = gf.mat_inv(square, f)
            assert gf.mat_mul(square, inverse, f) == gf.identity(nrows)
            augmented = [row + list(e) for row, e in zip(square, gf.identity(nrows))]
            assert inverse == tuple(tuple(row[nrows:]) for row in per_entry_rref(augmented, f)[0])
    assert singular and invertible


def all_powers_ranks(a, f, blocks=()):
    """`gf.power_ranks` before it stopped at the first zero power: all of
    a, ..., a^n multiplied out, and each one ranked."""
    powers = [a]
    for _ in range(len(a) - 1):
        powers.append(gf.mat_mul(powers[-1], a, f))
    block_ranks = tuple(
        tuple(gf.rank([[row[c] for c in idx] for row in p], f) for p in powers) for idx in blocks
    )
    return tuple(gf.rank(p, f) for p in powers), block_ranks


def conjugate(a, rng, f):
    """p a p^-1 for a random invertible p."""
    n = len(a)
    while True:
        p = [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
        if gf.rank(p, f) == n:
            return gf.mat_mul(gf.mat_mul(p, a, f), gf.mat_inv(p, f), f)


def column_blocks(n, rng):
    """The columns 0..n-1 dealt at random into groups, as `refine` groups residues."""
    labels = [rng.randrange(3) for _ in range(n)]
    return [[c for c in range(n) if labels[c] == b] for b in sorted(set(labels))]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_power_ranks_equal_the_all_powers_oracle(q):
    from mptypes.orbits import OrbitLabel, partitions_of

    f = gf.prime_field(q)
    rng = random.Random(f"power-ranks:{q}")
    seen_nonnilpotent = 0
    for n in range(1, 6):
        for lam in partitions_of(n):
            # the Jordan form of type lam, conjugated, with its type read back
            jordan = [[0] * n for _ in range(n)]
            start = 0
            for part in lam.parts:
                for k in range(start, start + part - 1):
                    jordan[k][k + 1] = 1
                start += part
            for a in [tuple(map(tuple, jordan))] + [conjugate(jordan, rng, f) for _ in range(3)]:
                blocks = column_blocks(n, rng)
                got = gf.power_ranks(a, f, blocks)
                assert got == all_powers_ranks(a, f, blocks), (q, lam.parts, a)
                assert OrbitLabel.from_ranks(n, got[0]) == lam
        for _ in range(8):
            a = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
            seen_nonnilpotent += not gf.is_nilpotent(a, f)
            blocks = column_blocks(n, rng)
            assert gf.power_ranks(a, f, blocks) == all_powers_ranks(a, f, blocks), (q, a)
    assert seen_nonnilpotent
