"""The finite-field layer: table arithmetic and the shared linear algebra."""

import random

import pytest

from mptypes import gf
from mptypes.errors import ValidationError


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
    for k in range(3):
        e = f.from_int(k)
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
    code = lambda t: gf._code(t, f.ell)
    mul = lambda x, y: code(gf._poly_mul_mod(digits(x), digits(y), f.modulus, f.ell))
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
            assert f.add(f.sub(x, y), y) == x
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
            expected = gf._poly_pow(gf._digits(x if e >= 0 else f.inv(x), 2, 8), abs(e), f.modulus, 2)
            assert f.pow(x, e) == gf._code(expected, 2)


def test_tables_start_from_the_first_primitive_element():
    for ell, a in [(2, 4), (3, 4), (2, 8), (3, 2)]:
        f = gf.ExtField(ell, a)
        m = f.order - 1
        primes = [p for p in range(2, m + 1) if m % p == 0 and gf.is_prime(p)]
        one = gf._digits(1, ell, a)
        first = next(
            g
            for g in range(1, f.order)
            if all(gf._poly_pow(gf._digits(g, ell, a), m // p, f.modulus, ell) != one for p in primes)
        )
        assert f.multiplicative_generator() == first == f._exp[1]


def test_prime_field_is_plain_modular_arithmetic():
    q = 7
    f = gf.prime_field(q)
    assert f is gf.prime_field(q) and f.order == q and (f.zero, f.one) == (0, 1)
    for x in range(q):
        for y in range(q):
            assert f.mul(x, y) == x * y % q
            assert f.add(x, y) == (x + y) % q
            assert f.sub(x, y) == (x - y) % q
        if x:
            assert f.mul(x, f.inv(x)) == 1
            assert f.pow(x, -2) == pow(x * x, q - 2, q)
