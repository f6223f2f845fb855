"""Exact Laurent arithmetic, ranks and characteristic polynomials."""

import random
from itertools import combinations

import pytest

from mptypes.errors import InternalFault, ValidationError
from mptypes.laurent import LMatrix, ser_add, ser_divexact, ser_mul, ser_neg, ser_trunc

from lift_oracle import commutator, identity_matrix, series, zero_matrix


def L(q, *terms):
    return series(q, {e: c for e, c in terms})


def test_laurent_ring_ops():
    q = 5
    a = L(q, (-1, 2), (0, 3))
    b = L(q, (-1, 3), (2, 1))
    assert ser_add(a, b, q) == L(q, (0, 3), (2, 1))  # 2+3 = 0 mod 5
    assert ser_add(a, ser_neg(a, q), q) == ()
    assert ser_mul(a, (), q) == ()
    prod = ser_mul(a, b, q)
    # (2t^-1 + 3)(3t^-1 + t^2) = 6t^-2 + 9t^-1 + 2t + 3t^2
    assert prod == L(q, (-2, 1), (-1, 4), (1, 2), (2, 3))
    assert ser_mul(a, L(q, (2, 1)), q) == L(q, (1, 2), (2, 3))  # times t^2


def test_divexact_including_laurent_shifts():
    q = 5
    a = L(q, (0, 1), (1, 2))  # 1 + 2t
    b = L(q, (2, 3))  # 3t^2
    prod = ser_mul(a, b, q)
    assert ser_divexact(prod, b, q) == a
    assert ser_divexact(prod, a, q) == b
    # quotient with negative exponents
    c = L(q, (-3, 2))
    assert ser_divexact(ser_mul(a, c, q), a, q) == c


def mat(q, entries):
    return LMatrix.from_rows(q, [[L(q, *e) for e in row] for row in entries])


def test_charpoly_and_nilpotency():
    q = 5
    # t^-1 e_12 is nilpotent
    m = mat(q, [[(), ((-1, 1),)], [(), ()]])
    assert m.is_nilpotent()
    # e_11 pattern at level 1: char poly X^2 - t^-1 X
    m2 = mat(q, [[((-1, 1),), ()], [(), ()]])
    w = m2.nilpotency_witness()
    assert w is not None
    k, coeff = w
    assert k == 1 and coeff == L(q, (-1, 4))  # -t^-1 = 4t^-1


def test_charpoly_off_diagonal_product():
    q = 5
    # [[0, b t^-1], [c, 0]] has char poly X^2 - bc t^-1
    for b in range(5):
        for c in range(5):
            m = mat(q, [[(), ((-1, b),) if b else ()], [((0, c),) if c else (), ()]])
            assert m.is_nilpotent() == (b * c % q == 0)


def test_rank_over_function_field():
    q = 5
    m = mat(q, [[((0, 1),), ((1, 1),)], [((2, 1),), ((3, 1),)]])
    # rows are (1, t), (t^2, t^3) = t^2 (1, t): rank 1
    assert m.rank() == 1
    m2 = mat(q, [[((0, 1),), ((1, 1),)], [((2, 1),), ((4, 1),)]])
    assert m2.rank() == 2
    assert zero_matrix(q, 3).rank() == 0
    assert identity_matrix(q, 3).rank() == 3


def test_rank_with_cancellation():
    q = 5
    # (1+t, 1), (1, 1): det = t: rank 2
    m = mat(q, [[((0, 1), (1, 1)), ((0, 1),)], [((0, 1),), ((0, 1),)]])
    assert m.rank() == 2
    # (1+t, 1+t), (2, 2): rank 1
    m2 = mat(q, [[((0, 1), (1, 1)), ((0, 1), (1, 1))], [((0, 2),), ((0, 2),)]])
    assert m2.rank() == 1


def test_regular_nilpotent_rank_profile():
    q = 5
    m = mat(q, [[(), ((-1, 1),), ()], [(), (), ((-1, 1),)], [(), (), ()]])
    assert m.is_nilpotent()
    assert m.rank() == 2
    assert (m @ m).rank() == 1
    assert (m @ m @ m).rank() == 0


def test_commutator():
    q = 7
    a = mat(q, [[(), ((0, 1),)], [(), ()]])
    b = mat(q, [[(), ()], [((0, 1),), ()]])
    h = commutator(a, b)
    assert h.entry(0, 0) == L(q, (0, 1))
    assert h.entry(1, 1) == L(q, (0, 6))


# -- reference implementations ------------------------------------------


def dict_add(q, a, b):
    d = dict(a)
    for e, c in b:
        d[e] = d.get(e, 0) + c
    return series(q, d)


def dict_mul(q, a, b):
    d = {}
    for e1, c1 in a:
        for e2, c2 in b:
            d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return series(q, d)


def cofactor_det(rows, cols, q):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return ((0, 1),)
    acc = ()
    for pos, c in enumerate(cols):
        minor = cofactor_det(rows[1:], cols[:pos] + cols[pos + 1 :], q)
        term = ser_mul(rows[0][c], minor, q)
        acc = ser_add(acc, term if pos % 2 == 0 else ser_neg(term, q), q)
    return acc


def minor_sum_charpoly(m):
    """c_k = (-1)^k * (sum of the principal k x k minors)."""
    n, q = m.nrows, m.q
    coeffs = [((0, 1),)]
    for k in range(1, n + 1):
        acc = ()
        for sub in combinations(range(n), k):
            rows = [[m.entry(i, j) for j in sub] for i in sub]
            acc = ser_add(acc, cofactor_det(rows, tuple(range(k)), q), q)
        coeffs.append(acc if k % 2 == 0 else ser_neg(acc, q))
    return coeffs


def minor_rank(m):
    """The largest k with a nonzero k x k minor."""
    for k in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(m.rows, k):
            if any(cofactor_det(rows, cols, m.q) for cols in combinations(range(m.ncols), k)):
                return k
    return 0


def rand_laurent(rng, q, terms=3):
    return series(
        q, {rng.randrange(-2, 3): rng.randrange(q) for _ in range(rng.randrange(terms + 1))}
    )


def rand_rows(rng, q, n, m, density):
    return [[rand_laurent(rng, q) if rng.random() < density else () for _ in range(m)] for _ in range(n)]


def rand_matrix(rng, q, n, density):
    return LMatrix.from_rows(q, rand_rows(rng, q, n, n, density))


# -- kernels and Berkowitz against the references -------------------------


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_series_kernels_match_dict_reference(q):
    rng = random.Random(f"kernels:{q}")
    for _ in range(300):
        a, b = rand_laurent(rng, q, 5), rand_laurent(rng, q, 5)
        assert ser_add(a, b, q) == dict_add(q, a, b)
        assert ser_add(a, ser_neg(b, q), q) == dict_add(q, a, dict_mul(q, ((0, q - 1),), b))
        assert ser_mul(a, b, q) == dict_mul(q, a, b)
        for below in range(-5, 6):
            assert ser_mul(a, b, q, below) == ser_trunc(ser_mul(a, b, q), below)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_divexact_undoes_the_dict_product(q):
    # (a*b)/b = a with the product taken by the dict reference, exponents
    # from -2 to 2 on both sides; adding t^7 to the product leaves a
    # remainder whenever b is not a monomial (a unit of F_q[t, 1/t])
    rng = random.Random(f"divexact:{q}")
    inexact = 0
    for _ in range(300):
        a, b = rand_laurent(rng, q, 5), rand_laurent(rng, q, 5)
        if not b:
            with pytest.raises(ZeroDivisionError):
                ser_divexact(a, b, q)
            continue
        prod = dict_mul(q, a, b)
        assert ser_divexact(prod, b, q) == a
        if len(b) > 1:
            inexact += 1
            with pytest.raises(InternalFault):
                ser_divexact(dict_add(q, prod, ((7, 1),)), b, q)
    assert inexact >= 50
    with pytest.raises(InternalFault):
        ser_divexact(L(q, (0, 1)), L(q, (0, 1), (1, 1)), q)  # 1 / (1 + t)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_rank_matches_the_largest_nonzero_minor(q):
    # up to 4 x 5, with a row replaced by t^k times another row or by the
    # sum of two others in two trials out of three
    rng = random.Random(f"rank:{q}")
    deficient = 0
    for trial in range(90):
        n, m = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = rand_rows(rng, q, n, m, (0.4, 0.7, 1.0)[trial % 3])
        if trial % 3 == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            shift = ((rng.randrange(-2, 3), 1),)
            rows[i] = [ser_mul(shift, e, q) for e in rows[j]]
        elif trial % 3 == 2 and n >= 3:
            i, j, k = rng.sample(range(n), 3)
            rows[i] = [ser_add(a, b, q) for a, b in zip(rows[j], rows[k])]
        mat = LMatrix.from_rows(q, rows)
        expected = minor_rank(mat)
        assert mat.rank() == expected, rows
        deficient += expected < min(n, m)
    assert deficient >= 20, deficient


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_berkowitz_matches_minor_sum(n, q):
    rng = random.Random(f"berkowitz:{n}:{q}")
    for trial in range({1: 40, 2: 40, 3: 30, 4: 15, 5: 6, 6: 3, 7: 2}[n]):
        m = rand_matrix(rng, q, n, density=(0.3, 0.6, 1.0)[trial % 3])
        assert m.charpoly() == minor_sum_charpoly(m)


def test_charpoly_of_strictly_triangular_7x7_is_nilpotent():
    q = 3
    rng = random.Random(7)
    rows = [[rand_laurent(rng, q) if j > i else () for j in range(7)] for i in range(7)]
    m = LMatrix.from_rows(q, rows)
    assert m.charpoly() == [((0, 1),)] + [()] * 7
    assert m.is_nilpotent()


def test_charpoly_rejects_non_square():
    q = 5
    with pytest.raises(ValidationError):
        zero_matrix(q, 2, 3).charpoly()


def charpoly_witness(m):
    cp = m.charpoly()
    return next(((k, cp[k]) for k in range(1, m.nrows + 1) if cp[k]), None)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_nilpotency_witness_matches_charpoly(q):
    # the trace shortcut against the first nonzero charpoly coefficient, on
    # matrices as drawn, with the trace cancelled, and nilpotent ones
    # (strictly upper triangular under a random relabelling of the basis)
    rng = random.Random(f"witness:{q}")
    seen = {"trace": 0, "zero trace, not nilpotent": 0, "nilpotent": 0}
    for n in range(1, 6):
        for trial in range(18):
            rows = [list(r) for r in rand_matrix(rng, q, n, (0.3, 0.6, 1.0)[trial % 3]).rows]
            if trial % 3 == 1:
                rest = ()
                for i in range(n - 1):
                    rest = ser_add(rest, rows[i][i], q)
                rows[n - 1][n - 1] = ser_neg(rest, q)
            elif trial % 3 == 2:
                perm = rng.sample(range(n), n)
                rows = [
                    [rows[i][j] if perm[j] > perm[i] else () for j in range(n)]
                    for i in range(n)
                ]
            m = LMatrix.from_rows(q, rows)
            w = m.nilpotency_witness()
            assert w == charpoly_witness(m)
            assert m.is_nilpotent() == (w is None)
            seen["nilpotent" if w is None else "trace" if w[0] == 1 else "zero trace, not nilpotent"] += 1
    assert min(seen.values()) >= 5, seen
    # [[0, 1], [1, 0]]: trace 0, determinant -1
    swap = mat(q, [[(), ((0, 1),)], [((0, 1),), ()]])
    assert swap.nilpotency_witness() == (2, L(q, (0, q - 1)))
    with pytest.raises(ValidationError):
        zero_matrix(q, 2, 3).nilpotency_witness()
