"""The finite-field construction `gf.ExtField` replaced, kept as a test oracle.

Before the one walk of multiplications by x (`gf._primitive_modulus`), a
field F_{l^a} was built in three passes on coefficient tuples (lowest
first) with general polynomial products:

- `smallest_irreducible` took the smallest-code monic irreducible f,
  decided by the Frobenius test `is_irreducible`;
- `antilog` scanned the codes g = 2, 3, ... for the first element of
  order l^a - 1 modulo f and listed its powers;
- `factor_scan_generator` found a prime field's generator by testing
  g^((l - 1) / r) != 1 for every prime r | l - 1.

`tables` rebuilds the modulus and the exp, log and Zech tables the way
`ExtField` did from those passes.
"""

from mptypes import gf


def code(coeffs, ell):
    return sum(c * ell**i for i, c in enumerate(coeffs))


def poly_mul_mod(a, b, modulus, ell):
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


def poly_pow(base, e, modulus, ell):
    deg = len(modulus) - 1
    result = tuple([1] + [0] * (deg - 1))
    b = base
    while e:
        if e & 1:
            result = poly_mul_mod(result, b, modulus, ell)
        b = poly_mul_mod(b, b, modulus, ell)
        e >>= 1
    return result


def prime_factors(m):
    return [r for r in range(2, m + 1) if m % r == 0 and gf.is_prime(r)]


def is_irreducible(modulus, ell):
    """f (monic, degree a >= 2) is irreducible iff x^(l^a) == x mod f and
    x^(l^(a/r)) != x for every prime r | a."""
    a = len(modulus) - 1
    x = tuple([0, 1] + [0] * (a - 2))

    def frob_pow(k):
        y = x
        for _ in range(k):
            y = poly_pow(y, ell, modulus, ell)
        return y

    return frob_pow(a) == x and all(frob_pow(a // r) != x for r in prime_factors(a))


def has_full_order(g, modulus, ell):
    """g^(l^a - 1) == 1 and g^((l^a - 1) / r) != 1 for every prime r | l^a - 1."""
    a = len(modulus) - 1
    m = ell**a - 1
    one = gf._digits(1, ell, a)
    return poly_pow(g, m, modulus, ell) == one and all(
        poly_pow(g, m // r, modulus, ell) != one for r in prime_factors(m)
    )


def smallest_irreducible(ell, a):
    """The smallest monic irreducible in lexicographic order on low coefficients."""
    return next(
        modulus
        for modulus in (gf._digits(c, ell, a) + (1,) for c in range(ell**a))
        if is_irreducible(modulus, ell)
    )


def antilog(ell, modulus):
    """Powers g^0 .. g^(l^a - 2) of the first element g >= 2 of order l^a - 1."""
    a = len(modulus) - 1
    for g in range(2, ell**a):
        gen = gf._digits(g, ell, a)
        powers = [1]
        y = gen
        while (c := code(y, ell)) != 1:
            powers.append(c)
            y = poly_mul_mod(y, gen, modulus, ell)
        if len(powers) == ell**a - 1:
            return powers
    raise AssertionError("no multiplicative generator found")


def tables(ell, a):
    """(modulus, exp, log, zech) as the three-pass construction built them."""
    modulus = smallest_irreducible(ell, a)
    powers = antilog(ell, modulus)
    log = [0] * ell**a
    for k, e in enumerate(powers):
        log[e] = k
    zech = [log[p] if (p := e - e % ell + (e + 1) % ell) else None for e in powers]
    return modulus, powers + powers, log, zech


def factor_scan_generator(ell):
    """The first g in F_l^* with g^((l - 1) / r) != 1 for every prime r | l - 1."""
    m = ell - 1
    return next(
        g for g in range(1, ell) if all(pow(g, m // r, ell) != 1 for r in prime_factors(m))
    )
