"""The Laurent-matrix route through graded pieces, kept as a test oracle.

`homogeneous_lift` builds a graded element's lift as an `LMatrix` of
Laurent monomials and `graded_image` reads a matrix back into a graded
piece.  The library reads the same exponents without building a matrix
(`graded.monomials`, `graded.regrade`); the tests compare the two routes.

The entrywise helpers below build and combine `LMatrix` objects of bare
`Series` entries with the `laurent` kernels, for the tests that need
sums, differences and commutators of Laurent matrices.

`support_exponent` reads the exponent w at one support position of a
graded piece, and `coeff` the coefficient of a graded element at one
position.

`two_pass_lift` is `orbits.debacker_lift` as it was before the lift read
degeneracy off the ranks of one pass of powers: A^n through
`is_degenerate`, then the ranks of A, ..., A^n through `power_ranks`.
"""

from fractions import Fraction as Q

from mptypes import gf
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from mptypes.errors import ValidationError
from mptypes.graded import GradedElement, coefficient_matrix, is_degenerate
from mptypes.laurent import LMatrix, Series, ser_add, ser_neg
from mptypes.orbits import OrbitLabel


def two_pass_lift(cfg: GroupConfig, s, phi: GradedElement) -> OrbitLabel:
    """The lift of a degenerate phi of degree -s, with degeneracy decided
    by its own pass over the powers of the coefficient matrix."""
    s = Q(s)
    if phi.degree != -s:
        raise ValidationError(
            f"element has degree {phi.degree}, expected {-s}", where="orbits.debacker_lift"
        )
    if not is_degenerate(cfg, phi):
        raise ValidationError(
            "lift is defined only for degenerate elements", where="orbits.debacker_lift"
        )
    ranks, _ = gf.power_ranks(coefficient_matrix(cfg, phi), gf.prime_field(cfg.q))
    return OrbitLabel.from_ranks(cfg.n, ranks)


def homogeneous_lift(cfg: GroupConfig, phi: GradedElement) -> LMatrix:
    """Laurent-monomial matrix reducing to phi modulo the strict lattice.

    Only the support positions of phi's piece are read, so a coefficient
    off that support (which GradedElement.make refuses) is not lifted.
    """
    q, n = cfg.q, cfg.n
    coeffs = dict(phi.coeffs)
    rows = [[()] * n for _ in range(n)]
    for (i, j), w in graded_support(cfg, phi.x, phi.degree, _checked=True).entries:
        rows[i][j] = monomial(q, w, coeffs.get((i, j), 0))
    return LMatrix.from_rows(q, rows)


def graded_image(
    cfg: GroupConfig, mat: LMatrix, x: ApartmentPoint, degree: Q | int | str
) -> GradedElement:
    """Image in g_{x=degree} of a matrix lying in g_{x>=degree}."""
    degree = Q(degree)
    shape = mp_lattice(cfg, x, degree, strict=False, _checked=True)
    sup = graded_support(cfg, x, degree, _checked=True)
    coeffs = {}
    for i in range(cfg.n):
        for j in range(cfg.n):
            e = mat.entry(i, j)
            if not e:
                continue
            if e[0][0] < shape.bounds[i][j]:
                raise ValidationError(
                    f"matrix entry ({i},{j}) has valuation {e[0][0]} below the "
                    f"lattice bound {shape.bounds[i][j]}",
                    where="graded.graded_image",
                )
            w = support_exponent(sup, i, j)
            if w is not None:
                c = dict(e).get(w, 0)
                if c:
                    coeffs[(i, j)] = c
    return GradedElement.make(cfg, x, degree, coeffs)


def support_exponent(sup, i: int, j: int):
    """The exponent w of the basis monomial t^w e_ij of a graded support,
    or None when (i, j) is not a support position."""
    for (a, b), w in sup.entries:
        if (a, b) == (i, j):
            return w
    return None


def coeff(el: GradedElement, i: int, j: int) -> int:
    """The coefficient of el at (i, j), 0 where it has none."""
    return dict(el.coeffs).get((i, j), 0)


# -- entrywise helpers on Laurent matrices ----------------------------------


def monomial(q: int, w: int, c: int) -> Series:
    """The series c t^w (empty when c = 0 mod q)."""
    c %= q
    return ((w, c),) if c else ()


def series(q: int, d) -> Series:
    """The series sum c t^e over an {exponent: coefficient} dict."""
    return tuple(sorted((e, c % q) for e, c in d.items() if c % q))


def zero_matrix(q: int, n: int, m: int | None = None) -> LMatrix:
    return LMatrix.from_rows(q, [[()] * (n if m is None else m) for _ in range(n)])


def identity_matrix(q: int, n: int) -> LMatrix:
    return LMatrix.from_rows(q, [[((0, 1),) if i == j else () for j in range(n)] for i in range(n)])


def mat_add(a: LMatrix, b: LMatrix) -> LMatrix:
    return LMatrix.from_rows(
        a.q, [[ser_add(x, y, a.q) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    )


def mat_sub(a: LMatrix, b: LMatrix) -> LMatrix:
    return mat_add(a, LMatrix.from_rows(b.q, [[ser_neg(y, b.q) for y in r] for r in b.rows]))


def commutator(a: LMatrix, b: LMatrix) -> LMatrix:
    """Standard commutator a b - b a."""
    return mat_sub(a @ b, b @ a)


def is_zero_matrix(a: LMatrix) -> bool:
    return not any(any(r) for r in a.rows)
