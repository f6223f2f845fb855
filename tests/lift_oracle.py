"""The Laurent-matrix route through graded pieces, kept as a test oracle.

`homogeneous_lift` builds a graded element's lift as an `LMatrix` of
Laurent monomials and `graded_image` reads a matrix back into a graded
piece.  The library reads the same exponents without building a matrix
(`graded.monomials`, `graded.regrade`); the tests compare the two routes.
"""

from fractions import Fraction as Q

from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from mptypes.errors import ValidationError
from mptypes.graded import GradedElement, support_of
from mptypes.laurent import Laurent, LMatrix


def homogeneous_lift(cfg: GroupConfig, phi: GradedElement) -> LMatrix:
    """Laurent-monomial matrix reducing to phi modulo the strict lattice.

    Only the support positions of phi's piece are read, so a coefficient
    off that support (which GradedElement.make refuses) is not lifted.
    """
    q, n = cfg.q, cfg.n
    coeffs = phi.as_dict()
    rows = [[Laurent.zero(q)] * n for _ in range(n)]
    for (i, j), w in support_of(cfg, phi).entries:
        rows[i][j] = Laurent.monomial(q, w, coeffs.get((i, j), 0))
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
            if e.is_zero():
                continue
            if e.val() < shape.bounds[i][j]:
                raise ValidationError(
                    f"matrix entry ({i},{j}) has valuation {e.val()} below the "
                    f"lattice bound {shape.bounds[i][j]}",
                    where="graded.graded_image",
                )
            w = sup.exponent(i, j)
            if w is not None:
                c = e.coeff(w)
                if c:
                    coeffs[(i, j)] = c
    return GradedElement.make(cfg, x, degree, coeffs)
