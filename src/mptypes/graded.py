"""Elements of graded pieces g_{x=d} over F_q, read through their exponents.

A graded element is a coefficient assignment on the monomial support of
its piece: the coefficient c at (i, j) stands for the monomial
c t^w e_ij with w = d - x_i + x_j (`monomials`).  Its homogeneous lift,
the sum of those monomials, is t^d D A D^{-1} for the coefficient
matrix A and D = diag(t^(-x_i)), and is never built here: reading it in
another piece g_{x'=d'} (`regrade`) compares each exponent w with the
lattice bound at (x', d').  By that similarity the lift's powers have
the ranks and Jordan type of A over F_q, so degeneracy is DECIDED here
as A^n = 0.  The trace is only a screen before that test: a nilpotent A
has trace 0, so `refine` tags a member with a nonzero trace
non-degenerate at once, but trace 0 decides nothing.  For type A this
agrees with the coset containing a nilpotent element; that equivalence
is a documented design assumption, cross-checked by an exhaustive
small-case oracle in the test suite rather than proved in code.

The unipotent image acts on coefficient matrices: I + c E_ij in the
reductive quotient at x acts on a graded element with coefficient
matrix A as (I + c E_ij) A (I - c E_ij), because the t-power twists
cancel.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from . import gf
from .apartment import (
    ApartmentPoint,
    GroupConfig,
    _scale,
    graded_support,
    inclusion_chain_ok,
    residue_classes,
)
from .errors import InfeasibleError, InternalFault, ValidationError
from .record import record

Q = Fraction

__all__ = [
    "GradedElement",
    "check_negative_degree",
    "is_degenerate",
    "monomials",
    "coefficient_matrix",
    "regrade",
    "unipotent_image",
    "unipotent_orbit_count",
    "graded_jordan_chains",
    "enumerate_graded_elements",
]


@record
class GradedElement:
    """Element of g_{x=degree}; equality is coefficientwise."""

    x: ApartmentPoint
    degree: Q
    coeffs: Tuple[Tuple[Tuple[int, int], int], ...]  # ((i, j), c), sorted, c != 0

    @staticmethod
    def make(
        cfg: GroupConfig,
        x: ApartmentPoint,
        degree: Q | int | str,
        coeffs: Dict[Tuple[int, int], int],
    ) -> "GradedElement":
        degree = degree if type(degree) is Q else Q(degree)
        d, X, (D,) = _scale(x.coords, degree)
        cleaned = {}
        for pos, c in coeffs.items():
            c %= cfg.q
            if c == 0:
                continue
            i, j = pos  # `graded_support`'s rule, with no negative index to wrap
            if not (0 <= i < x.n and 0 <= j < x.n and (D - X[i] + X[j]) % d == 0):
                raise ValidationError(
                    f"position {pos} is not in the support of g_{{x={degree}}}",
                    where="graded.GradedElement",
                )
            cleaned[pos] = c
        return GradedElement(x=x, degree=degree, coeffs=tuple(sorted(cleaned.items())))

    @staticmethod
    def zero(x: ApartmentPoint, degree: Q | int | str) -> "GradedElement":
        return GradedElement(x=x, degree=Q(degree), coeffs=())

    def is_zero(self) -> bool:
        return not self.coeffs


def monomials(phi: GradedElement) -> List[Tuple[int, int, int, int]]:
    """(i, j, w, c) for each coefficient: phi's lift holds c t^w at (i, j).

    The exponent is w = degree - x_i + x_j, read on integers over the
    common denominator of x and the degree.
    """
    d, X, (D,) = _scale(phi.x.coords, phi.degree)
    return [(i, j, (D - X[i] + X[j]) // d, c) for (i, j), c in phi.coeffs]


def coefficient_matrix(cfg: GroupConfig, phi: GradedElement) -> gf.Mat:
    n = cfg.n
    m = [[0] * n for _ in range(n)]
    for (i, j), c in phi.coeffs:
        m[i][j] = c
    return tuple(tuple(r) for r in m)


def element_from_matrix(x: ApartmentPoint, degree: Q, mat: gf.Mat) -> GradedElement:
    """The nonzero entries of a reduced matrix, in row-major order, as an
    element of g_{x=degree}, unchecked: each caller builds the matrix on
    that piece's support (`unipotent_orbit_count`), or
    checks it afterwards (`orbits.sl2_complete`)."""
    return GradedElement(
        x=x,
        degree=degree,
        coeffs=tuple(((i, j), c) for i, row in enumerate(mat) for j, c in enumerate(row) if c),
    )


def regrade(
    cfg: GroupConfig, phi: GradedElement, x: ApartmentPoint, degree: Q | int | str
) -> GradedElement | None:
    """Image in g_{x=degree} of phi's lift, or None if it leaves g_{x>=degree}.

    The monomial c t^w e_ij has degree w + x_i - x_j at x: below `degree`
    it lies outside g_{x>=degree}, at `degree` it keeps its coefficient,
    and above it lies in g_{x>degree} and drops out of the image.
    """
    degree = Q(degree)
    d, X, (D,) = _scale(x.coords, degree)
    coeffs = []
    for i, j, w, c in monomials(phi):
        above = w * d + X[i] - X[j] - D  # d times the monomial's degree above `degree`
        if above < 0:
            return None
        if not above:
            coeffs.append(((i, j), c))
    return GradedElement(x=x, degree=degree, coeffs=tuple(coeffs))


def is_degenerate(cfg: GroupConfig, phi: GradedElement) -> bool:
    """Whether the coset phi + g_{x>degree} contains a nilpotent element.

    Decided by A^n = 0 for the coefficient matrix A, which phi's lift is
    similar to up to a t-power.
    """
    check_negative_degree(phi)
    return gf.is_nilpotent(coefficient_matrix(cfg, phi), gf.prime_field(cfg.q))


def check_negative_degree(phi: GradedElement) -> None:
    """Refuse a piece of degree >= 0: only pieces of negative degree carry types."""
    if phi.degree >= 0:
        raise ValidationError(
            f"degeneracy is defined on pieces of negative degree, got {phi.degree}",
            where="graded.is_degenerate",
        )


# ---------------------------------------------------------------------------
# reductive quotient and unipotent images
# ---------------------------------------------------------------------------


def unipotent_image(
    cfg: GroupConfig, y: ApartmentPoint, x: ApartmentPoint
) -> Tuple[Tuple[int, int], ...]:
    """The sorted directions of im(G_{y>0} -> G_{x=0}), a pattern q-group.

    A direction is a position (i, j) whose unique exponent w = x_j - x_i
    is integral (so t^w e_ij has degree 0 at x) and satisfies
    w + y_i - y_j > 0 (so the one-parameter subgroup lies in G_{y>0}).
    """
    n = cfg.n
    dirs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = x[j] - x[i]
            if w.denominator == 1 and w + y[i] - y[j] > 0:
                dirs.append((i, j))
    return tuple(sorted(dirs))


def _apply_direction(
    cfg: GroupConfig, a: List[List[int]], i: int, j: int, c: int
) -> Tuple[Tuple[int, ...], ...]:
    """Conjugate coefficient matrix a by I + c E_ij (i != j)."""
    q = cfg.q
    n = len(a)
    # (I + cE_ij) a (I - cE_ij)
    b = [row[:] for row in a]
    for k in range(n):
        b[i][k] = (b[i][k] + c * a[j][k]) % q
    for k in range(n):
        bki = b[k][i]
        b[k][j] = (b[k][j] - c * bki) % q
    return tuple(tuple(r) for r in b)


# the largest orbit that `unipotent_orbit_count` closes breadth-first
_ORBIT_BOUND = 10**5


def unipotent_orbit_count(
    cfg: GroupConfig,
    y: ApartmentPoint,
    x: ApartmentPoint,
    phi: GradedElement,
) -> Tuple[int, FrozenSet[GradedElement]]:
    """Orbit size of phi under im(G_{y>0} -> G_{x=0}), with its members.

    Breadth-first closure whenever the orbit stays within `_ORBIT_BOUND`;
    otherwise (for q > n only) the size is q^(dim U - dim stabilizer)
    with the stabilizer dimension solved at the graded Lie-algebra
    level.  Whenever both run they must agree.
    """
    if not inclusion_chain_ok(cfg, x, Q(0), y, Q(0)):
        raise ValidationError(
            "the pair (y, x) does not satisfy the level-zero inclusion chain",
            where="graded.unipotent_orbit_count",
        )
    directions = unipotent_image(cfg, y, x)
    q = cfg.q
    a = coefficient_matrix(cfg, phi)

    members: Set[gf.Mat] = {a}
    frontier = [a]
    while frontier and len(members) <= _ORBIT_BOUND:
        nxt = []
        for mat in frontier:
            m = [list(r) for r in mat]
            for (i, j) in directions:
                for c in range(1, q):
                    img = _apply_direction(cfg, m, i, j, c)
                    if img not in members:
                        members.add(img)
                        nxt.append(img)
        frontier = nxt
    bfs_n = len(members) if len(members) <= _ORBIT_BOUND else None

    dim_n = None
    if cfg.q > cfg.n:
        # [E_ij, A] is row j of A placed in row i, minus column i of A
        # placed in column j, read on the support of phi's piece
        positions = graded_support(cfg, phi.x, phi.degree, _checked=True).positions
        rows = [
            tuple(
                ((a[j][r] if p == i else 0) - (a[p][i] if r == j else 0)) % q
                for p, r in positions
            )
            for i, j in directions
        ]
        dim_n = q ** gf.rank(rows, gf.prime_field(q))

    if bfs_n is None and dim_n is None:
        raise InfeasibleError(
            f"instance too large: orbit exceeds {_ORBIT_BOUND} and q <= n forbids the "
            "stabilizer-dimension path",
            where="graded.unipotent_orbit_count",
        )
    if bfs_n is not None and dim_n is not None and bfs_n != dim_n:
        raise InternalFault(
            f"BFS orbit size {bfs_n} disagrees with dimension count {dim_n}",
            where="graded.unipotent_orbit_count",
        )
    n_out = bfs_n if bfs_n is not None else dim_n
    # a direction (i, j) has x_j - x_i integral, one class: members stay on phi's support
    member_elems: FrozenSet[GradedElement] = frozenset(
        element_from_matrix(phi.x, phi.degree, m) for m in members
    ) if bfs_n is not None else frozenset()
    return n_out, member_elems


# ---------------------------------------------------------------------------
# graded Jordan chains
# ---------------------------------------------------------------------------


def _class_subspace_kernel(
    cfg: GroupConfig, mat_pow: gf.Mat, idx: Sequence[int]
) -> List[gf.Vec]:
    """Kernel of mat_pow restricted to the coordinate subspace idx."""
    n = cfg.n
    rows = [tuple(mat_pow[r][c] for c in idx) for r in range(n)]
    ker_small = gf.kernel(rows, len(idx), gf.prime_field(cfg.q))
    out = []
    for v in ker_small:
        big = [0] * n
        for pos, c in zip(idx, v):
            big[pos] = c
        out.append(tuple(big))
    return out


def graded_jordan_chains(
    cfg: GroupConfig, phi: GradedElement
) -> List[List[gf.Vec]]:
    """Jordan chains of the coefficient matrix, one class per vector.

    The coefficient matrix shifts residue classes (it is homogeneous),
    so kernels of its powers split classwise and chain tops can be
    chosen inside single classes; each returned chain [v, Av, A^2 v,
    ...] then consists of homogeneous vectors.  Chains are ordered
    canonically (longest first, then by top class) so equal rank
    profiles yield identically-shaped chain lists.
    """
    a = coefficient_matrix(cfg, phi)
    n, q = cfg.n, cfg.q
    field = gf.prime_field(q)
    powers = [gf.identity(n)]
    while any(map(any, powers[-1])):
        # over a field, A is nilpotent exactly when A^n = 0
        if len(powers) > n:
            raise ValidationError(
                "graded Jordan chains require a nilpotent coefficient matrix",
                where="graded.graded_jordan_chains",
            )
        powers.append(gf.mat_mul(powers[-1], a, field))
    depth = len(powers) - 1  # the first k with A^k = 0
    classes = residue_classes(phi.x)
    class_index = {}
    for res, idx in classes:
        for i in idx:
            class_index[i] = res
    shift = phi.degree % 1

    # kernel bases per power per class; from A^depth = 0 on, the kernel is
    # the whole class, spanned by its unit vectors in idx order (which is
    # what gf.kernel returns for a zero matrix)
    kern: Dict[Tuple[int, Q], List[gf.Vec]] = {}
    for res, idx in classes:
        kern[(0, res)] = []
        for k in range(1, depth):
            kern[(k, res)] = _class_subspace_kernel(cfg, powers[k], idx)
        kern[(depth, res)] = kern[(depth + 1, res)] = [
            tuple(int(p == i) for p in range(n)) for i in idx
        ]

    chains: List[List[gf.Vec]] = []
    for length in range(depth, 0, -1):
        for res, idx in classes:
            t_space = kern[(length, res)]
            if not t_space:
                continue
            lower = list(kern[(length - 1, res)])
            # A maps class c to c + degree, so the preimage class of res
            # under one application of A is res - degree (mod 1)
            src_res = (res - shift) % 1
            pushed = []
            for v in kern.get((length + 1, src_res), []):
                img = gf.mat_vec(a, v, field)
                if any(img):
                    pushed.append(img)
            tops = gf.complement_basis(lower + pushed, t_space, field)
            for top in tops:
                chain = [top]
                for _ in range(length - 1):
                    chain.append(gf.mat_vec(a, chain[-1], field))
                chains.append(chain)

    total = sum(len(c) for c in chains)
    if total != n:
        raise InternalFault(
            f"graded chain basis has {total} vectors, expected {n}",
            where="graded.graded_jordan_chains",
        )
    chains.sort(key=lambda ch: (-len(ch), class_index[_support_class(ch[0])], ch[0]))
    return chains


def _support_class(v: gf.Vec) -> int:
    for i, c in enumerate(v):
        if c:
            return i
    raise InternalFault("zero vector in a Jordan chain", where="graded")


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------


def enumerate_graded_elements(
    cfg: GroupConfig, x: ApartmentPoint, degree: Q | int | str
) -> Iterator[GradedElement]:
    sup = graded_support(cfg, x, Q(degree))
    for combo in itertools.product(range(cfg.q), repeat=sup.dim):
        coeffs = {
            pos: c for pos, c in zip(sup.positions, combo) if c
        }
        yield GradedElement.make(cfg, x, Q(degree), coeffs)
