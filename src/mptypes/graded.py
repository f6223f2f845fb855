"""Elements of graded pieces g_{x=d} over F_q and their lifts.

A graded element is a coefficient assignment on the monomial support of
its piece; its homogeneous lift is the Laurent-monomial matrix with
those coefficients.  Degeneracy is DECIDED here by nilpotence of the
homogeneous lift (characteristic polynomial equal to X^n over F_q(t)).
For type A this agrees with the coset containing a nilpotent element;
that equivalence is a documented design assumption, cross-checked by an
exhaustive small-case oracle in the test suite rather than proved in
code.

Conjugation bookkeeping runs on coefficient matrices: a block element C
of the reductive quotient at x acts on a graded element with
coefficient matrix A as C A C^{-1}, because the t-power twists cancel.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from . import gf
from .apartment import (
    ApartmentPoint,
    GradedSupport,
    GroupConfig,
    graded_support,
    inclusion_chain_ok,
    mp_lattice,
    residue_classes,
)
from .errors import InfeasibleError, InternalFault, ValidationError
from .laurent import Laurent, LMatrix

Q = Fraction

__all__ = [
    "GradedElement",
    "HomLift",
    "ReductiveQuotient",
    "UnipotentImage",
    "is_degenerate",
    "homogeneous_lift",
    "coefficient_matrix",
    "graded_image",
    "rank_profile",
    "unipotent_image",
    "unipotent_orbit_count",
    "graded_jordan_chains",
    "align_conjugator",
    "enumerate_graded_elements",
]


@dataclass(frozen=True)
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
        coeffs: Dict[Tuple[int, int], int] | Sequence[Tuple[int, int, int]],
    ) -> "GradedElement":
        degree = Q(degree)
        if not isinstance(coeffs, dict):
            coeffs = {(i, j): c for i, j, c in coeffs}
        sup = graded_support(cfg, x, degree, _checked=True)
        allowed = set(sup.positions)
        cleaned = {}
        for pos, c in coeffs.items():
            c %= cfg.q
            if c == 0:
                continue
            if pos not in allowed:
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

    def coeff(self, i: int, j: int) -> int:
        for (a, b), c in self.coeffs:
            if (a, b) == (i, j):
                return c
        return 0

    def as_dict(self) -> Dict[Tuple[int, int], int]:
        return dict(self.coeffs)


@dataclass(frozen=True)
class HomLift:
    """Homogeneous Laurent-monomial lift of a graded element."""

    x: ApartmentPoint
    degree: Q
    mat: LMatrix


def support_of(cfg: GroupConfig, phi: GradedElement) -> GradedSupport:
    return graded_support(cfg, phi.x, phi.degree, _checked=True)


def homogeneous_lift(cfg: GroupConfig, phi: GradedElement) -> HomLift:
    """Laurent-monomial matrix reducing to phi modulo the strict lattice."""
    sup = support_of(cfg, phi)
    n = cfg.n
    rows = [[Laurent.zero(cfg.q) for _ in range(n)] for _ in range(n)]
    for (i, j), c in phi.coeffs:
        w = sup.exponent(i, j)
        rows[i][j] = Laurent.monomial(cfg.q, w, c)
    return HomLift(x=phi.x, degree=phi.degree, mat=LMatrix.from_rows(cfg.q, rows))


def coefficient_matrix(cfg: GroupConfig, phi: GradedElement) -> gf.Mat:
    n = cfg.n
    m = [[0] * n for _ in range(n)]
    for (i, j), c in phi.coeffs:
        m[i][j] = c
    return tuple(tuple(r) for r in m)


def element_from_matrix(
    cfg: GroupConfig, x: ApartmentPoint, degree: Q, mat: Sequence[Sequence[int]]
) -> GradedElement:
    coeffs = {
        (i, j): mat[i][j] % cfg.q
        for i in range(cfg.n)
        for j in range(cfg.n)
        if mat[i][j] % cfg.q
    }
    return GradedElement.make(cfg, x, degree, coeffs)


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


def is_degenerate(cfg: GroupConfig, phi: GradedElement) -> bool:
    """Whether the coset phi + g_{x>degree} contains a nilpotent element.

    Decided by nilpotence of the homogeneous lift (char poly X^n over
    F_q(t)); only pieces of negative degree carry types.
    """
    if phi.degree >= 0:
        raise ValidationError(
            f"degeneracy is defined on pieces of negative degree, got {phi.degree}",
            where="graded.is_degenerate",
        )
    return homogeneous_lift(cfg, phi).mat.is_nilpotent()


def rank_profile(cfg: GroupConfig, phi: GradedElement):
    """Conjugation invariant separating reductive-quotient orbits.

    Returns the ranks over F_q(t) of the lift's powers together with
    the graded ranks of each power restricted to the homogeneous
    component of every residue class.  For degenerate elements of one
    graded piece, profile equality is equivalent to conjugacy under the
    block reductive quotient (cyclic-quiver rank classification; design
    assumption cross-checked by orbit search at tiny sizes).
    """
    lift = homogeneous_lift(cfg, phi).mat
    n = cfg.n
    powers = []
    p = lift
    for _ in range(n):
        powers.append(p)
        p = p @ lift
    global_ranks = tuple(pk.rank() for pk in powers)
    classes = residue_classes(phi.x)
    block_ranks = []
    for res, idx in classes:
        per_power = tuple(
            pk.submatrix(range(n), idx).rank() for pk in powers
        )
        block_ranks.append((res, per_power))
    return global_ranks, tuple(block_ranks)


# ---------------------------------------------------------------------------
# reductive quotient and unipotent images
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductiveQuotient:
    """Block rigidity of G_{x=0}: invertible matrices preserving classes."""

    x: ApartmentPoint
    blocks: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def at(x: ApartmentPoint) -> "ReductiveQuotient":
        return ReductiveQuotient(x=x, blocks=tuple(idx for _, idx in residue_classes(x)))

    def class_of(self, i: int) -> int:
        for k, blk in enumerate(self.blocks):
            if i in blk:
                return k
        raise ValidationError(f"index {i} out of range", where="graded.ReductiveQuotient")

    def is_member(self, cfg: GroupConfig, mat: Sequence[Sequence[int]]) -> bool:
        mat = [[v % cfg.q for v in row] for row in mat]
        n = len(mat)
        for i in range(n):
            for j in range(n):
                if mat[i][j] and self.class_of(i) != self.class_of(j):
                    return False
        try:
            gf.mat_inv(mat, gf.prime_field(cfg.q))
        except ValidationError:
            return False
        return True

    def random_element(self, cfg: GroupConfig, rng: random.Random) -> gf.Mat:
        n = self.x.n
        while True:
            m = [[0] * n for _ in range(n)]
            for blk in self.blocks:
                for i in blk:
                    for j in blk:
                        m[i][j] = rng.randrange(cfg.q)
            try:
                gf.mat_inv(m, gf.prime_field(cfg.q))
            except ValidationError:
                continue
            return tuple(tuple(r) for r in m)


def conjugate(cfg: GroupConfig, phi: GradedElement, c: Sequence[Sequence[int]]) -> GradedElement:
    """Adjoint action of a class-preserving coefficient matrix on phi."""
    c = tuple(tuple(v % cfg.q for v in row) for row in c)
    rq = ReductiveQuotient.at(phi.x)
    if not rq.is_member(cfg, c):
        raise ValidationError(
            "conjugator is not a member of the reductive quotient at x",
            where="graded.conjugate",
        )
    a = coefficient_matrix(cfg, phi)
    field = gf.prime_field(cfg.q)
    b = gf.mat_mul(gf.mat_mul(c, a, field), gf.mat_inv(c, field), field)
    return element_from_matrix(cfg, phi.x, phi.degree, b)


@dataclass(frozen=True)
class UnipotentImage:
    """im(G_{y>0} -> G_{x=0}), a pattern q-group of elementary directions.

    A direction is a position (i, j) whose unique exponent w = x_j - x_i
    is integral (so t^w e_ij has degree 0 at x) and satisfies
    w + y_i - y_j > 0 (so the one-parameter subgroup lies in G_{y>0}).
    """

    y: ApartmentPoint
    x: ApartmentPoint
    directions: Tuple[Tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.directions)


def unipotent_image(cfg: GroupConfig, y: ApartmentPoint, x: ApartmentPoint) -> UnipotentImage:
    n = cfg.n
    dirs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = x[j] - x[i]
            if w.denominator == 1 and w + y[i] - y[j] > 0:
                dirs.append((i, j))
    return UnipotentImage(y=y, x=x, directions=tuple(sorted(dirs)))


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


def unipotent_orbit_count(
    cfg: GroupConfig,
    y: ApartmentPoint,
    x: ApartmentPoint,
    phi: GradedElement,
    bound: int = 10**5,
) -> Tuple[int, FrozenSet[GradedElement]]:
    """Orbit size of phi under im(G_{y>0} -> G_{x=0}), with its members.

    Breadth-first closure whenever the orbit stays within `bound`;
    otherwise (for q > n only) the size is q^(dim U - dim stabilizer)
    with the stabilizer dimension solved at the graded Lie-algebra
    level.  Whenever both run they must agree.
    """
    if not inclusion_chain_ok(cfg, x, Q(0), y, Q(0)):
        raise ValidationError(
            "the pair (y, x) does not satisfy the level-zero inclusion chain",
            where="graded.unipotent_orbit_count",
        )
    u = unipotent_image(cfg, y, x)
    q = cfg.q
    a0 = [list(r) for r in coefficient_matrix(cfg, phi)]

    members: Set[Tuple[Tuple[int, ...], ...]] = set()
    start = tuple(tuple(r) for r in a0)
    frontier = [start]
    members.add(start)
    overflow = False
    while frontier:
        nxt = []
        for mat in frontier:
            m = [list(r) for r in mat]
            for (i, j) in u.directions:
                for c in range(1, q):
                    img = _apply_direction(cfg, m, i, j, c)
                    if img not in members:
                        members.add(img)
                        nxt.append(img)
        if len(members) > bound:
            overflow = True
            break
        frontier = nxt
    bfs_n = None if overflow else len(members)

    dim_n = None
    if cfg.q > cfg.n:
        amat = coefficient_matrix(cfg, phi)
        field = gf.prime_field(q)
        rows = []
        positions = support_of(cfg, phi).positions
        for (i, j) in u.directions:
            e = [[0] * cfg.n for _ in range(cfg.n)]
            e[i][j] = 1
            br = gf.mat_mul(e, amat, field)
            bl = gf.mat_mul(amat, e, field)
            rows.append(
                tuple((br[p][r] - bl[p][r]) % q for (p, r) in positions)
            )
        orbit_dim = gf.rank(rows, field)
        dim_n = q**orbit_dim

    if bfs_n is None and dim_n is None:
        raise InfeasibleError(
            f"instance too large: orbit exceeds {bound} and q <= n forbids the "
            "stabilizer-dimension path",
            where="graded.unipotent_orbit_count",
        )
    if bfs_n is not None and dim_n is not None and bfs_n != dim_n:
        raise InternalFault(
            f"BFS orbit size {bfs_n} disagrees with dimension count {dim_n}",
            where="graded.unipotent_orbit_count",
        )
    n_out = bfs_n if bfs_n is not None else dim_n
    member_elems: FrozenSet[GradedElement] = frozenset(
        element_from_matrix(cfg, phi.x, phi.degree, m) for m in members
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
    if not LMatrix.from_rows(
        q, [[Laurent.const(q, a[i][j]) for j in range(n)] for i in range(n)]
    ).is_nilpotent():
        raise ValidationError(
            "graded Jordan chains require a nilpotent coefficient matrix",
            where="graded.graded_jordan_chains",
        )
    classes = residue_classes(phi.x)
    class_index = {}
    for res, idx in classes:
        for i in idx:
            class_index[i] = res
    shift = phi.degree % 1

    powers = [gf.identity(n)]
    for _ in range(n + 1):
        powers.append(gf.mat_mul(powers[-1], a, field))

    depth = next(k for k in range(n + 1) if all(x == 0 for r in powers[k] for x in r))
    depth = max(depth, 1)

    # kernel bases per power per class
    kern: Dict[Tuple[int, Q], List[gf.Vec]] = {}
    for k in range(depth + 2):
        for res, idx in classes:
            kern[(k, res)] = [] if k == 0 else _class_subspace_kernel(cfg, powers[k], idx)

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


def align_conjugator(
    cfg: GroupConfig, phi_from: GradedElement, phi_to: GradedElement
) -> gf.Mat | None:
    """Reductive-quotient element g with g . phi_from = phi_to, or None.

    Exists iff the rank profiles agree; built by matching canonical
    graded Jordan chain bases, so no search is involved.
    """
    if (phi_from.x, phi_from.degree) != (phi_to.x, phi_to.degree):
        raise ValidationError("elements live in different graded pieces", where="graded.align_conjugator")
    if rank_profile(cfg, phi_from) != rank_profile(cfg, phi_to):
        return None
    ch_from = graded_jordan_chains(cfg, phi_from)
    ch_to = graded_jordan_chains(cfg, phi_to)
    cols_from = [v for ch in ch_from for v in ch]
    cols_to = [v for ch in ch_to for v in ch]
    n, field = cfg.n, gf.prime_field(cfg.q)
    p_from = tuple(tuple(cols_from[j][i] for j in range(n)) for i in range(n))
    p_to = tuple(tuple(cols_to[j][i] for j in range(n)) for i in range(n))
    g = gf.mat_mul(p_to, gf.mat_inv(p_from, field), field)
    if conjugate(cfg, phi_from, g) != phi_to:
        raise InternalFault(
            "chain-matching conjugator failed to align the elements",
            where="graded.align_conjugator",
        )
    return g


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
