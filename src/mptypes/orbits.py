"""Nilpotent orbits of gl_n as partitions, lifts, the lift-minimality
certificate and triple completion.

The closure order on nilpotent orbits is implemented as dominance on
partitions (the standard identification for type A; no p-adic topology
is materialized).  Jordan types are read off ranks of powers: F_q ranks
of the coefficient matrix for a homogeneous lift, fraction-free ranks
over F_q(t) for any other matrix, never by specializing t.

Triple convention
-----------------
sl2_complete returns (Phi, H, E), three graded elements at Phi's point:
Phi the given nilpotent element of degree -s, H of degree 0 and E of
degree s.  With the standard commutator [a, b] = ab - ba their
homogeneous lifts satisfy

    [H, Phi] = 2 Phi,   [H, E] = -2 E,   [Phi, E] = H,

i.e. the filtration-raising Phi plays the role of the sl2 raising
element and E is its lowering partner of opposite homogeneous degree.

The identities are checked on F_q coefficient matrices.  A homogeneous
element of degree d at x has the monomial c_ij t^(d - x_i + x_j) at
(i, j).  In a product of homogeneous elements of degrees d1 and d2 the
(i, k) entry sums c_ij c'_jk t^((d1 - x_i + x_j) + (d2 - x_j + x_k)),
and that exponent, d1 + d2 - x_i + x_k, does not depend on j.  So the
product is homogeneous of degree d1 + d2 with coefficient matrix the
F_q product of the factors', and a bracket identity among the lifts of
H, Phi and E (degrees 0, -s and s) holds in LMatrix exactly when it
holds mod q for their coefficient matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, List, Tuple

from . import gf
from .apartment import GroupConfig, _scale, graded_support, mp_lattice
from .errors import InternalFault, ValidationError
from .graded import (
    GradedElement,
    check_negative_degree,
    coefficient_matrix,
    element_from_matrix,
    graded_jordan_chains,
    monomials,
)
from .laurent import LMatrix
from .record import record

if TYPE_CHECKING:
    from .refine import DMPPair

Q = Fraction

__all__ = [
    "OrbitLabel",
    "SL2Triple",
    "partitions_of",
    "dominance_leq",
    "closure_order",
    "jordan_type",
    "debacker_lift",
    "sl2_complete",
    "minimality_probe",
]


@record
class OrbitLabel:
    """A nilpotent orbit of gl_n named by its partition of n."""

    parts: Tuple[int, ...]

    @staticmethod
    def of(parts) -> "OrbitLabel":
        ps = tuple(int(p) for p in parts)
        if any(p <= 0 for p in ps) or list(ps) != sorted(ps, reverse=True):
            raise ValidationError(
                f"{ps} is not a weakly decreasing positive partition",
                where="orbits.OrbitLabel",
            )
        return OrbitLabel(ps)

    @staticmethod
    def zero(n: int) -> "OrbitLabel":
        return OrbitLabel(tuple([1] * n))

    @staticmethod
    def from_ranks(n: int, ranks) -> "OrbitLabel":
        """The type of a nilpotent n x n matrix X from rank X^k, k = 1..n.

        rank X^(k-1) - rank X^k counts the Jordan blocks of size >= k, so
        the blocks of size k number (r[k-1] - r[k]) - (r[k] - r[k+1]); a
        sequence giving some size a negative count, or parts that do not
        sum to n, is refused.
        """
        r = [n, *ranks, 0]
        counts = [(r[k - 1] - r[k]) - (r[k] - r[k + 1]) for k in range(1, len(r) - 1)]
        parts = [k for k in range(len(counts), 0, -1) for _ in range(counts[k - 1])]
        if len(ranks) != n or r[n] != 0 or any(c < 0 for c in counts) or sum(parts) != n:
            raise ValidationError(
                f"ranks {tuple(ranks)} are not those of a nilpotent {n} x {n} matrix",
                where="orbits.OrbitLabel",
            )
        return OrbitLabel.of(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def transpose(self) -> "OrbitLabel":
        if not self.parts:
            return self
        out = [sum(1 for p in self.parts if p > k) for k in range(self.parts[0])]
        return OrbitLabel(tuple(out))

    @property
    def dim(self) -> int:
        """Orbit dimension n^2 - sum of squared transpose parts."""
        return self.n**2 - sum(p * p for p in self.transpose().parts)

    def rank_at(self, k: int) -> int:
        """rank of the k-th power of any element of the orbit."""
        return sum(max(p - k, 0) for p in self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@record
class SL2Triple:
    Phi: GradedElement
    H: GradedElement
    E: GradedElement


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[OrbitLabel, ...]:
    """All partitions of n in ascending dominance-compatible order, built once per n."""
    out: List[Tuple[int, ...]] = []

    def rec(rest: int, maxp: int, acc: List[int]):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxp), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(n, n, [])
    labels = [OrbitLabel(p) for p in out]
    labels.sort(key=lambda o: _partial_sums(o.parts))
    return tuple(labels)


@lru_cache(maxsize=None)
def _partial_sums(parts: Tuple[int, ...]) -> Tuple[int, ...]:
    n = sum(parts)
    acc, out = 0, []
    for k in range(n):
        acc += parts[k] if k < len(parts) else 0
        out.append(acc)
    return tuple(out)


def dominance_leq(a: OrbitLabel, b: OrbitLabel) -> bool:
    """Closure order: partial sums of a never exceed those of b."""
    if a.n != b.n:
        raise ValidationError(
            f"partitions of different sizes {a.n} != {b.n}", where="orbits.dominance_leq"
        )
    return all(x <= y for x, y in zip(_partial_sums(a.parts), _partial_sums(b.parts)))


@lru_cache(maxsize=None)
def closure_order(n: int) -> Tuple[Tuple[bool, ...], ...]:
    """The closure order on `partitions_of(n)`, built once per n: entry
    (i, j) is dominance_leq of the i-th and j-th partitions."""
    orbits = partitions_of(n)
    return tuple(tuple(dominance_leq(a, b) for b in orbits) for a in orbits)


def jordan_type(mat: LMatrix) -> OrbitLabel:
    """Jordan type of a nilpotent matrix over F_q(t).

    Ranks of powers are taken by exact fraction-free elimination; a
    non-nilpotent input is rejected with the offending characteristic
    polynomial coefficient named.
    """
    witness = mat.nilpotency_witness()
    if witness is not None:
        k, coeff = witness
        raise ValidationError(
            f"matrix is not nilpotent: char-poly coefficient of X^{mat.nrows - k} "
            f"is {coeff}",
            where="orbits.jordan_type",
        )
    ranks = []
    p = mat
    for _ in range(mat.nrows):
        ranks.append(p.rank())
        p = p @ mat
    return OrbitLabel.from_ranks(mat.nrows, ranks)


def debacker_lift(cfg: GroupConfig, s: Q | int | str, phi: GradedElement) -> OrbitLabel:
    """The unique smallest orbit meeting the coset of a degenerate phi.

    Realized as the Jordan type of the homogeneous lift, which equals
    that of the coefficient matrix (the lift is similar to t^(-s) times
    it), so it is read off F_q ranks of that matrix's powers; the lift
    both lies in the coset and minimizes the type among nilpotents
    there (minimality_probe states the proof and checks its hypotheses).
    One pass over the powers A, ..., A^n gives their ranks, and phi is
    degenerate exactly when the last of them, rank A^n, is 0.
    """
    s = s if type(s) is Q else Q(s)
    if phi.degree != -s:
        raise ValidationError(
            f"element has degree {phi.degree}, expected {-s}", where="orbits.debacker_lift"
        )
    check_negative_degree(phi)
    ranks, _ = gf.power_ranks(coefficient_matrix(cfg, phi), gf.prime_field(cfg.q))
    if ranks[-1]:
        raise ValidationError(
            "lift is defined only for degenerate elements", where="orbits.debacker_lift"
        )
    return OrbitLabel.from_ranks(cfg.n, ranks)


def sl2_complete(cfg: GroupConfig, phi: GradedElement) -> SL2Triple:
    """Complete a nilpotent graded element to a graded sl2 triple.

    Built from graded Jordan chains of the coefficient matrix: along a
    chain of length L the semisimple part has eigenvalues 1-L, 3-L,
    ..., L-1 and E carries the weights (k-1)(L-k+1).  H is built at
    degree 0 and E at the opposite degree of phi, both at phi's point;
    a non-nilpotent phi is refused by graded_jordan_chains.  The returned
    triple is verified exactly (see _check_triple), and a failure is an
    internal fault.
    """
    if cfg.q <= 2 * cfg.n:
        raise ValidationError(
            f"triple completion refused for q = {cfg.q} <= 2n = {2 * cfg.n}",
            where="orbits.sl2_complete",
        )
    q, n, x = cfg.q, cfg.n, phi.x
    if phi.is_zero():
        return SL2Triple(
            Phi=phi, H=GradedElement.zero(x, 0), E=GradedElement.zero(x, -phi.degree)
        )
    field = gf.prime_field(q)
    chains = graded_jordan_chains(cfg, phi)
    basis = [v for ch in chains for v in ch]
    p_cols = tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))
    p_inv = gf.mat_inv(p_cols, field)
    h_diag = [0] * n
    e_chain = [[0] * n for _ in range(n)]
    pos = 0
    for ch in chains:
        ell = len(ch)
        for k in range(1, ell + 1):
            h_diag[pos + k - 1] = (2 * k - ell - 1) % q
            if k >= 2:
                # E maps the k-th chain vector to (k-1)(L-k+1) times the previous
                e_chain[pos + k - 2][pos + k - 1] = (k - 1) * (ell - k + 1) % q
        pos += ell
    h_j = tuple(
        tuple(h_diag[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    h_mat = gf.mat_mul(gf.mat_mul(p_cols, h_j, field), p_inv, field)
    e_mat = gf.mat_mul(gf.mat_mul(p_cols, e_chain, field), p_inv, field)

    h, e = element_from_matrix(x, Q(0), h_mat), element_from_matrix(x, -phi.degree, e_mat)
    triple = SL2Triple(Phi=phi, H=h, E=e)
    _check_triple(cfg, triple)
    return triple


def _check_triple(cfg: GroupConfig, triple: SL2Triple) -> None:
    """Fault unless the triple is homogeneous at Phi's point and satisfies
    the three bracket identities.

    Each member must sit at Phi's point, Phi at its own degree, H at
    degree 0 and E at minus Phi's degree, with every coefficient on the
    support of its piece.  Then the members' lifts are homogeneous and
    the coefficient matrices of their products are the F_q products of
    the factors' (module docstring), so each identity holds over
    F_q((t)) exactly when it holds for the coefficient matrices mod q.
    The degrees matter: t H has H's coefficient matrix, and only its
    degree tells it apart.
    """
    q, x = cfg.q, triple.Phi.x
    mats = []
    for name, part, deg in (
        ("triple member Phi", triple.Phi, triple.Phi.degree),
        ("triple member H", triple.H, Q(0)),
        ("triple member E", triple.E, -triple.Phi.degree),
    ):
        if part.x != x or part.degree != deg:
            raise InternalFault(
                f"{name} is not homogeneous of degree {deg} at x = {x}: it has degree "
                f"{part.degree} at x = {part.x}",
                where="orbits.sl2_complete",
            )
        support = set(graded_support(cfg, x, deg, _checked=True).positions)
        off = [pos for pos, _ in part.coeffs if pos not in support]
        if off:
            raise InternalFault(
                f"{name} is not homogeneous of degree {deg}: coefficient at "
                f"({off[0][0]},{off[0][1]}) is off the support",
                where="orbits.sl2_complete",
            )
        mats.append(coefficient_matrix(cfg, part))
    f, h, e = mats
    field = gf.prime_field(q)
    for a, b, want, c, label in (
        (h, f, f, 2, "[H, Phi] = 2 Phi"),
        (h, e, e, -2, "[H, E] = -2 E"),
        (f, e, h, 1, "[Phi, E] = H"),
    ):
        ab, ba = gf.mat_mul(a, b, field), gf.mat_mul(b, a, field)
        if any(
            (u - v - c * w) % q
            for ra, rb, rw in zip(ab, ba, want)
            for u, v, w in zip(ra, rb, rw)
        ):
            raise InternalFault(
                f"triple identity {label} fails", where="orbits.sl2_complete"
            )


def minimality_probe(cfg: GroupConfig, pair: DMPPair) -> bool:
    """Certificate that the pair's lift is the smallest orbit meeting its
    coset phi + g_{x>-s}.

    True exactly when the hypotheses of the following argument hold for
    this instance, each checked on integers over the common denominator
    d of x and s (X = d x, S = d s):

    (H0) with A phi's coefficient matrix, the F_q ranks of A, ..., A^n
         are r_k = rank_at(k) of lambda = pair.lift, i.e. the lift is
         the type that debacker_lift reads off A;
    (H1) every monomial c t^w of phi's lift at (i, j) has
         d w = -S - X_i + X_j, i.e. the lift L sits exactly at degree -s;
    (H2) every strict bound b_ij at (x, -s) has d b_ij > -S - X_i + X_j,
         i.e. every entry of g_{x>-s} has degree above -s;
    (H3) a partition mu of n has rank_at(k) >= r_k for all k exactly
         when dominance_leq(lambda, mu).

    Proof.  Let D = diag(t^(x_i)) over F_q((t^(1/d))).  By (H1),
    D L D^-1 = t^(-s) A, and by (H2), for any Z in the coset
    t^s D Z D^-1 = A + R with every entry of R of positive valuation.
    So (A + R)^k = A^k + (positive valuation), and a nonzero minor of
    A^k of size rank A^k is the constant term of the same minor of
    (A + R)^k: rank Z^k >= rank A^k, which is r_k by (H0).  A nilpotent
    Z of type mu has rank Z^k = mu.rank_at(k).  Rank dominance is the
    closure order on nilpotent orbits (Gerstenhaber 1959), which (H3) checks
    against dominance_leq, so every nilpotent in the coset has type
    >= lambda; the lift lies in the coset and has type lambda, so lambda
    is the smallest orbit meeting it (DeBacker 2002).
    """
    x, lift = pair.x, pair.lift
    ranks = tuple(lift.rank_at(k) for k in range(1, cfg.n + 1))
    if gf.power_ranks(coefficient_matrix(cfg, pair.phi), gf.prime_field(cfg.q))[0] != ranks:
        return False  # (H0)
    d, X, (S,) = _scale(x.coords, pair.s)
    level = [[-S - xi + xj for xj in X] for xi in X]  # d times the degree -s exponent
    if any(d * w != level[i][j] for i, j, w, _ in monomials(pair.phi)):
        return False  # (H1)
    strict = mp_lattice(cfg, x, -pair.s, strict=True, _checked=True).bounds
    if any(d * b <= v for brow, vrow in zip(strict, level) for b, v in zip(brow, vrow)):
        return False  # (H2)
    return all(
        all(mu.rank_at(k) >= r for k, r in enumerate(ranks, 1)) == dominance_leq(lift, mu)
        for mu in partitions_of(cfg.n)
    )  # (H3)
