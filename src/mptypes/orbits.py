"""Nilpotent orbits of gl_n as partitions, lifts and triple completion.

The closure order on nilpotent orbits is implemented as dominance on
partitions (the standard identification for type A; no p-adic topology
is materialized).  Jordan types over F_q(t) come from fraction-free
rank computations, never from specializing t.

Triple convention
-----------------
sl2_complete returns (Phi, H, E) with Phi the given nilpotent lift.
With the standard commutator [a, b] = ab - ba the identities read

    [H, Phi] = 2 Phi,   [H, E] = -2 E,   [Phi, E] = H,

i.e. the filtration-raising Phi plays the role of the sl2 raising
element and E is its lowering partner of opposite homogeneous degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from . import gf
from .apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from .errors import InternalFault, ValidationError
from .graded import (
    GradedElement,
    HomLift,
    graded_image,
    graded_jordan_chains,
    homogeneous_lift,
    is_degenerate,
)
from .laurent import Laurent, LMatrix, commutator

Q = Fraction

__all__ = [
    "OrbitLabel",
    "SL2Triple",
    "partitions_of",
    "dominance_leq",
    "jordan_type",
    "debacker_lift",
    "sl2_complete",
    "minimality_probe",
]


@dataclass(frozen=True, order=True)
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
    def regular(n: int) -> "OrbitLabel":
        return OrbitLabel((n,))

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


@dataclass(frozen=True)
class SL2Triple:
    Phi: HomLift
    H: HomLift
    E: HomLift


def partitions_of(n: int) -> List[OrbitLabel]:
    """All partitions of n in ascending dominance-compatible order."""
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
    return labels


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
    n = mat.nrows
    ranks = [n]
    p = mat
    for _ in range(n):
        ranks.append(p.rank())
        p = p @ mat
    # number of blocks of size >= k is ranks[k-1] - ranks[k]
    mult = [ranks[k - 1] - ranks[k] for k in range(1, n + 1)]
    parts = []
    for size in range(n, 0, -1):
        parts.extend([size] * (mult[size - 1] - (mult[size] if size < n else 0)))
    return OrbitLabel.of(tuple(parts))


def debacker_lift(
    cfg: GroupConfig, s: Q | int | str, x: ApartmentPoint, phi: GradedElement
) -> OrbitLabel:
    """The unique smallest orbit meeting the coset of a degenerate phi.

    Realized as the Jordan type of the homogeneous lift; the lift both
    lies in the coset and minimizes the type among nilpotents there
    (probed empirically by minimality_probe, not re-proved).
    """
    s = Q(s)
    if phi.degree != -s:
        raise ValidationError(
            f"element has degree {phi.degree}, expected {-s}", where="orbits.debacker_lift"
        )
    if not is_degenerate(cfg, phi):
        raise ValidationError(
            "lift is defined only for degenerate elements", where="orbits.debacker_lift"
        )
    return jordan_type(homogeneous_lift(cfg, phi).mat)


def sl2_complete(cfg: GroupConfig, lift: HomLift) -> SL2Triple:
    """Complete a nilpotent homogeneous lift to a graded sl2 triple.

    Built from graded Jordan chains of the coefficient matrix: along a
    chain of length L the semisimple part has eigenvalues 1-L, 3-L,
    ..., L-1 and E carries the weights (k-1)(L-k+1).  H is homogeneous
    of degree 0 and E of the opposite degree; all three brackets are
    verified exactly and a failure is an internal fault.
    """
    if cfg.q <= 2 * cfg.n:
        raise ValidationError(
            f"triple completion refused for q = {cfg.q} <= 2n = {2 * cfg.n}",
            where="orbits.sl2_complete",
        )
    q, n = cfg.q, cfg.n
    phi = graded_image(cfg, lift.mat, lift.x, lift.degree)
    if homogeneous_lift(cfg, phi).mat != lift.mat:
        raise ValidationError(
            "input is not a homogeneous lift", where="orbits.sl2_complete"
        )
    if lift.mat.is_zero():
        zero = LMatrix.zero(q, n)
        return SL2Triple(
            Phi=lift,
            H=HomLift(x=lift.x, degree=Q(0), mat=zero),
            E=HomLift(x=lift.x, degree=-lift.degree, mat=zero),
        )
    if not lift.mat.is_nilpotent():
        raise ValidationError("lift is not nilpotent", where="orbits.sl2_complete")

    chains = graded_jordan_chains(cfg, phi)
    basis = [v for ch in chains for v in ch]
    p_cols = tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))
    field = gf.prime_field(q)
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

    s = -lift.degree
    h_lift = _hom_from_coefficients(cfg, lift.x, Q(0), h_mat)
    e_lift = _hom_from_coefficients(cfg, lift.x, s, e_mat)
    triple = SL2Triple(Phi=lift, H=h_lift, E=e_lift)
    _check_triple(cfg, triple)
    return triple


def _hom_from_coefficients(cfg, x: ApartmentPoint, degree: Q, coeffs) -> HomLift:
    sup = graded_support(cfg, x, degree, _checked=True)
    rows = [[Laurent.zero(cfg.q) for _ in range(cfg.n)] for _ in range(cfg.n)]
    for i in range(cfg.n):
        for j in range(cfg.n):
            c = coeffs[i][j] % cfg.q
            if not c:
                continue
            w = sup.exponent(i, j)
            if w is None:
                raise InternalFault(
                    f"coefficient at off-support position ({i},{j}) for degree {degree}",
                    where="orbits._hom_from_coefficients",
                )
            rows[i][j] = Laurent.monomial(cfg.q, w, c)
    return HomLift(x=x, degree=degree, mat=LMatrix.from_rows(cfg.q, rows))


def _check_triple(cfg: GroupConfig, triple: SL2Triple) -> None:
    h, e, f = triple.H.mat, triple.Phi.mat, triple.E.mat
    two_e = e + e
    two_f = f + f
    checks = (
        (commutator(h, e) - two_e, "[H, Phi] = 2 Phi"),
        (commutator(h, f) + two_f, "[H, E] = -2 E"),
        (commutator(e, f) - h, "[Phi, E] = H"),
    )
    for diff, label in checks:
        if not diff.is_zero():
            raise InternalFault(
                f"triple identity {label} fails", where="orbits.sl2_complete"
            )
    # homogeneity of H and E at the base point
    for lift_part, deg in ((triple.H, Q(0)), (triple.E, -triple.Phi.degree)):
        sup = graded_support(cfg, lift_part.x, deg, _checked=True)
        for i in range(cfg.n):
            for j in range(cfg.n):
                entry = lift_part.mat.entry(i, j)
                if entry.is_zero():
                    continue
                if not entry.is_monomial() or sup.exponent(i, j) != entry.val():
                    raise InternalFault(
                        f"triple member not homogeneous of degree {deg} at ({i},{j})",
                        where="orbits.sl2_complete",
                    )


def random_coset_element(
    cfg: GroupConfig,
    s: Q,
    x: ApartmentPoint,
    phi: GradedElement,
    depth: int,
    rng: random.Random,
) -> LMatrix:
    """Random element of phi + g_{x>-s} with entries truncated at t^depth."""
    strict = mp_lattice(cfg, x, -s, strict=True, _checked=True)
    lift = homogeneous_lift(cfg, phi).mat
    rows = []
    for i in range(cfg.n):
        row = []
        for j in range(cfg.n):
            entry = lift.entry(i, j)
            d = {}
            for w in range(strict.bounds[i][j], depth + 1):
                c = rng.randrange(cfg.q)
                if c:
                    d[w] = c
            row.append(entry + Laurent.from_dict(cfg.q, d))
        rows.append(row)
    return LMatrix.from_rows(cfg.q, rows)


def minimality_probe(
    cfg: GroupConfig,
    s: Q | int | str,
    x: ApartmentPoint,
    phi: GradedElement,
    samples: int = 200,
    depth: int = 3,
    seed: int = 0,
) -> bool:
    """Falsification run for lift minimality; True means no counterexample.

    Draws random truncated coset elements; every nilpotent among them
    must have Jordan type dominating the lift.  This is a randomized
    falsification harness, not a proof.
    """
    s = Q(s)
    lift_orbit = debacker_lift(cfg, s, x, phi)
    for k in range(samples):
        rng = random.Random(f"{seed}:{k}")
        sample = random_coset_element(cfg, s, x, phi, depth, rng)
        if sample.is_nilpotent():
            if not dominance_leq(lift_orbit, jordan_type(sample)):
                return False
    return True
