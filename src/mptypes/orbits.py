"""Nilpotent orbits of gl_n as partitions, lifts and triple completion.

The closure order on nilpotent orbits is implemented as dominance on
partitions (the standard identification for type A; no p-adic topology
is materialized).  Jordan types are read off ranks of powers: F_q ranks
of the coefficient matrix for a homogeneous lift, fraction-free ranks
over F_q(t) for any other matrix, never by specializing t.

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
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple

from . import gf
from .apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from .errors import InfeasibleError, InternalFault, ValidationError
from .graded import (
    GradedElement,
    HomLift,
    coefficient_matrix,
    graded_image,
    graded_jordan_chains,
    homogeneous_lift,
    is_degenerate,
)
from .laurent import Laurent, LMatrix, commutator, ser_add

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

    @staticmethod
    def from_ranks(n: int, ranks) -> "OrbitLabel":
        """The type of a nilpotent n x n matrix X from rank X^k, k = 1..n.

        rank X^(k-1) - rank X^k counts the Jordan blocks of size >= k.
        """
        r = [n, *ranks, 0]
        if len(ranks) != n or r[n] != 0:
            raise ValidationError(
                f"ranks {tuple(ranks)} are not those of a nilpotent {n} x {n} matrix",
                where="orbits.OrbitLabel",
            )
        parts = []
        for size in range(n, 0, -1):
            parts += [size] * ((r[size - 1] - r[size]) - (r[size] - r[size + 1]))
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
    ranks = []
    p = mat
    for _ in range(mat.nrows):
        ranks.append(p.rank())
        p = p @ mat
    return OrbitLabel.from_ranks(mat.nrows, ranks)


def debacker_lift(
    cfg: GroupConfig, s: Q | int | str, x: ApartmentPoint, phi: GradedElement
) -> OrbitLabel:
    """The unique smallest orbit meeting the coset of a degenerate phi.

    Realized as the Jordan type of the homogeneous lift, which equals
    that of the coefficient matrix (the lift is similar to t^(-s) times
    it), so it is read off F_q ranks of that matrix's powers; the lift
    both lies in the coset and minimizes the type among nilpotents
    there (probed empirically by minimality_probe, not re-proved).
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
    ranks, _ = gf.power_ranks(coefficient_matrix(cfg, phi), gf.prime_field(cfg.q))
    return OrbitLabel.from_ranks(cfg.n, ranks)


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
    field = gf.prime_field(q)
    if not gf.is_nilpotent(coefficient_matrix(cfg, phi), field):
        raise ValidationError("lift is not nilpotent", where="orbits.sl2_complete")

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


@lru_cache(maxsize=256)
def _byte_tables(q: int) -> Tuple[bytes, bytes]:
    """(table, reject) for bytes.translate: a word's top byte b gives the
    draw b >> (8 - k), k = q.bit_length(), and is deleted when that is >= q."""
    shift = 8 - q.bit_length()
    table = bytes(b >> shift for b in range(256))
    return table, bytes(b for b in range(256) if b >> shift >= q)


def _uniform_draws(rng: random.Random, q: int, count: int) -> Sequence[int]:
    """The first `count` values of rng.randrange(q), in order.

    For q < 256 each block is getrandbits(32 W): W words, word i in
    bytes 4i .. 4i + 3 little-endian, so buf[3::4] holds every word's
    top byte, and one translate maps the accepted bytes to their draws
    and deletes the rest.  A short block is followed by another from the
    same stream.  The blocks run ahead of randrange, so a second call on
    rng gives uniform draws again but not the continuation of its
    randrange list.  For q >= 256 this is the randrange list itself.
    """
    if q >= 256:
        randrange = rng.randrange
        return [randrange(q) for _ in range(count)]
    table, reject = _byte_tables(q)
    getrandbits = rng.getrandbits
    out = b""
    while len(out) < count:
        words = 2 * (count - len(out)) + 16  # acceptance is at least 1/2
        out += getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(
            table, reject
        )
    return out[:count]


def _draw_stream(rng: random.Random, q: int, block: int = 1024) -> Iterator[int]:
    """Uniform values in range(q) from rng, taken `block` at a time."""
    while True:
        yield from _uniform_draws(rng, q, block)


def _trace_zero_samples(
    cfg: GroupConfig,
    s: Q,
    x: ApartmentPoint,
    phi: GradedElement,
    samples: int,
    depth: int,
    seed: int,
    bound: int = 10**6,
) -> Iterator[LMatrix]:
    """The trace-zero samples among `samples` draws from phi + g_{x>-s}.

    A sample adds t^w c to the homogeneous lift for every entry (i, j)
    and every exponent w from the strict bound at (x, -s) up to depth,
    each c uniform in F_q, and all samples share one stream, the block
    draws of random.Random(f"minimality:{seed}").  The lift is
    nilpotent, so its trace is zero and the sample's trace coefficient
    at t^w is the sum of its diagonal draws at w.  Those are drawn
    first, exponent by exponent, and the sample stops at the first
    nonzero one: c_1 = -trace, so it is not nilpotent.  Only a
    trace-zero sample draws its off-diagonal coefficients and becomes a
    matrix.  More than `bound` coefficients in all are refused before
    the first draw.
    """
    q, n = cfg.q, cfg.n
    bounds = mp_lattice(cfg, x, -s, strict=True, _checked=True).bounds
    if depth < min(min(row) for row in bounds):
        raise ValidationError(
            f"depth {depth} is below every strict bound at (x, {-s}), so the "
            "probe would draw nothing",
            where="orbits.minimality_probe",
        )
    spans = [[range(b, depth + 1) for b in row] for row in bounds]
    total = sum(len(span) for row in spans for span in row)
    if samples * total > bound:
        raise InfeasibleError(
            f"{samples} samples of {total} draws each exceed bound {bound}",
            where="orbits.minimality_probe",
        )
    lift = homogeneous_lift(cfg, phi).mat
    trace_exponents = spans[0][0]  # every diagonal strict bound is floor(-s) + 1
    draw = _draw_stream(random.Random(f"minimality:{seed}"), q).__next__
    for _ in range(samples):
        levels = []  # the diagonal draws at each trace exponent, while the trace is 0
        for _ in trace_exponents:
            levels.append([draw() for _ in range(n)])
            if sum(levels[-1]) % q:
                break  # c_1 = -trace is nonzero: the sample is not nilpotent
        else:
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    span = spans[i][j]
                    drawn = [lv[i] for lv in levels] if i == j else [draw() for _ in span]
                    rows[i][j] = Laurent(q, ser_add(lift.entry(i, j).coeffs, zip(span, drawn), q))
            yield LMatrix.from_rows(q, rows)


def minimality_probe(
    cfg: GroupConfig,
    s: Q | int | str,
    x: ApartmentPoint,
    phi: GradedElement,
    samples: int = 200,
    depth: int = 3,
    seed: int = 0,
    bound: int = 10**6,
) -> bool:
    """Falsification run for lift minimality; True means no counterexample.

    Draws `samples` random coset elements truncated at t^depth, all from
    one stream seeded by `seed`; every nilpotent among them must have
    Jordan type dominating the lift.  This is a randomized falsification
    harness, not a proof.

    Each sample draws its diagonal first and stops at the first nonzero
    trace coefficient.  The filter is exact: the trace is minus the
    coefficient c_1 of the characteristic polynomial, so a nonzero trace
    proves the sample is not nilpotent, and only a trace-zero sample
    draws the rest and becomes a matrix.  A depth below every strict
    bound is refused: every sample would be the lift itself.  So is a
    probe of more than `bound` coefficients in all (InfeasibleError),
    counted as if every sample drew them all, before the first draw.
    """
    s = Q(s)
    lift_orbit = debacker_lift(cfg, s, x, phi)
    for sample in _trace_zero_samples(cfg, s, x, phi, samples, depth, seed, bound):
        if sample.is_nilpotent():
            if not dominance_leq(lift_orbit, jordan_type(sample)):
                return False
    return True
