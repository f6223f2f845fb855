"""Refinement of coarse degenerate cosets into finer ones.

A coarse coset at (y, tau) splits into an affine F_q-family of finer
cosets at (x, s); each member is non-degenerate (A), conjugate to the
image of the coarse element under the block quotient at x (B), or
degenerate with a strictly larger lift (C).  Every instance emits the
exact linear relation

    v_{tau,(y,phi)} = N * v_{s,(x,base)} + sum_j v_{s,(x,chi_j)},

with N the B-count (a power of q), base the image of the coarse lift
and the chi_j the C-members.  `refine` emits one such relation per
incidence; nothing here chains them along a geodesic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from . import gf
from .apartment import (
    ApartmentPoint,
    GroupConfig,
    graded_support,
    inclusion_chain_ok,
    mp_lattice,
    residue_classes,
)
from .errors import InfeasibleError, InternalFault, ValidationError
from .graded import (
    GradedElement,
    coefficient_matrix,
    is_degenerate,
    regrade,
    unipotent_orbit_count,
)
from .orbits import OrbitLabel, debacker_lift, dominance_leq
from .record import record

Q = Fraction

__all__ = [
    "DMPPair",
    "SubcosetClass",
    "Decomposition",
    "RelationRecord",
    "check_incidence",
    "enumerate_and_classify",
    "refine_relation",
    "verify_relation",
]


@record
class DMPPair:
    """A degenerate pair: level s > 0, point x, degenerate phi of degree -s.

    Pairs key the count cache and every component vector; like any record,
    a pair computes hash((s, x, phi, lift)) on first use and keeps it.
    """

    s: Q
    x: ApartmentPoint
    phi: GradedElement
    lift: OrbitLabel

    @staticmethod
    def make(cfg: GroupConfig, s: Q | int | str, x: ApartmentPoint, phi: GradedElement) -> "DMPPair":
        s = s if type(s) is Q else Q(s)
        if s <= 0:
            raise ValidationError(f"level must be positive, got {s}", where="refine.DMPPair")
        if phi.x != x or phi.degree != -s:
            raise ValidationError(
                "element does not live in the graded piece at (x, -s)",
                where="refine.DMPPair",
            )
        lift = debacker_lift(cfg, s, phi)  # validates degeneracy
        return DMPPair(s=s, x=x, phi=phi, lift=lift)

    def describe(self) -> str:
        entries = ";".join(f"({i+1},{j+1})={c}" for (i, j), c in self.phi.coeffs)
        return f"(s={self.s}, x={self.x}, phi=[{entries or '0'}])"


@record
class SubcosetClass:
    tag: str  # "A" | "B" | "C"
    chi: GradedElement
    pair: Optional[DMPPair]  # chi's pair at the finer level, None exactly for tag A

    @property
    def lift(self) -> Optional[OrbitLabel]:
        return None if self.pair is None else self.pair.lift


@record
class RelationProvenance:
    y: ApartmentPoint
    tau: Q
    x: ApartmentPoint
    s: Q
    n_a: int
    n_b: int
    n_c: int
    quotient_dim: int


@record
class RelationRecord:
    """The exact identity v_lhs = c * v_base + sum coef * v_term.

    Stored coarse-side-on-the-left: `lhs` is the coarse pair, `c` the
    B-count and `base` the finer pair of the coarse lift's image.
    """

    lhs: DMPPair
    c: Q
    base: DMPPair
    terms: Tuple[Tuple[Q, DMPPair], ...]
    provenance: RelationProvenance

    def q_exponent(self, q: int) -> int:
        """e with c = q^e; faults if c is not a power of q."""
        c = self.c
        e = 0
        # c <= 0 skips both loops (0 % q == 0 would divide 0 forever)
        while c > 0 and c.denominator == 1 and c.numerator % q == 0:
            c /= q
            e += 1
        while c.numerator == 1 and c.denominator % q == 0:
            c *= q
            e -= 1
        if c != 1:
            raise InternalFault(
                f"coefficient {self.c} is not a power of q = {q}",
                where="refine.RelationRecord",
            )
        return e

    def pairs(self) -> List[DMPPair]:
        return [self.lhs, self.base] + [p for _, p in self.terms]


def check_incidence(
    cfg: GroupConfig, y: ApartmentPoint, tau: Q, x: ApartmentPoint, s: Q
) -> bool:
    """The inclusion chains at levels 0, s and -s tying an interval point y to a limit x.

    The chain at (-s, -tau) holds exactly when the one at (s, tau) does
    (`inclusion_chain_ok`), so only levels 0 and s are compared.
    """
    return all(inclusion_chain_ok(cfg, x, lx, y, ly) for lx, ly in ((Q(0), Q(0)), (s, tau)))


@record
class Decomposition:
    """The finer-coset decomposition of one incidence (coarse, x, s).

    `image` is the image of the coarse lift in g_{x=-s}, and `free` lists
    the support positions of g_{x=-s} that stay free modulo g_{y>-tau},
    in support order; the members are `image` plus every combination of
    coefficients on them, so the quotient dimension is their number.
    Iterating, and `len`, run over the classes, in enumeration order.
    """

    coarse: DMPPair
    x: ApartmentPoint
    s: Q
    image: GradedElement
    free: Tuple[Tuple[int, int], ...]
    classes: Tuple[SubcosetClass, ...]

    @property
    def quotient_dim(self) -> int:
        return len(self.free)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[SubcosetClass]:
        return iter(self.classes)


def enumerate_and_classify(
    cfg: GroupConfig,
    coarse: DMPPair,
    finer: Tuple[ApartmentPoint, Q],
    bound: int = 10**6,
) -> Decomposition:
    """Decompose the coarse coset along (x, s) and tag every member.

    The strict lattices L_{y>-tau} and L_{x>-s} and the support of
    g_{x=-s} are built once each: the free positions are the support
    monomials lying in L_{y>-tau}, and their number must equal the
    quotient dimension.  Members are enumerated in lexicographic
    coefficient order over the free positions.

    Each member is classified on its coefficient matrix A, as
    `is_degenerate` and the rank profile would.  A nilpotent matrix has
    trace 0, so a member whose trace is nonzero mod q is tagged A
    without a product; the others are tagged A unless A^n = 0.  Tag B
    is decided by rank-profile equality against the image of the
    coarse homogeneous lift, on the residue-class blocks of x, which
    are computed once per incidence.  When feasible the B-set is
    cross-checked against the breadth-first orbit under the unipotent
    image (a disagreement is an internal fault).
    """
    x, s = finer[0], Q(finer[1])
    if x.n != cfg.n:
        raise ValidationError(
            f"point has {x.n} coordinates, expected {cfg.n}",
            where="refine.enumerate_and_classify",
        )
    y, tau = coarse.x, coarse.s
    if not check_incidence(cfg, y, tau, x, s):
        raise ValidationError(
            f"inclusion chains fail between (y={y}, tau={tau}) and (x={x}, s={s})",
            where="refine.enumerate_and_classify",
        )

    strict_y = mp_lattice(cfg, y, -tau, strict=True, _checked=True)
    strict_x = mp_lattice(cfg, x, -s, strict=True, _checked=True)
    qdim = strict_y.dim_quotient_by(strict_x)
    # the quotient g_{y>-tau} / g_{x>-s} is spanned by exactly the
    # degree -s support monomials lying in g_{y>-tau}
    sup = graded_support(cfg, x, -s, _checked=True)
    free = tuple((i, j) for (i, j), w in sup.entries if w >= strict_y.bounds[i][j])
    if len(free) != qdim:
        raise InternalFault(
            f"quotient dimension {qdim} does not match {len(free)} free monomials",
            where="refine.enumerate_and_classify",
        )
    if cfg.q**qdim > bound:
        raise InfeasibleError(
            f"{cfg.q}^{qdim} subcosets exceed the configured bound {bound}",
            where="refine.enumerate_and_classify",
        )

    phi_x = _image(cfg, coarse.phi, x, -s)
    if not is_degenerate(cfg, phi_x):
        raise InternalFault(
            "image of the coarse homogeneous lift is non-degenerate",
            where="refine.enumerate_and_classify",
        )
    n, q, field = cfg.n, cfg.q, gf.prime_field(cfg.q)
    blocks = [idx for _, idx in residue_classes(x)]
    ref_profile = gf.power_ranks(coefficient_matrix(cfg, phi_x), field, blocks)
    ref_lift = OrbitLabel.from_ranks(n, ref_profile[0])

    # every member is base + combo on support positions of g_{x=-s}, held
    # as its coefficient matrix in one flat row-major list, so that the
    # nonzero entries in list order are its coefficients in sorted order:
    # base passed GradedElement.make and the free positions come from the
    # support, so each member is built directly, without re-checking it;
    # s > 0, since is_degenerate refused a piece of degree >= 0, so each
    # degenerate member's pair is built from the lift its profile gives
    positions = [(i, j) for i in range(n) for j in range(n)]
    base = [0] * (n * n)
    for (i, j), c in phi_x.coeffs:
        base[i * n + j] = c
    slots = [i * n + j for i, j in free]
    degree = -s
    classes: List[SubcosetClass] = []
    for combo in itertools.product(range(q), repeat=len(slots)):
        flat = base[:]
        for k, c in zip(slots, combo):
            flat[k] = (flat[k] + c) % q
        chi = GradedElement(
            x=x, degree=degree, coeffs=tuple((positions[k], c) for k, c in enumerate(flat) if c)
        )
        # a nilpotent matrix has trace 0, so a nonzero trace is tag A at once
        if sum(flat[:: n + 1]) % q:
            classes.append(SubcosetClass(tag="A", chi=chi, pair=None))
            continue
        mat = tuple(tuple(flat[r : r + n]) for r in range(0, n * n, n))
        if not gf.is_nilpotent(mat, field):
            classes.append(SubcosetClass(tag="A", chi=chi, pair=None))
            continue
        profile = gf.power_ranks(mat, field, blocks)
        if profile == ref_profile:
            classes.append(SubcosetClass(tag="B", chi=chi, pair=DMPPair(s, x, chi, ref_lift)))
            continue
        chi_lift = OrbitLabel.from_ranks(n, profile[0])
        if not (dominance_leq(coarse.lift, chi_lift) and chi_lift != coarse.lift):
            raise InternalFault(
                f"member lift {chi_lift} does not strictly dominate {coarse.lift}",
                where="refine.enumerate_and_classify",
            )
        classes.append(SubcosetClass(tag="C", chi=chi, pair=DMPPair(s, x, chi, chi_lift)))

    n_b = sum(1 for c in classes if c.tag == "B")
    if n_b == 0:
        raise InternalFault(
            "empty B class: the coarse element's own image must be tagged B",
            where="refine.enumerate_and_classify",
        )
    _crosscheck_b_class(cfg, y, x, phi_x, classes)
    return Decomposition(coarse, x, s, phi_x, free, tuple(classes))


def _crosscheck_b_class(
    cfg: GroupConfig,
    y: ApartmentPoint,
    x: ApartmentPoint,
    phi_x: GradedElement,
    classes: Sequence[SubcosetClass],
) -> None:
    try:
        n_orbit, members = unipotent_orbit_count(cfg, y, x, phi_x)
    except InfeasibleError:
        return
    if not members:
        return
    b_set = {c.chi for c in classes if c.tag == "B"}
    if b_set != set(members):
        raise InternalFault(
            f"B class ({len(b_set)} members) differs from the unipotent orbit "
            f"({len(members)} members)",
            where="refine.enumerate_and_classify",
        )


def refine_relation(
    cfg: GroupConfig,
    coarse: DMPPair,
    finer: Tuple[ApartmentPoint, Q],
    *,
    decomposition: Optional[Decomposition] = None,
) -> RelationRecord:
    """Emit the exact relation attached to one (coarse, finer) incidence.

    The base component is the member tagged B given by the image of the
    coarse lift, the decomposition's `image`; C-members enter with
    coefficient one each, in enumeration order.  Every pair is the one
    its class carries, and the quotient dimension is the
    decomposition's.  `decomposition`, when given, is used instead of
    classifying again; one of another incidence is refused.
    """
    x, s = finer[0], Q(finer[1])
    if decomposition is None:
        decomposition = enumerate_and_classify(cfg, coarse, finer)
    if (decomposition.coarse, decomposition.x, decomposition.s) != (coarse, x, s):
        # the image first: a coarse lift below the finer lattice is
        # refused as input, before the decomposition is found foreign
        _image(cfg, coarse.phi, x, -s)
        raise InternalFault(
            f"the decomposition of {decomposition.coarse.describe()} along "
            f"(x={decomposition.x}, s={decomposition.s}) is not the one of "
            f"{coarse.describe()} along (x={x}, s={s})",
            where="refine.refine_relation",
        )
    classes = decomposition.classes
    n_b = sum(1 for c in classes if c.tag == "B")
    n_a = sum(1 for c in classes if c.tag == "A")
    terms = tuple((Q(1), c.pair) for c in classes if c.tag == "C")

    image = decomposition.image
    base_pair = next((c.pair for c in classes if c.chi == image and c.tag == "B"), None)
    if base_pair is None:
        raise InternalFault(
            "base is not a B-tagged member of the decomposition",
            where="refine.refine_relation",
        )
    prov = RelationProvenance(
        y=coarse.x,
        tau=coarse.s,
        x=x,
        s=s,
        n_a=n_a,
        n_b=n_b,
        n_c=len(terms),
        quotient_dim=decomposition.quotient_dim,
    )
    return RelationRecord(lhs=coarse, c=Q(n_b), base=base_pair, terms=terms, provenance=prov)


def verify_relation(
    cfg: GroupConfig, rec: RelationRecord, components: Mapping[DMPPair, Q | int]
) -> bool:
    """Exact rational equality of the relation on a component vector."""
    missing = [p for p in rec.pairs() if p not in components]
    if missing:
        names = "; ".join(p.describe() for p in missing)
        raise ValidationError(
            f"component vector is missing pairs: {names}", where="refine.verify_relation"
        )
    lhs = Q(components[rec.lhs])
    rhs = rec.c * Q(components[rec.base])
    for coef, p in rec.terms:
        rhs += coef * Q(components[p])
    return lhs == rhs


def _image(cfg: GroupConfig, phi: GradedElement, x: ApartmentPoint, degree: Q) -> GradedElement:
    """`regrade`, with a lift leaving g_{x>=degree} refused as rejected input."""
    image = regrade(cfg, phi, x, degree)
    if image is None:
        raise ValidationError(
            f"the lift of an element of g_{{x={phi.degree}}} has a monomial below "
            f"the lattice bound of g_{{x>={degree}}}",
            where="graded.regrade",
        )
    return image
