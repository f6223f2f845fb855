"""Refinement of coarse degenerate cosets into finer ones.

A coarse coset at (y, tau) splits into an affine F_q-family of finer
cosets at (x, s); each member is non-degenerate (A), conjugate to the
image of the coarse element under the block quotient at x (B), or
degenerate with a strictly larger lift (C).  Every instance emits the
exact linear relation

    v_{tau,(y,phi)} = N * v_{s,(x,base)} + sum_j v_{s,(x,chi_j)},

with N the B-count (a power of q) and the chi_j the C-members.  Chains
of such relations along geodesic breakpoints connect any two pairs
carrying the same lift, up to a block-quotient conjugation found by
graded Jordan alignment; conjugations outside the standard apartment
are refused rather than guessed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .apartment import (
    ApartmentPoint,
    GroupConfig,
    breakpoints,
    graded_support,
    inclusion_chain_ok,
    mp_lattice,
)
from .errors import InfeasibleError, InternalFault, ValidationError
from .graded import (
    GradedElement,
    align_conjugator,
    is_degenerate,
    rank_profile,
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
    "connect",
    "compose_chain",
    "verify_relation",
]


@record
class DMPPair:
    """A degenerate pair: level s > 0, point x, degenerate phi of degree -s.

    Pairs key the count cache and every component vector, so the hash
    of the fields, hash((s, x, phi, lift)), is computed once, at
    construction; equality stays field by field.
    """

    s: Q
    x: ApartmentPoint
    phi: GradedElement
    lift: OrbitLabel

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.s, self.x, self.phi, self.lift)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(cfg: GroupConfig, s: Q | int | str, x: ApartmentPoint, phi: GradedElement) -> "DMPPair":
        s = Q(s)
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
    role: str  # "refine" | "interval-left" | "interval-right" | "conjugation"
    y: ApartmentPoint
    tau: Q
    x: ApartmentPoint
    s: Q
    n_a: int
    n_b: int
    n_c: int
    quotient_dim: int
    interval: Optional[int] = None
    conjugator: Optional[Tuple[Tuple[int, ...], ...]] = None


@record
class RelationRecord:
    """The exact identity v_lhs = c * v_base + sum coef * v_term.

    Stored coarse-side-on-the-left; `solved_for_finer` re-solves for the
    base component, which is where negative powers of q enter.
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

    def solved_for_finer(self) -> "RelationRecord":
        inv = 1 / self.c
        return RelationRecord(
            lhs=self.base,
            c=inv,
            base=self.lhs,
            terms=tuple((-inv * coef, p) for coef, p in self.terms),
            provenance=self.provenance,
        )


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

    `free` lists the support positions of g_{x=-s} that stay free modulo
    g_{y>-tau}, in support order; the members are the image of the
    coarse lift plus every combination of coefficients on them, so the
    quotient dimension is their number.  Iterating, and `len`, run over
    the classes, in enumeration order.
    """

    coarse: DMPPair
    x: ApartmentPoint
    s: Q
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
    coefficient order over the free positions.  Tag B is decided by
    rank-profile equality against the image of the coarse homogeneous
    lift; when feasible the B-set is cross-checked against the
    breadth-first orbit under the unipotent image (a disagreement is an
    internal fault).
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
    ref_profile = rank_profile(cfg, phi_x)
    ref_lift = OrbitLabel.from_ranks(cfg.n, ref_profile[0])

    # every member is base + combo on support positions of g_{x=-s}: base
    # passed GradedElement.make and the free positions come from the
    # support, so each member is built directly, without re-checking it;
    # s > 0, since is_degenerate refused a piece of degree >= 0, so each
    # degenerate member's pair is built from the lift its profile gives
    base = phi_x.as_dict()
    degree = -s
    classes: List[SubcosetClass] = []
    for combo in itertools.product(range(cfg.q), repeat=len(free)):
        coeffs = dict(base)
        for pos, c in zip(free, combo):
            v = (coeffs.get(pos, 0) + c) % cfg.q
            if v:
                coeffs[pos] = v
            elif pos in coeffs:
                del coeffs[pos]
        chi = GradedElement(x=x, degree=degree, coeffs=tuple(sorted(coeffs.items())))
        if not is_degenerate(cfg, chi):
            classes.append(SubcosetClass(tag="A", chi=chi, pair=None))
            continue
        profile = rank_profile(cfg, chi)
        if profile == ref_profile:
            classes.append(SubcosetClass(tag="B", chi=chi, pair=DMPPair(s, x, chi, ref_lift)))
            continue
        chi_lift = OrbitLabel.from_ranks(cfg.n, profile[0])
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
    return Decomposition(coarse, x, s, free, tuple(classes))


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
    base_hint: Optional[GradedElement] = None,
    role: str = "refine",
    interval: Optional[int] = None,
    *,
    decomposition: Optional[Decomposition] = None,
) -> RelationRecord:
    """Emit the exact relation attached to one (coarse, finer) incidence.

    The base component is the member tagged B given by the image of the
    coarse lift, or `base_hint` when supplied (it must itself be tagged
    B); C-members enter with coefficient one each, in enumeration order.
    Every pair is the one its class carries, and the quotient dimension
    is the decomposition's.  `decomposition`, when given, is used
    instead of classifying again; one of another incidence is refused.
    """
    x, s = finer[0], Q(finer[1])
    if decomposition is None:
        decomposition = enumerate_and_classify(cfg, coarse, finer)
    # the image first: a coarse lift below the finer lattice is refused
    # as input, before the decomposition is compared with the incidence
    base_chi = _image(cfg, coarse.phi, x, -s) if base_hint is None else base_hint
    if (decomposition.coarse, decomposition.x, decomposition.s) != (coarse, x, s):
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

    base_pair = next((c.pair for c in classes if c.chi == base_chi and c.tag == "B"), None)
    if base_pair is None:
        raise InternalFault(
            "base is not a B-tagged member of the decomposition",
            where="refine.refine_relation",
        )
    prov = RelationProvenance(
        role=role,
        y=coarse.x,
        tau=coarse.s,
        x=x,
        s=s,
        n_a=n_a,
        n_b=n_b,
        n_c=len(terms),
        quotient_dim=decomposition.quotient_dim,
        interval=interval,
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


# ---------------------------------------------------------------------------
# chains along geodesics
# ---------------------------------------------------------------------------


def _image(cfg: GroupConfig, phi: GradedElement, x: ApartmentPoint, degree: Q) -> GradedElement:
    """`regrade`, with a lift leaving g_{x>=degree} refused as rejected input."""
    image = regrade(cfg, phi, x, degree)
    if image is None:
        raise ValidationError(
            f"the lift of an element of g_{{x={phi.degree}}} has a monomial below "
            f"the lattice bound of g_{{x>={degree}}}",
            where="graded.graded_image",
        )
    return image


def connect(cfg: GroupConfig, p0: DMPPair, p1: DMPPair) -> List[RelationRecord]:
    """Chain of relations expressing v at p1 through v at p0.

    Requires equal lifts.  The shared nilpotent datum is the
    homogeneous lift of p0; it must lie in the filtration at the p1 end
    (otherwise the instance needs a conjugation outside the standard
    apartment and is refused), and a final block-quotient conjugation
    aligning p1 is found by graded Jordan chain matching when the rank
    profiles agree.
    """
    if p0.lift != p1.lift:
        raise ValidationError(
            f"lift mismatch: {p0.lift} != {p1.lift}", where="refine.connect"
        )
    if p0 == p1:
        return []

    phi1_image = regrade(cfg, p0.phi, p1.x, -p1.s)
    if phi1_image is None:
        raise InfeasibleError(
            "no shared datum within the standard apartment: the lift of p0 "
            "does not lie in the filtration at the p1 end",
            where="refine.connect",
        )
    records: List[RelationRecord] = []
    if phi1_image != p1.phi:
        if rank_profile(cfg, phi1_image) != rank_profile(cfg, p1.phi):
            raise InfeasibleError(
                "conjugation alignment failure: profiles differ at the p1 end",
                where="refine.connect",
            )
        g = align_conjugator(cfg, p1.phi, phi1_image)
        aligned = DMPPair.make(cfg, p1.s, p1.x, phi1_image)
        prov = RelationProvenance(
            role="conjugation",
            y=p1.x,
            tau=p1.s,
            x=p1.x,
            s=p1.s,
            n_a=0,
            n_b=1,
            n_c=0,
            quotient_dim=0,
            conjugator=g,
        )
        records.append(
            RelationRecord(lhs=p1, c=Q(1), base=aligned, terms=(), provenance=prov)
        )

    plan = breakpoints(cfg, p0.x, p0.s, p1.x, p1.s)
    for k, cert in enumerate(plan.intervals):
        yu, tau_u = cert.x, cert.s
        phi_u = regrade(cfg, p0.phi, yu, -tau_u)
        if phi_u is None:
            raise InternalFault(
                "shared lift leaves the filtration along the geodesic",
                where="refine.connect",
            )
        pair_u = DMPPair.make(cfg, tau_u, yu, phi_u)
        if pair_u.lift != p0.lift:
            raise InternalFault(
                f"interval pair lift {pair_u.lift} differs from {p0.lift}",
                where="refine.connect",
            )
        for role, t in (("interval-left", plan.ts[k]), ("interval-right", plan.ts[k + 1])):
            xb, sb = plan.point_at(t)
            phi_b = _image(cfg, p0.phi, xb, -sb)
            records.append(
                refine_relation(cfg, pair_u, (xb, sb), base_hint=phi_b, role=role, interval=k)
            )
    return records


def compose_chain(
    cfg: GroupConfig, records: Sequence[RelationRecord], p0: DMPPair, p1: DMPPair
) -> Tuple[Q, Tuple[Tuple[Q, DMPPair], ...]]:
    """Fold a connect() chain into v_{p1} = c * v_{p0} + corrections."""
    if not records:
        if p0 != p1:
            raise ValidationError("empty chain between distinct pairs", where="refine.compose_chain")
        return Q(1), ()

    link_pairs: Dict[int, Dict[str, RelationRecord]] = {}
    for r in records:
        if r.provenance.role == "conjugation":
            continue
        link_pairs.setdefault(r.provenance.interval, {})[r.provenance.role] = r

    # expression v_current = c * v_{p0} + sum coef * v_j, starting at p0
    c = Q(1)
    terms: Dict[DMPPair, Q] = {}
    for k in sorted(link_pairs):
        left = link_pairs[k]["interval-left"]
        right = link_pairs[k]["interval-right"]
        # v_int = N_L v_left + S_L = N_R v_right + S_R
        # => v_right = (N_L / N_R) v_left + (S_L - S_R) / N_R
        n_l, n_r = left.c, right.c
        factor = n_l / n_r
        new_terms: Dict[DMPPair, Q] = {}
        for coef, p in left.terms:
            new_terms[p] = new_terms.get(p, Q(0)) + coef / n_r
        for coef, p in right.terms:
            new_terms[p] = new_terms.get(p, Q(0)) - coef / n_r
        # substitute v_left = c * v_{p0} + terms
        for p, coef in terms.items():
            new_terms[p] = new_terms.get(p, Q(0)) + factor * coef
        c = factor * c
        terms = {p: v for p, v in new_terms.items() if v}
    # a trailing conjugation link is an identity on components: v_{p1}
    # equals v at the aligned pair the geodesic ends in, so the folded
    # expression already stands for v_{p1}
    ordered = sorted(terms.items(), key=lambda kv: kv[0].describe())
    return c, tuple((coef, pair) for pair, coef in ordered)
