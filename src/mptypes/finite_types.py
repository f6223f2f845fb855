"""Characters of graded quotients and eigenspace multiplicities mod l.

The graded piece at positive level s is a finite abelian p-group (here
q = p, which this module requires so the trace pairing lands in F_p).
A degenerate element of the dual degree induces a character via a fixed
primitive p-th root of unity zeta in a coefficient field F_{l^a} with
p | l^a - 1; eigenspace arithmetic then stays exact and cheap.  A
cyclotomic-rational backend would be an alternate, not required.

FiniteModule deliberately models only a semisimple commuting action of
one abelian graded quotient (a stand-in for the fixed vectors of a
smooth representation at the finer level); nothing larger is needed for
the extension-sum identity verified here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import gf
from .apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from .errors import InternalFault, ValidationError
from .graded import GradedElement, homogeneous_lift
from .refine import DMPPair, enumerate_and_classify

Q = Fraction

__all__ = [
    "AdditiveCharacter",
    "FiniteModule",
    "build_character",
    "hom_dim",
    "extension_characters",
    "verify_fork_identity",
    "fork_report",
]


@dataclass(frozen=True)
class AdditiveCharacter:
    """Character of the graded piece g_{x=s} attached to a dual element.

    The value on the basis monomial at position (i, j) is
    zeta^(coefficient of phi at (j, i)): the t^0 part of the trace
    pairing of the two homogeneous lifts.
    """

    x: ApartmentPoint
    s: Q
    positions: Tuple[Tuple[int, int], ...]
    exponents: Tuple[int, ...]
    zeta: int
    field: gf.ExtField

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def value_at(self, k: int) -> int:
        return self.field.pow(self.zeta, self.exponents[k])


def _check_field(cfg: GroupConfig, field: gf.ExtField, *, where: str) -> None:
    if field.ell == cfg.q:
        raise ValidationError(
            f"coefficient characteristic l = {field.ell} must differ from p = {cfg.q}",
            where=where,
        )
    if (field.order - 1) % cfg.q:
        raise ValidationError(
            f"p = {cfg.q} does not divide l^a - 1 = {field.order - 1}", where=where
        )


def build_character(
    cfg: GroupConfig,
    field: gf.ExtField,
    x: ApartmentPoint,
    s: Q | int | str,
    phi: GradedElement,
    zeta: Optional[int] = None,
) -> AdditiveCharacter:
    """The character lambda -> zeta^(pairing(lambda, phi)) on g_{x=s}.

    Trivial iff phi = 0; requires q = p prime (always true here) and a
    coefficient field containing p-th roots of unity.
    """
    s = Q(s)
    _check_field(cfg, field, where="finite_types.build_character")
    if phi.x != x or phi.degree != -s:
        raise ValidationError(
            "dual element must have degree -s at the same point",
            where="finite_types.build_character",
        )
    if zeta is None:
        zeta = field.root_of_unity(cfg.q)
    else:
        if field.pow(zeta, cfg.q) != field.one or zeta == field.one:
            raise ValidationError(
                "zeta is not a primitive p-th root of unity",
                where="finite_types.build_character",
            )
    sup = graded_support(cfg, x, s, _checked=True)
    positions = sup.positions
    exponents = tuple(phi.coeff(j, i) for (i, j) in positions)
    return AdditiveCharacter(
        x=x, s=s, positions=positions, exponents=exponents, zeta=zeta, field=field
    )


@dataclass(frozen=True)
class FiniteModule:
    """Semisimple commuting action of a graded piece over F_{l^a}."""

    field: gf.ExtField
    x: ApartmentPoint
    s: Q
    positions: Tuple[Tuple[int, int], ...]
    dim: int
    gens: Tuple[gf.Mat, ...]  # one matrix per position

    @staticmethod
    def from_characters(
        cfg: GroupConfig,
        field: gf.ExtField,
        x: ApartmentPoint,
        s: Q,
        char_tuples: Sequence[Tuple[int, ...]],
        zeta: Optional[int] = None,
        conjugator: Optional[Sequence[Sequence[int]]] = None,
    ) -> "FiniteModule":
        """Module with one eigenline per listed exponent tuple."""
        _check_field(cfg, field, where="finite_types.FiniteModule")
        if zeta is None:
            zeta = field.root_of_unity(cfg.q)
        sup = graded_support(cfg, x, Q(s), _checked=True)
        positions = sup.positions
        d = len(char_tuples)
        cinv = None if conjugator is None else gf.mat_inv(conjugator, field)
        gens = []
        for k in range(len(positions)):
            diag = tuple(
                tuple(field.pow(zeta, ct[k]) if a == b else 0 for b in range(d))
                for a, ct in enumerate(char_tuples)
            )
            if cinv is not None:
                diag = gf.mat_mul(gf.mat_mul(conjugator, diag, field), cinv, field)
            gens.append(diag)
        mod = FiniteModule(
            field=field, x=x, s=Q(s), positions=positions, dim=d, gens=tuple(gens)
        )
        mod.validate(cfg)
        return mod

    @staticmethod
    def regular(cfg: GroupConfig, field: gf.ExtField, x: ApartmentPoint, s: Q) -> "FiniteModule":
        """The regular module: every character occurs exactly once."""
        sup = graded_support(cfg, x, Q(s), _checked=True)
        k = sup.dim
        tuples = []
        import itertools

        for ct in itertools.product(range(cfg.q), repeat=k):
            tuples.append(ct)
        return FiniteModule.from_characters(cfg, field, x, Q(s), tuples)

    @staticmethod
    def random(
        cfg: GroupConfig,
        field: gf.ExtField,
        x: ApartmentPoint,
        s: Q,
        dim: int,
        rng: random.Random,
    ) -> "FiniteModule":
        sup = graded_support(cfg, x, Q(s), _checked=True)
        tuples = [
            tuple(rng.randrange(cfg.q) for _ in range(sup.dim)) for _ in range(dim)
        ]
        conj = _random_invertible(field, dim, rng)
        return FiniteModule.from_characters(cfg, field, x, Q(s), tuples, conjugator=conj)

    def validate(self, cfg: GroupConfig) -> None:
        f = self.field
        one = gf.identity(self.dim)
        for g in self.gens:
            if gf.mat_pow(g, cfg.q, f) != one:
                raise ValidationError(
                    "generator action does not have order dividing p",
                    where="finite_types.FiniteModule",
                )
        for a in range(len(self.gens)):
            for b in range(a + 1, len(self.gens)):
                ga, gb = self.gens[a], self.gens[b]
                if gf.mat_mul(ga, gb, f) != gf.mat_mul(gb, ga, f):
                    raise ValidationError(
                        "generator actions do not commute",
                        where="finite_types.FiniteModule",
                    )


def _random_invertible(field: gf.ExtField, d: int, rng: random.Random):
    elems = list(field.elements())
    while True:
        m = [[rng.choice(elems) for _ in range(d)] for _ in range(d)]
        if gf.rank(m, field) == d:
            return m


def hom_dim(M: FiniteModule, psi: AdditiveCharacter) -> int:
    """Dimension of the psi-eigenspace, by exact finite-field kernels."""
    if (M.x, M.s, M.positions) != (psi.x, psi.s, psi.positions):
        raise ValidationError(
            "module and character live on different graded pieces",
            where="finite_types.hom_dim",
        )
    if M.field is not psi.field and (
        M.field.ell != psi.field.ell or M.field.deg != psi.field.deg
    ):
        raise ValidationError("coefficient fields differ", where="finite_types.hom_dim")
    return _eigenspace_dim(M, list(range(len(M.positions))), psi.exponents, psi.zeta)


def _eigenspace_dim(
    M: FiniteModule, gen_indices: Sequence[int], exponents: Sequence[int], zeta: int
) -> int:
    """Dimension of the joint eigenspace: the kernel of the stacked g_k - zeta^e_k."""
    f = M.field
    rows = []
    for k, e in zip(gen_indices, exponents):
        lam = f.pow(zeta, e)
        rows += [
            [f.sub(v, lam) if r == c else v for c, v in enumerate(row)]
            for r, row in enumerate(M.gens[k])
        ]
    return M.dim - gf.rank(rows, f)


# ---------------------------------------------------------------------------
# the extension-sum identity
# ---------------------------------------------------------------------------


def _restricted_positions(
    cfg: GroupConfig, y: ApartmentPoint, tau: Q, x: ApartmentPoint, s: Q
) -> List[int]:
    """Indices of the finer support monomials lying in the coarser lattice."""
    sup = graded_support(cfg, x, s, _checked=True)
    coarse = mp_lattice(cfg, y, tau, strict=False, _checked=True)
    return [
        k for k, ((i, j), w) in enumerate(sup.entries) if w >= coarse.bounds[i][j]
    ]


def extension_characters(
    cfg: GroupConfig,
    field: gf.ExtField,
    coarse: DMPPair,
    finer: Tuple[ApartmentPoint, Q],
    zeta: Optional[int] = None,
) -> List[AdditiveCharacter]:
    """All characters of the finer piece extending the coarse one.

    These are exactly the characters attached to the members of the
    finer-coset decomposition; the agreement of the two enumerations is
    asserted.
    """
    x, s = finer[0], Q(finer[1])
    classes = enumerate_and_classify(cfg, coarse, finer, crosscheck=False)
    if zeta is None:
        zeta = field.root_of_unity(cfg.q)
    chars = [
        build_character(cfg, field, x, s, cls.chi, zeta) for cls in classes
    ]
    # independent enumeration: exponents fixed on the restricted
    # sub-piece, free elsewhere
    restricted = set(_restricted_positions(cfg, coarse.x, coarse.s, x, s))
    base = chars[0]
    fixed = {
        k: _coarse_exponent(cfg, coarse, x, s, base.positions[k])
        for k in restricted
    }
    seen = {c.exponents for c in chars}
    expected = set()
    import itertools

    free = [k for k in range(len(base.positions)) if k not in restricted]
    for combo in itertools.product(range(cfg.q), repeat=len(free)):
        exps = [0] * len(base.positions)
        for k, v in fixed.items():
            exps[k] = v
        for k, v in zip(free, combo):
            exps[k] = v
        expected.add(tuple(exps))
    if seen != expected:
        raise InternalFault(
            "coset decomposition and character extension sets disagree",
            where="finite_types.extension_characters",
        )
    return chars


def _coarse_exponent(
    cfg: GroupConfig, coarse: DMPPair, x: ApartmentPoint, s: Q, pos: Tuple[int, int]
) -> int:
    """Pairing of a finer support monomial with the coarse lift.

    For the monomial t^w e_ij of g_{x=s} this is the t^0 coefficient of
    the trace of its product with the coarse lift: the coefficient of
    t^(-w) in the lift's (j, i) entry.
    """
    i, j = pos
    w = graded_support(cfg, x, s, _checked=True).exponent(i, j)
    lift = homogeneous_lift(cfg, coarse.phi).mat
    return lift.entry(j, i).coeff(-w)


def verify_fork_identity(
    cfg: GroupConfig,
    M: FiniteModule,
    coarse: DMPPair,
    finer: Tuple[ApartmentPoint, Q],
) -> bool:
    lhs, rhs_total, _ = fork_report(cfg, M, coarse, finer)
    return lhs == rhs_total


def fork_report(
    cfg: GroupConfig,
    M: FiniteModule,
    coarse: DMPPair,
    finer: Tuple[ApartmentPoint, Q],
) -> Tuple[int, int, int]:
    """(restricted hom dim, extension sum, degenerate-only partial sum).

    The first two must agree exactly; at finite level the non-degenerate
    extensions need not vanish, so the degenerate-only sum is reported
    separately rather than asserted equal.
    """
    x, s = finer[0], Q(finer[1])
    if (M.x, M.s) != (x, s):
        raise ValidationError(
            "module does not live on the finer graded piece",
            where="finite_types.fork_report",
        )
    classes = enumerate_and_classify(cfg, coarse, finer, crosscheck=False)
    zeta = M.field.root_of_unity(cfg.q)
    chars = [build_character(cfg, M.field, x, s, cls.chi, zeta) for cls in classes]
    restricted = _restricted_positions(cfg, coarse.x, coarse.s, x, s)
    base_exponents = chars[0].exponents
    # all extensions agree on the restricted sub-piece
    for c in chars:
        for k in restricted:
            if c.exponents[k] != base_exponents[k]:
                raise InternalFault(
                    "extensions disagree on the restricted sub-piece",
                    where="finite_types.fork_report",
                )
    lhs = _eigenspace_dim(
        M, restricted, [base_exponents[k] for k in restricted], zeta
    )
    dims = [hom_dim(M, c) for c in chars]
    rhs_total = sum(dims)
    rhs_degenerate = sum(
        d for d, cls in zip(dims, classes) if cls.tag != "A"
    )
    return lhs, rhs_total, rhs_degenerate
