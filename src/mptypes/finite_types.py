"""Characters of graded quotients and eigenspace multiplicities mod l.

The graded piece at positive level s is a finite abelian p-group (here
q = p, which this module requires so the trace pairing lands in F_p).
A character is named by an element phi of the dual degree -s: it sends
the monomial at position (i, j) to zeta^(coefficient of phi at (j, i)),
the t^0 part of the trace pairing.  Each coefficient field F_{l^a}
(p | l^a - 1) has one zeta, `root_of_unity(p)`, for building modules
and reading them; eigenspace arithmetic then stays exact and cheap.

FiniteModule deliberately models only a semisimple commuting action of
one abelian graded quotient (a stand-in for the fixed vectors of a
smooth representation at the finer level); nothing larger is needed for
the extension-sum identity verified here.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from . import gf
from .apartment import ApartmentPoint, GroupConfig, graded_support
from .errors import ValidationError
from .graded import GradedElement
from .record import record
from .refine import Decomposition

Q = Fraction

__all__ = [
    "FiniteModule",
    "fork_field",
    "hom_dim",
    "verify_fork_identity",
]


def fork_field(cfg: GroupConfig) -> gf.ExtField:
    """F_{l^a} with a the order of l mod p: the smallest field of
    characteristic l holding the p-th roots of unity.  l = 2 serves every
    odd p, and at p = 2 the root -1 lives in F_3."""
    ell = 3 if cfg.q == 2 else 2
    a, value = 1, ell % cfg.q
    while value != 1:
        value = value * ell % cfg.q
        a += 1
    return gf.ext_field(ell, a)


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


def _exponents(phi: GradedElement, positions: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """The pairing of each support monomial (i, j) with phi: its (j, i) coefficient."""
    return tuple(phi.coeff(j, i) for (i, j) in positions)


@record
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
        conjugator: Optional[Sequence[Sequence[int]]] = None,
    ) -> "FiniteModule":
        """Module with one eigenline per listed exponent tuple."""
        _check_field(cfg, field, where="finite_types.FiniteModule")
        zeta = field.root_of_unity(cfg.q)
        sup = graded_support(cfg, x, Q(s), _checked=True)
        positions = sup.positions
        for ct in char_tuples:
            if len(ct) != len(positions):
                raise ValidationError(
                    f"character tuple {tuple(ct)} has {len(ct)} exponents, "
                    f"the support has {len(positions)} positions",
                    where="finite_types.FiniteModule",
                )
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
        # each generator is C D C^-1 with D a diagonal of p-th roots of
        # unity, so g^p = 1 and the generators commute by construction:
        # `validate` is for modules built directly
        return FiniteModule(
            field=field, x=x, s=Q(s), positions=positions, dim=d, gens=tuple(gens)
        )

    @staticmethod
    def regular(cfg: GroupConfig, field: gf.ExtField, x: ApartmentPoint, s: Q) -> "FiniteModule":
        """The regular module: every character occurs exactly once."""
        sup = graded_support(cfg, x, Q(s), _checked=True)
        tuples = list(itertools.product(range(cfg.q), repeat=sup.dim))
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


def hom_dim(cfg: GroupConfig, M: FiniteModule, phi: GradedElement) -> int:
    """The multiplicity of the type (M.x, M.s, phi) in M: the dimension of
    the psi_phi-eigenspace, by exact finite-field kernels."""
    if phi.x != M.x or phi.degree != -M.s:
        raise ValidationError(
            "dual element must have degree -s at the module's point",
            where="finite_types.hom_dim",
        )
    _check_field(cfg, M.field, where="finite_types.hom_dim")
    exponents = _exponents(phi, M.positions)
    return len(_eigenspace(cfg, M, range(len(exponents)), exponents))


def _eigenspace(
    cfg: GroupConfig, M: FiniteModule, ks: Iterable[int], exponents: Iterable[int]
) -> List[gf.Vec]:
    """A basis of the vectors on which each g_k, k in ks, acts by zeta^e_k:
    `_restrict` folded over the positions, starting from the whole space."""
    f = M.field
    zeta = f.root_of_unity(cfg.q)
    basis = gf.identity(M.dim)
    for k, e in zip(ks, exponents):
        basis = _restrict(M, basis, k, f.pow(zeta, e))
    return basis


def _restrict(M: FiniteModule, basis: Sequence[gf.Vec], k: int, lam: int) -> List[gf.Vec]:
    """A basis of {v in span(basis) : g_k v = lam v}: basis . ker((g_k - lam) . basis).

    Applied one generator at a time this gives the joint eigenspace,
    the intersection of the kernels of the g_k - lam_k, without
    assuming that the g_k commute or act semisimply.
    """
    if not basis:
        return []
    f = M.field
    shifted = [
        [f.sub(v, lam) if r == c else v for c, v in enumerate(row)]
        for r, row in enumerate(M.gens[k])
    ]
    cols = tuple(zip(*basis))  # the basis vectors as columns
    kernel = gf.kernel(gf.mat_mul(shifted, cols, f), len(basis), f)
    return [gf.mat_vec(cols, c, f) for c in kernel]


# ---------------------------------------------------------------------------
# the extension-sum identity
# ---------------------------------------------------------------------------


class _Incidence:
    """What the extension-sum identity needs of one decomposition, for any module.

    A support position (i, j) of g_{x=s} pairs with the position (j, i)
    of g_{x=-s}: it is free when (j, i) is a free position of the
    decomposition, and restricted, lying in the coarse lattice
    L_{y>=tau}, otherwise (by duality, w >= ceil(tau + y_j - y_i)
    exactly when -w <= floor(-tau + y_i - y_j)).  `base` holds the
    exponents shared by every extension on the restricted positions;
    `keys` holds each extension's exponents on the free positions.
    """

    def __init__(self, cfg: GroupConfig, decomposition: Decomposition) -> None:
        self.x, self.s = decomposition.x, decomposition.s
        positions = graded_support(cfg, self.x, self.s, _checked=True).positions
        free = set(decomposition.free)
        self.restricted = tuple(k for k, (i, j) in enumerate(positions) if (j, i) not in free)
        self.free = tuple(k for k, (i, j) in enumerate(positions) if (j, i) in free)
        # the members differ only on the free positions, so every
        # extension shares the first one's restricted exponents
        exponents = [_exponents(cls.chi, positions) for cls in decomposition]
        self.base = tuple(exponents[0][k] for k in self.restricted)
        self.keys = [tuple(ex[k] for k in self.free) for ex in exponents]

    def split(self, cfg: GroupConfig, M: FiniteModule) -> Tuple[int, List[int]]:
        """(restricted hom dim, the hom dim of each extension in class order)."""
        if (M.x, M.s) != (self.x, self.s):
            raise ValidationError(
                "module does not live on the finer graded piece",
                where="finite_types.verify_fork_identity",
            )
        _check_field(cfg, M.field, where="finite_types.verify_fork_identity")
        f = M.field
        lams = [f.pow(f.root_of_unity(cfg.q), e) for e in range(cfg.q)]
        basis = _eigenspace(cfg, M, self.restricted, self.base)
        # split along the free positions in order, one subspace per
        # exponent prefix; a prefix whose subspace is 0 is not extended
        level = {(): basis}
        for k in self.free:
            level = {
                prefix + (e,): sub
                for prefix, node in level.items()
                for e, lam in enumerate(lams)
                if (sub := _restrict(M, node, k, lam))
            }
        return len(basis), [len(level.get(key, ())) for key in self.keys]


def verify_fork_identity(
    cfg: GroupConfig, modules: Iterable[FiniteModule], decomposition: Decomposition
) -> bool:
    """Whether the extension sum holds for every module, in order.

    The incidence is the decomposition's (`refine.enumerate_and_classify`),
    read once for any number of modules; its restricted and free
    positions come from the decomposition's free positions, so no
    lattice is built here.  The modules are drawn from the iterable one
    at a time, and none is drawn after the first failure.
    """
    inc = _Incidence(cfg, decomposition)
    for M in modules:
        lhs, dims = inc.split(cfg, M)
        if lhs != sum(dims):
            return False
    return True
