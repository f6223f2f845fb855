"""The extension characters of an incidence, kept as a test oracle.

`extension_characters` lists the exponent tuple of every character of
the finer graded piece that extends the coarse one, read off the
finer-coset decomposition and checked against an independent
enumeration (exponents fixed on the restricted sub-piece by
`_coarse_exponent`, free elsewhere).  The restricted sub-piece is read
here from the coarse lattice itself (`_restricted_positions`), while the
library's fork identity derives it from the decomposition's free
positions through `finite_types._Incidence`; the tests compare the two.
`fork_report` classifies an incidence and reports one module's split.
`fold_split` is the split as a fold of one eigenvalue at a time, each
through its own product (g_k - lam) . basis (`restrict_oracle`), and
`conjugated_generators` builds a module's generators C D C^-1 with two
products each; the library's one-product forms are checked against them.

`regular_module` holds every character once, `random_invertible` draws a
conjugator for the modules the tests build, testing each draw's rank,
`conjugated_module` conjugates a diagonal module by such a matrix, and
`validate` checks that a module's generators have order dividing p and
commute, which the library's modules do by construction.
"""

import itertools
import random
from fractions import Fraction as Q
from typing import List, Tuple

from mptypes import gf
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support, mp_lattice
from mptypes.errors import InternalFault, ValidationError
from mptypes.finite_types import FiniteModule, _exponents, _Incidence
from mptypes.graded import monomials
from mptypes.refine import DMPPair, enumerate_and_classify

from lift_oracle import support_exponent


def _restricted_positions(
    cfg: GroupConfig, y: ApartmentPoint, tau: Q, x: ApartmentPoint, s: Q
) -> List[int]:
    """Indices of the finer support monomials lying in the coarser lattice."""
    sup = graded_support(cfg, x, s, _checked=True)
    coarse = mp_lattice(cfg, y, tau, strict=False, _checked=True)
    return [
        k for k, ((i, j), w) in enumerate(sup.entries) if w >= coarse.bounds[i][j]
    ]


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
    decomposition = enumerate_and_classify(cfg, coarse, finer)
    lhs, dims = _Incidence(cfg, decomposition).split(cfg, M)
    degenerate = [cls.tag != "A" for cls in decomposition]
    return lhs, sum(dims), sum(d for d, deg in zip(dims, degenerate) if deg)


def extension_characters(
    cfg: GroupConfig,
    coarse: DMPPair,
    finer: Tuple[ApartmentPoint, Q],
) -> List[Tuple[int, ...]]:
    """The exponent tuples of all characters of the finer piece extending
    the coarse one, in class order.

    These are exactly the characters named by the members of the
    finer-coset decomposition; the agreement of the two enumerations is
    asserted.
    """
    x, s = finer[0], Q(finer[1])
    classes = enumerate_and_classify(cfg, coarse, finer)
    positions = graded_support(cfg, x, s, _checked=True).positions
    chars = [_exponents(cls.chi, positions) for cls in classes]
    # independent enumeration: exponents fixed on the restricted
    # sub-piece, free elsewhere
    restricted = set(_restricted_positions(cfg, coarse.x, coarse.s, x, s))
    fixed = {
        k: _coarse_exponent(cfg, coarse, x, s, positions[k])
        for k in restricted
    }
    seen = set(chars)
    expected = set()
    free = [k for k in range(len(positions)) if k not in restricted]
    for combo in itertools.product(range(cfg.q), repeat=len(free)):
        exps = [0] * len(positions)
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
    w = support_exponent(graded_support(cfg, x, s, _checked=True), i, j)
    return next((c for a, b, v, c in monomials(coarse.phi) if (a, b, v) == (j, i, -w)), 0)


def restrict_oracle(M: FiniteModule, basis, k: int, lam: int) -> List[gf.Vec]:
    """A basis of {v in span(basis) : g_k v = lam v}: basis . ker((g_k - lam) . basis)."""
    if not basis:
        return []
    f = M.field
    shifted = [
        [f.add(v, f.neg(lam)) if r == c else v for c, v in enumerate(row)]
        for r, row in enumerate(M.gens[k])
    ]
    cols = tuple(zip(*basis))
    kernel = gf.kernel(gf.mat_mul(shifted, cols, f), len(basis), f)
    return [gf.mat_vec(cols, c, f) for c in kernel]


def fold_split(cfg: GroupConfig, inc: _Incidence, M: FiniteModule) -> Tuple[int, List[int]]:
    """`_Incidence.split` folded one position and one eigenvalue at a time:
    every eigenvalue of every node gets its own product and kernel."""
    f = M.field
    zeta = f.root_of_unity(cfg.q)
    basis = gf.identity(M.dim)
    for k, e in zip(inc.restricted, inc.base):
        basis = restrict_oracle(M, basis, k, f.pow(zeta, e))
    level = {(): basis}
    for k in inc.free:
        level = {
            prefix + (e,): sub
            for prefix, node in level.items()
            for e in range(cfg.q)
            if (sub := restrict_oracle(M, node, k, f.pow(zeta, e)))
        }
    return len(basis), [len(level.get(key, ())) for key in inc.keys]


def conjugated_generators(cfg: GroupConfig, field: gf.ExtField, char_tuples, conjugator):
    """C D_k C^-1 for each position k, D_k the diagonal of zeta^(exponent k)
    of each character, as two products."""
    zeta = field.root_of_unity(cfg.q)
    d = len(char_tuples)
    cinv = gf.mat_inv(conjugator, field)
    gens = []
    for k in range(len(char_tuples[0])):
        diag = tuple(
            tuple(field.pow(zeta, ct[k]) if a == b else 0 for b in range(d))
            for a, ct in enumerate(char_tuples)
        )
        gens.append(gf.mat_mul(gf.mat_mul(conjugator, diag, field), cinv, field))
    return tuple(gens)


def regular_module(cfg: GroupConfig, field: gf.ExtField, x: ApartmentPoint, s: Q) -> FiniteModule:
    """The regular module: every character occurs exactly once."""
    sup = graded_support(cfg, x, Q(s), _checked=True)
    tuples = list(itertools.product(range(cfg.q), repeat=sup.dim))
    return FiniteModule.from_characters(cfg, field, x, Q(s), tuples)


def random_invertible(field: gf.ExtField, d: int, rng: random.Random):
    """A random invertible d x d matrix: entry by entry, drawn again whole
    until its rank is d."""
    elems = list(field.elements())
    while True:
        m = [[rng.choice(elems) for _ in range(d)] for _ in range(d)]
        if gf.rank(m, field) == d:
            return m


def conjugated_module(cfg, field, x, s, char_tuples, conjugator) -> FiniteModule:
    """The module with one eigenline per exponent tuple, each generator
    D replaced by C D C^-1 for the invertible C = `conjugator`."""
    M = FiniteModule.from_characters(cfg, field, x, s, char_tuples)
    return M._conjugated(conjugator, gf.mat_inv(conjugator, field))


def validate(cfg: GroupConfig, M: FiniteModule) -> None:
    """Refuse a module whose generators do not have order dividing p or do not commute."""
    f = M.field
    one = gf.identity(M.dim)
    for g in M.gens:
        power = one
        for _ in range(cfg.q):
            power = gf.mat_mul(power, g, f)
        if power != one:
            raise ValidationError(
                "generator action does not have order dividing p",
                where="finite_types.FiniteModule",
            )
    for a in range(len(M.gens)):
        for b in range(a + 1, len(M.gens)):
            ga, gb = M.gens[a], M.gens[b]
            if gf.mat_mul(ga, gb, f) != gf.mat_mul(gb, ga, f):
                raise ValidationError(
                    "generator actions do not commute",
                    where="finite_types.FiniteModule",
                )
