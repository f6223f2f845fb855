"""The extension characters of an incidence, kept as a test oracle.

`extension_characters` lists every character of the finer graded piece
that extends the coarse one, built from the finer-coset decomposition
and checked against an independent enumeration (exponents fixed on the
restricted sub-piece by `_coarse_exponent`, free elsewhere).  The
library's fork identity reads the same exponents through
`finite_types._Incidence`; the tests compare the two.
"""

import itertools
from fractions import Fraction as Q
from typing import List, Optional, Tuple

from mptypes import gf
from mptypes.apartment import ApartmentPoint, GroupConfig, graded_support
from mptypes.errors import InternalFault
from mptypes.finite_types import AdditiveCharacter, _restricted_positions, build_character
from mptypes.graded import monomials
from mptypes.refine import DMPPair, enumerate_and_classify


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
    classes = enumerate_and_classify(cfg, coarse, finer)
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
    return next((c for a, b, v, c in monomials(coarse.phi) if (a, b, v) == (j, i, -w)), 0)

