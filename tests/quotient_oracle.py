"""The reductive quotient at a point, kept as a test oracle.

The library builds the members of a unipotent orbit and the H and E of
an sl2-triple unchecked (`graded.element_from_matrix`), since their
matrices stay on the piece's support.  The helpers below take the
checked route, so the tests can compare the two; `checked_conjugate` is
also the one conjugation by the quotient that the tests use:

- `random_quotient_element` draws an invertible class-preserving matrix,
  entry by entry over the residue classes of x, redrawing until it is
  invertible;
- `checked_element` builds an element through `GradedElement.make`,
  which refuses a coefficient off the support;
- `checked_conjugate` tests membership, then forms C A C^{-1} and builds
  it checked;
- `checked_orbit` closes phi's orbit under the unipotent image by full
  matrix products with I + c E_ij;
- `rank_profile` is the invariant that separates quotient orbits of
  degenerate elements, read as a whole and per residue class.
"""

from mptypes import gf
from mptypes.apartment import residue_classes
from mptypes.errors import ValidationError
from mptypes.graded import GradedElement, coefficient_matrix, unipotent_image


def rank_profile(cfg, phi):
    """The F_q ranks of the powers of phi's coefficient matrix, and of
    their column blocks on each residue class of x.  For degenerate
    elements of one piece, equal profiles mean conjugate under the block
    reductive quotient (cyclic-quiver rank classification, checked by
    orbit search at tiny sizes)."""
    classes = residue_classes(phi.x)
    global_ranks, block_ranks = gf.power_ranks(
        coefficient_matrix(cfg, phi), gf.prime_field(cfg.q), [idx for _, idx in classes]
    )
    return global_ranks, tuple(zip((res for res, _ in classes), block_ranks))


def random_quotient_element(cfg, x, rng):
    """An invertible matrix preserving the residue classes of x; each
    attempt draws the entries of each class block in class order."""
    n, field = x.n, gf.prime_field(cfg.q)
    while True:
        m = [[0] * n for _ in range(n)]
        for _, blk in residue_classes(x):
            for i in blk:
                for j in blk:
                    m[i][j] = rng.randrange(cfg.q)
        try:
            gf.mat_inv(m, field)
        except ValidationError:
            continue
        return tuple(tuple(r) for r in m)


def checked_element(cfg, x, degree, mat):
    """The nonzero entries of mat, reduced mod q, through GradedElement.make."""
    coeffs = {(i, j): v % cfg.q for i, row in enumerate(mat) for j, v in enumerate(row) if v % cfg.q}
    return GradedElement.make(cfg, x, degree, coeffs)


def is_quotient_member(cfg, x, c):
    """Whether c is an invertible n x n matrix preserving the residue classes of x."""
    c = [[v % cfg.q for v in row] for row in c]
    if len(c) != x.n or any(len(row) != x.n for row in c):
        return False
    cls = {i: res for res, blk in residue_classes(x) for i in blk}
    if any(v and cls[i] != cls[j] for i, row in enumerate(c) for j, v in enumerate(row)):
        return False
    try:
        gf.mat_inv(c, gf.prime_field(cfg.q))
    except ValidationError:
        return False
    return True


def checked_conjugate(cfg, phi, c):
    """C A C^{-1}, built checked, or None when c is not a quotient member."""
    if not is_quotient_member(cfg, phi.x, c):
        return None
    field = gf.prime_field(cfg.q)
    a = coefficient_matrix(cfg, phi)
    b = gf.mat_mul(gf.mat_mul(c, a, field), gf.mat_inv(c, field), field)
    return checked_element(cfg, phi.x, phi.degree, b)


def checked_orbit(cfg, y, x, phi):
    """phi's orbit under im(G_{y>0} -> G_{x=0}), closed by matrix products."""
    n, q, field = cfg.n, cfg.q, gf.prime_field(cfg.q)
    gens = []
    for i, j in unipotent_image(cfg, y, x):
        for c in range(1, q):
            g = [list(r) for r in gf.identity(n)]
            g[i][j] = c
            g_inv = [list(r) for r in gf.identity(n)]
            g_inv[i][j] = -c % q
            gens.append((g, g_inv))
    start = coefficient_matrix(cfg, phi)
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for a in frontier:
            for g, g_inv in gens:
                b = gf.mat_mul(gf.mat_mul(g, a, field), g_inv, field)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(checked_element(cfg, phi.x, phi.degree, m) for m in seen)
