"""The trace-first coset sampler, kept as a test oracle.

`orbits.minimality_probe` certifies lift minimality without drawing
anything.  The tests check the rank bound it proves on random elements
of phi + g_{x>-s}, and most of those are not nilpotent.
`trace_zero_samples` filters them cheaply: it draws a sample's diagonal
first and stops at the first nonzero trace coefficient, which proves the
sample is not nilpotent.  `uniform_draws` takes its coefficients from
the random module in blocks and reproduces rng.randrange(q) exactly, so
the draws are uniform.
"""

import random
from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

from mptypes import orbits
from mptypes.apartment import ApartmentPoint, GroupConfig, mp_lattice
from mptypes.graded import GradedElement, monomials
from mptypes.laurent import LMatrix, ser_add


@lru_cache(maxsize=256)
def byte_tables(q: int) -> Tuple[bytes, bytes]:
    """(table, reject) for bytes.translate: a word's top byte b gives the
    draw b >> (8 - k), k = q.bit_length(), and is deleted when that is >= q."""
    shift = 8 - q.bit_length()
    table = bytes(b >> shift for b in range(256))
    return table, bytes(b for b in range(256) if b >> shift >= q)


def uniform_draws(rng: random.Random, q: int, count: int) -> Sequence[int]:
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
    table, reject = byte_tables(q)
    getrandbits = rng.getrandbits
    out = b""
    while len(out) < count:
        words = 2 * (count - len(out)) + 16  # acceptance is at least 1/2
        out += getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(
            table, reject
        )
    return out[:count]


def draw_stream(rng: random.Random, q: int, block: int = 1024) -> Iterator[int]:
    """Uniform values in range(q) from rng, taken `block` at a time."""
    while True:
        yield from uniform_draws(rng, q, block)


def trace_zero_samples(
    cfg: GroupConfig,
    s: Q,
    x: ApartmentPoint,
    phi: GradedElement,
    samples: int,
    depth: int,
    seed: int,
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
    matrix.
    """
    q, n = cfg.q, cfg.n
    bounds = mp_lattice(cfg, x, -s, strict=True, _checked=True).bounds
    spans = [[range(b, depth + 1) for b in row] for row in bounds]
    lift = {(i, j): ((w, c),) for i, j, w, c in monomials(phi)}
    trace_exponents = spans[0][0]  # every diagonal strict bound is floor(-s) + 1
    draw = draw_stream(random.Random(f"minimality:{seed}"), q).__next__
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
                    rows[i][j] = ser_add(lift.get((i, j), ()), zip(span, drawn), q)
            yield LMatrix.from_rows(q, rows)


def trace_first_probe(
    cfg: GroupConfig,
    s: Q | int | str,
    x: ApartmentPoint,
    phi: GradedElement,
    samples: int,
    depth: int,
    seed: int,
) -> bool:
    """Falsification run for lift minimality; True means no counterexample:
    every nilpotent among the trace-zero samples has a Jordan type
    dominating the lift."""
    s = Q(s)
    lift_orbit = orbits.debacker_lift(cfg, s, phi)
    return all(
        orbits.dominance_leq(lift_orbit, orbits.jordan_type(sample))
        for sample in trace_zero_samples(cfg, s, x, phi, samples, depth, seed)
        if sample.is_nilpotent()
    )
