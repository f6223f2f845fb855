"""Exact correctness gate for benchmark job outputs.

Two kinds of check, both exact:

* reference: the mathematical content of each output (``content``) is
  hashed and compared with digests recorded from an earlier commit.
  Presentation fields (the plan's ``kind``, provenance, normalisation
  text, the sl2 triple, which is not unique) are left out, so a
  deliberate format change is not a failure.
* independent: identities that hold whatever the implementation
  (``verify``); they are the only check for a seed with no recorded
  reference.  This module uses no mptypes code, so it stays independent
  of the code it checks.  The one input it cannot derive itself, the
  counting measures of a relation's pairs, the caller recomputes with
  the library and passes in ``extra["components"]``; the relation is
  then evaluated here.  The fork-identity and minimality-probe verdicts
  depend on random modules and samples drawn inside the program, so
  only the recorded references pin them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction as Q
from math import ceil, floor
from typing import Dict, List, Sequence


def digest(obj) -> str:
    """Short content digest of a JSON-able object (48 bits is ample here)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# apartment formulas, re-derived from the model
# ---------------------------------------------------------------------------


def candidate_cuts(x0: Sequence[Q], s0: Q, x1: Sequence[Q], s1: Q) -> List[Q]:
    """Sorted t in [0, 1] where w + (x_t,i - x_t,j) - level_t = 0 for an integer w.

    level_t runs over s_t, -s_t and 0; 0 and 1 are always included.
    """
    cuts = {Q(0), Q(1)}
    n = len(x0)
    for i in range(n):
        for j in range(n):
            a0, a1 = x0[i] - x0[j], x1[i] - x1[j]
            for l0, l1 in ((s0, s1), (-s0, -s1), (Q(0), Q(0))):
                b0, b1 = a0 - l0, a1 - l1
                if b0 == b1:
                    continue
                for w in range(ceil(min(-b0, -b1)), floor(max(-b0, -b1)) + 1):
                    t = -(w + b0) / (b1 - b0)
                    if 0 <= t <= 1:
                        cuts.add(t)
    return sorted(cuts)


def lattice_bounds(x: Sequence[Q], s: Q, strict: bool) -> List[List[int]]:
    """ceil(s + x_j - x_i), or floor(...) + 1 for the strict lattice."""
    n = len(x)
    return [
        [floor(s + x[j] - x[i]) + 1 if strict else ceil(s + x[j] - x[i]) for j in range(n)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# content: what the reference digests cover
# ---------------------------------------------------------------------------


def _plan_content(plan: dict) -> dict:
    ends = plan["endpoints"]
    s0, s1 = Q(ends["s0"]), Q(ends["s1"])
    ts = [Q(t) for t in plan["breakpoints"]]
    intervals = []
    for k, cert in enumerate(plan["intervals"]):
        mid = (ts[k] + ts[k + 1]) / 2
        level = (1 - mid) * s0 + mid * s1
        # bound matrices at levels +-s_t; other levels (0) are not compared
        seen = {
            (Q(sh["provenance"]["s"]), sh["provenance"]["strict"]): sh["bounds"]
            for sh in cert["shapes"]
            if Q(sh["provenance"]["s"]) in (level, -level)
        }
        intervals.append([[str(lv), st, b] for (lv, st), b in sorted(seen.items())])
    return {"ts": plan["breakpoints"], "bounds": intervals}


def _pair_content(p: dict) -> list:
    return [p["s"], p["x"], p["phi"], p["lift"]]


def content(kind: str, out: dict, extra: dict) -> dict:
    """The mathematical content of one job's output."""
    if kind == "breakpoints":
        c = _plan_content(out["plan"])
        c["convexity"] = extra["convexity"]
        return c
    if kind == "refine":
        rec, ver = out["record"], out["verification"]
        return {
            "lhs": _pair_content(rec["lhs"]),
            "c": rec["c"],
            "base": _pair_content(rec["base"]),
            "terms": [[coef, _pair_content(p)] for coef, p in rec["terms"]],
            "counts": rec["provenance"]["counts"],
            "slices": ver["measure_slices"],
            "fork": ver["fork_identity"]["all_pass"],
        }
    if kind == "measure":
        return {
            "orbits": out["table"]["orbits"],
            "entries": out["table"]["entries"],
            "M": out["matrix"]["M"],
            "A": out["matrix"]["A"],
        }
    if kind == "solve":
        return {"coefficients": out["expansion"]["coefficients"]}
    if kind == "lift":
        return {
            "lift": out["lift"],
            "pair_lift": out["pair"]["lift"],
            "minimality_probe": out["minimality_probe"],
        }
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# independent checks; each returns a list of problems (empty when exact)
# ---------------------------------------------------------------------------


def _verify_breakpoints(out: dict, extra: dict) -> List[str]:
    plan = out["plan"]
    ends = plan["endpoints"]
    x0, x1 = [Q(c) for c in ends["x0"]], [Q(c) for c in ends["x1"]]
    s0, s1 = Q(ends["s0"]), Q(ends["s1"])
    problems = []
    ts = [Q(t) for t in plan["breakpoints"]]
    if ts != candidate_cuts(x0, s0, x1, s1):
        problems.append("breakpoints differ from the candidate crossings")
    if len(plan["intervals"]) != len(ts) - 1:
        problems.append("interval count is not breakpoints - 1")
        return problems
    for k, cert in enumerate(plan["intervals"]):
        u = Q(cert["sample"])
        if not ts[k] < u < ts[k + 1]:
            problems.append(f"sample {u} outside interval {k}")
        xu = [(1 - u) * a + u * b for a, b in zip(x0, x1)]
        for sh in cert["shapes"]:
            prov = sh["provenance"]
            level, strict = Q(prov["s"]), prov["strict"]
            if [Q(c) for c in prov["x"]] != [c - xu[-1] for c in xu]:
                problems.append(f"interval {k} shape not at the sample point")
            if sh["bounds"] != lattice_bounds(xu, level, strict):
                problems.append(f"interval {k} bounds wrong at level {level}")
    if extra["convexity"] is not True:
        problems.append("convexity_check returned False")
    return problems


def _verify_refine(out: dict, q: int, components: Dict[str, list]) -> List[str]:
    """Counts, coefficients, and the relation on each orbit slice:
    lhs = c * base + sum of coef * term over the measures in `components`
    (per slice: lhs, base, then the terms in order)."""
    rec, ver = out["record"], out["verification"]
    problems = []
    counts = rec["provenance"]["counts"]
    if counts["A"] + counts["B"] + counts["C"] != q ** rec["provenance"]["quotient_dim"]:
        problems.append("A + B + C differs from the subcoset count")
    base, exp = rec["c"].split("^")
    if int(base) != q or q ** int(exp) != counts["B"]:
        problems.append(f"c = {rec['c']} is not the B-count {counts['B']}")
    if len(rec["terms"]) != counts["C"]:
        problems.append("term count differs from the C-count")
    if any(Q(coef) != 1 for coef, _ in rec["terms"]):
        problems.append("C-term coefficient differs from 1")
    c = Q(q) ** int(exp)
    coefs = [Q(coef) for coef, _ in rec["terms"]]
    holds = {}
    for orbit, (lhs, base, *terms) in components.items():
        holds[orbit] = lhs == c * base + sum(a * t for a, t in zip(coefs, terms))
        if not holds[orbit]:
            problems.append(f"the relation fails on the measure slice {orbit}")
    if ver["measure_slices"] != holds:
        problems.append(f"printed slice verdicts {ver['measure_slices']} differ from {holds}")
    if ver["fork_identity"]["all_pass"] is not True:
        problems.append("fork identity failed")
    return problems


def _dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """a <= b in the dominance order (partial sums of b dominate those of a)."""
    sa = sb = 0
    for k in range(max(len(a), len(b))):
        sa += a[k] if k < len(a) else 0
        sb += b[k] if k < len(b) else 0
        if sa > sb:
            return False
    return True


def _rank(rows: Sequence[Sequence[Q]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _verify_measure(out: dict) -> List[str]:
    mat = out["matrix"]
    orbits = mat["orbits"]
    m = [[Q(v) for v in row] for row in mat["M"]]
    a = [[Q(v) for v in row] for row in mat["A"]]
    k = len(orbits)
    problems = []
    for i in range(k):
        for j in range(k):
            prod = sum(m[i][l] * a[l][j] for l in range(k))
            if prod != (1 if i == j else 0):
                problems.append(f"(M A)[{i}][{j}] = {prod}")
            if m[i][j] != 0 and not _dominates(orbits[i], orbits[j]):
                problems.append(f"M nonzero below the dominance order at ({i},{j})")
    table = out["table"]
    rows = {json.dumps(p, sort_keys=True): r for p, r in zip(table["probes"], table["entries"])}
    for p, row in zip(mat["probes"], mat["M"]):
        trow = rows.get(json.dumps(p, sort_keys=True))
        if trow is None or [Q(v) for v in trow] != [Q(v) for v in row]:
            problems.append("matrix row differs from the table row of its probe")
    rank = _rank([[Q(v) for v in row] for row in table["entries"]])
    if rank != len(table["entries"]) or out["independence"] is not True:
        problems.append(f"table rank {rank} of {len(table['entries'])} rows; "
                        f"printed independence {out['independence']}")
    return problems


def _verify_solve(out: dict, extra: dict) -> List[str]:
    """synthesize(solve(v)) = v: M times the solved coefficients gives v back."""
    mat = extra["matrix"]
    coeffs = {json.dumps(o): Q(c) for o, c in out["expansion"]["coefficients"]}
    c = [coeffs.get(json.dumps(o)) for o in mat["orbits"]]
    if None in c:
        return ["coefficients do not cover the matrix orbits"]
    vec = {json.dumps(p, sort_keys=True): n for p, n in extra["vector"]["entries"]}
    problems = []
    for probe, row in zip(mat["probes"], mat["M"]):
        v = vec.get(json.dumps(probe, sort_keys=True))
        back = sum(Q(mij) * cj for mij, cj in zip(row, c))
        if v is None or back != v:
            problems.append(f"M c = {back} differs from the input {v}")
    return problems


# Laurent matrices over F_q as lists of dicts {exponent: coefficient}


def _lmat(rows, q: int) -> List[List[Dict[int, int]]]:
    return [[{e: c % q for e, c in entry} for entry in row] for row in rows]


def _lmul(a, b, q: int):
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = out[i][j]
            for k in range(n):
                for e1, c1 in a[i][k].items():
                    for e2, c2 in b[k][j].items():
                        acc[e1 + e2] = (acc.get(e1 + e2, 0) + c1 * c2) % q
    return out


def _lcomb(terms, q: int):
    """sum of coef * matrix over (coef, matrix) terms, zero entries dropped."""
    n = len(terms[0][1])
    out = [[{} for _ in range(n)] for _ in range(n)]
    for coef, m in terms:
        for i in range(n):
            for j in range(n):
                for e, c in m[i][j].items():
                    out[i][j][e] = (out[i][j].get(e, 0) + coef * c) % q
    return [[{e: c for e, c in d.items() if c} for d in row] for row in out]


def _verify_lift(out: dict, n: int, q: int) -> List[str]:
    problems = []
    lift = out["lift"]
    if sorted(lift, reverse=True) != lift or sum(lift) != n or min(lift) < 1:
        problems.append(f"lift {lift} is not a partition of {n}")
    if out["pair"]["lift"] != lift:
        problems.append("pair lift differs from the reported lift")
    if out["minimality_probe"] is not True:
        problems.append("minimality probe found a counterexample")
    sl2 = out["sl2"]
    if "skipped" in sl2:
        problems.append(f"sl2 completion skipped: {sl2['skipped']}")
        return problems
    x = [Q(c) for c in out["pair"]["x"]]
    s = Q(out["pair"]["s"])
    phi = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, c in out["pair"]["phi"]:
        w = -s - x[i - 1] + x[j - 1]
        phi[i - 1][j - 1] = {int(w): c % q}
    h, e = _lmat(sl2["H"], q), _lmat(sl2["E"], q)

    def bracket(a, b):
        return _lcomb([(1, _lmul(a, b, q)), (-1, _lmul(b, a, q))], q)

    zero = _lcomb([(0, h)], q)
    for label, diff in (
        ("[H, Phi] = 2 Phi", _lcomb([(1, bracket(h, phi)), (-2, phi)], q)),
        ("[H, E] = -2 E", _lcomb([(1, bracket(h, e)), (2, e)], q)),
        ("[Phi, E] = H", _lcomb([(1, bracket(phi, e)), (-1, h)], q)),
    ):
        if diff != zero:
            problems.append(f"sl2 identity {label} fails")
    return problems


def verify(kind: str, out: dict, extra: dict) -> List[str]:
    if kind == "breakpoints":
        return _verify_breakpoints(out, extra)
    if kind == "refine":
        return _verify_refine(out, extra["q"], extra["components"])
    if kind == "measure":
        return _verify_measure(out)
    if kind == "solve":
        return _verify_solve(out, extra)
    if kind == "lift":
        return _verify_lift(out, extra["n"], extra["q"])
    raise ValueError(f"unknown job kind {kind!r}")
