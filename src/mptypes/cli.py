"""Batch command surface over the library.

All mathematically relevant parameters are explicit flags or config-file
fields; environment variables are never consulted for them.  Outputs are
deterministic JSON (exact rationals as "a/b") and repeated runs with the
same seed and config agree byte for byte.  Exit codes: 0 success, 2
rejected input, 3 infeasible instance, 4 violated internal contract.

Each flag is declared once, as data (`_GLOBAL_FLAGS`, `_COMMANDS`).
`_scan` reads well-formed argv off those tables in one pass; argparse is
imported, and its parser built from the same tables, only for argv the
scan declines (`-h`, an abbreviation, an error), so every help text,
message and exit code there is argparse's own.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, Optional

from . import jsonio
from .apartment import (
    ApartmentPoint,
    GroupConfig,
    breakpoints,
    check_level,
    check_point,
    graded_support,
    mp_lattice,
)
from .errors import InfeasibleError, ToolkitError, ValidationError
from .graded import GradedElement, monomials
from .measures import build_measure_table, check_truncation, normalization, relation_slices
from .orbits import minimality_probe, sl2_complete
from .refine import DMPPair, enumerate_and_classify, refine_relation
from .solver import alt_probes_gl2, assemble_and_invert, choose_probes, solve_expansion
from .finite_types import FiniteModule, fork_field, verify_fork_identity

Q = Fraction


def _parse_point(cfg: GroupConfig, text: str, *, flag: str) -> ApartmentPoint:
    try:
        coords = [jsonio.parse_frac(c.strip()) for c in text.split(",")]
    except ToolkitError:
        raise ValidationError(f"cannot parse {flag}={text!r}", where="cli")
    if len(coords) != cfg.n:
        raise ValidationError(
            f"{flag} has {len(coords)} coordinates, expected {cfg.n}", where="cli"
        )
    return ApartmentPoint.of(coords)


def _parse_phi(cfg: GroupConfig, x: ApartmentPoint, s: Q, text: str) -> GradedElement:
    """Coefficients as 1-based triples 'i,j,c' separated by ';'; '0' is zero.

    A triple that is not three integers, or a position given twice, is
    rejected input.
    """
    text = text.strip()
    if text in ("", "0"):
        return GradedElement.zero(x, -s)
    coeffs: Dict = {}
    for item in text.split(";"):
        try:
            i, j, c = (int(p) for p in item.split(","))
        except ValueError:
            raise ValidationError(f"bad coefficient triple {item!r}", where="cli") from None
        if (i - 1, j - 1) in coeffs:
            raise ValidationError(f"position ({i},{j}) given twice in --phi", where="cli")
        coeffs[(i - 1, j - 1)] = c
    return GradedElement.make(cfg, x, -s, coeffs)


# Every flag, declared once, as flag -> (dest, type, default, help).  A type
# of bool is a store_true switch; a default of ... marks a required flag.  A
# global flag is accepted on either side of the subcommand and its default is
# the built-in value, filled in by `_apply_defaults` after the config file.
_GLOBAL_FLAGS = {
    "--config": ("config", str, None, "JSON config file; explicit flags win"),
    "--n": ("n", int, 2, "matrix size (GL_n)"),
    "--q": ("q", int, 5, "residue field size (prime)"),
    "--m": ("m", int, 16, "denominator bound"),
    "--K": ("K", int, 2, "truncation level"),
    "--seed": ("seed", int, 0, "seed for randomized runs"),
    "--bound": ("bound", int, 10**6, "enumeration bound"),
    "--input": ("input", str, None, "input JSON file"),
    "--output": ("output", str, None, "output file (default stdout)"),
    "--allow-small-p": (
        "allow_small_p", bool, False, "suppress the warning for q below the large-p hypothesis"
    ),
}
_NO_SAMPLES = "no effect on the output (the certificate draws no samples)"
# subcommand -> (help, its own flags)
_COMMANDS = {
    "lattice": ("filtration lattice and graded support at (x, s)", {
        "--x": ("x", str, ..., "point, e.g. '1/2,0'"),
        "--s": ("s", str, ..., "level, e.g. '1/2'"),
        "--strict": ("strict", bool, False, None),
    }),
    "lift": ("orbit lift, minimality certificate and triple completion", {
        "--x": ("x", str, ..., None),
        "--s": ("s", str, ..., None),
        "--phi": ("phi", str, ..., "triples 'i,j,c;...' (1-based), or '0'"),
        "--samples": ("samples", int, 200, "must be >= 1; " + _NO_SAMPLES),
        "--depth": ("depth", int, 3, _NO_SAMPLES),
    }),
    "breakpoints": ("geodesic subdivision with certificates", {
        f"--{d}": (d, str, ..., None) for d in ("x0", "s0", "x1", "s1")
    }),
    "refine": ("emit and verify one refinement relation", {
        "--y": ("y", str, ..., "coarse point"),
        "--tau": ("tau", str, ..., "coarse level"),
        "--phi": ("phi", str, ..., "coarse element triples"),
        "--x": ("x", str, ..., "finer point"),
        "--s": ("s", str, ..., "finer level"),
        "--modules": ("modules", int, 10, "random modules for the multiplicity check"),
    }),
    "measure": ("measure table, triangularity, independence", {
        "--r": ("r", str, "0", "depth bound for the probe catalog"),
        "--alt-probes": ("alt_probes", bool, False, "use the alternate GL_2 catalog"),
    }),
    "solve": ("expansion coefficients from a multiplicity vector", {
        "--matrix": ("matrix", str, None, "reuse a persisted coefficient matrix"),
        "--save-matrix": ("save_matrix", str, None, "persist the coefficient matrix for reuse"),
    }),
    "selftest": ("run the acceptance suite", {}),
}


@functools.cache
def _build_parser():
    """The argparse parser of the flag tables: only argv the scan declines
    (`-h`, an abbreviation, an error) pays for importing and building it.

    Cached: parse_args never mutates it and starts each parse from a fresh
    namespace, so no call leaks into the next."""
    import argparse

    def add(parser, flags, suppress=False):
        for flag, (dest, kind, default, text) in flags.items():
            more = {"action": "store_true"} if kind is bool else {"type": kind, "required": default is ...}
            default = argparse.SUPPRESS if suppress else None if default is ... else default
            parser.add_argument(flag, dest=dest, default=default, help=text, **more)

    # global flags live on a parent so they are accepted on either side
    # of the subcommand; SUPPRESS keeps the later parser from clobbering
    # values the earlier one already set
    common = argparse.ArgumentParser(add_help=False)
    add(common.add_argument_group("global options"), _GLOBAL_FLAGS, suppress=True)
    p = argparse.ArgumentParser(
        prog="mptypes",
        description="Exact filtration, coset-refinement and expansion computations for GL_n over F_q((t))",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, flags) in _COMMANDS.items():
        add(sub.add_parser(name, parents=[common], help=text), flags)
    return p


def _scan(argv: List[str]) -> Optional[SimpleNamespace]:
    """`parse_args`'s values for well-formed argv, read off the flag tables in
    one pass: exact flags as `--flag value` or `--flag=value`, global ones on
    either side of the subcommand, the later value winning, as argparse's.
    None on anything else: `-h`, an inexact flag, a separate value empty or
    starting with `-`, a missing flag, a bad int."""
    own, values, required, it = {}, {}, set(), iter(argv)
    for arg in it:
        if arg[:1] != "-":
            if "command" in values or arg not in _COMMANDS:
                return None
            own = _COMMANDS[arg][1]
            values["command"] = arg
            for dest, _, default, _ in own.values():
                if default is ...:
                    required.add(dest)
                else:
                    values[dest] = default
            continue
        name, eq, value = arg.partition("=")
        if arg in own or arg in _GLOBAL_FLAGS:
            name, value = arg, None
        elif not eq or value == "--":
            return None
        row = own.get(name) or _GLOBAL_FLAGS.get(name)
        if row is None or (value is not None and row[1] is bool):
            return None
        dest, kind, _, _ = row
        if kind is bool:
            value = True
        elif value is None and (value := next(it, ""))[:1] in ("", "-"):
            return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[dest] = value
        required.discard(dest)
    return SimpleNamespace(**values) if "command" in values and not required else None


_GLOBAL_DEFAULTS = {dest: default for dest, _, default, _ in _GLOBAL_FLAGS.values()}

# JSON types a config field accepts; a bool is never an int here
_CONFIG_TYPES = {
    dest: (str, type(None)) if kind is str else kind
    for dest, kind, _, _ in _GLOBAL_FLAGS.values() if dest != "config"
}


def _require_positive(value: int, flag: str) -> None:
    if value < 1:
        raise ValidationError(f"{flag} must be >= 1, got {value}", where="cli")


def _apply_defaults(args) -> None:
    """Fill missing global options: flags > config file > built-ins."""
    merged = dict(_GLOBAL_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        data = _read_json(config_path, "the config file")
        if not isinstance(data, dict):
            raise ValidationError("the config file must hold a JSON object", where="cli")
        bad = set(data) - set(_CONFIG_TYPES)
        if bad:
            raise ValidationError(f"unknown config fields {sorted(bad)}", where="cli")
        for key, value in sorted(data.items()):
            kind = _CONFIG_TYPES[key]
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise ValidationError(
                    f"config field {key!r} has the wrong type: {value!r}", where="cli"
                )
        merged.update(data)
    for key, value in merged.items():
        if not hasattr(args, key):
            setattr(args, key, value)


def _read_json(path: str, what: str):
    """The JSON value in the file at `path`; a file that cannot be read or
    parsed is rejected input, named by `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}", where="cli") from exc


def _write_text(path: str, text: str, what: str) -> None:
    """Write `text` to the file at `path`; a path that cannot be written is
    rejected input, named by `what`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what} {path!r}: {exc}", where="cli") from exc


def _emit(args, payload: dict) -> None:
    text = jsonio.dump(payload)
    if args.output:
        _write_text(args.output, text, "the --output file")
    else:
        sys.stdout.write(text)


def _cmd_lattice(cfg, args) -> dict:
    x = _parse_point(cfg, args.x, flag="--x")
    s = jsonio.parse_frac(args.s)
    shape = mp_lattice(cfg, x, s, strict=args.strict)
    sup = graded_support(cfg, x, s)
    return {
        "lattice": jsonio.shape_to_json(shape),
        "graded_support": {
            "degree": jsonio.frac_str(s),
            "dim": sup.dim,
            "monomials": [[i + 1, j + 1, w] for (i, j), w in sup.entries],
        },
    }


def _cmd_lift(cfg, args) -> dict:
    _require_positive(args.samples, "--samples")
    x = _parse_point(cfg, args.x, flag="--x")
    s = jsonio.parse_frac(args.s)
    check_point(cfg, x, where="cli.lift")
    check_level(cfg, s, where="cli.lift")
    phi = _parse_phi(cfg, x, s, args.phi)
    pair = DMPPair.make(cfg, s, x, phi)
    out = {
        "pair": jsonio.pair_to_json(pair),
        "lift": jsonio.orbit_to_json(pair.lift),
        "minimality_probe": minimality_probe(cfg, pair),
    }
    if cfg.q > 2 * cfg.n:
        triple = sl2_complete(cfg, phi)
        out["sl2"] = {
            "H": _lift_json(cfg, triple.H),
            "E": _lift_json(cfg, triple.E),
        }
    else:
        out["sl2"] = {"skipped": f"q = {cfg.q} <= 2n = {2 * cfg.n}"}
    return out


def _lift_json(cfg, phi: GradedElement) -> List[List[List[List[int]]]]:
    """phi's homogeneous lift: [[w, c]] at each monomial c t^w, [] elsewhere."""
    rows = [[[] for _ in range(cfg.n)] for _ in range(cfg.n)]
    for i, j, w, c in monomials(phi):
        rows[i][j] = [[w, c]]
    return rows


def _cmd_breakpoints(cfg, args) -> dict:
    x0 = _parse_point(cfg, args.x0, flag="--x0")
    x1 = _parse_point(cfg, args.x1, flag="--x1")
    plan = breakpoints(cfg, x0, jsonio.parse_frac(args.s0), x1, jsonio.parse_frac(args.s1))
    return {"plan": plan}


def _cmd_refine(cfg, args) -> dict:
    _require_positive(args.modules, "--modules")
    check_truncation(args.K)  # before the incidence is classified
    y = _parse_point(cfg, args.y, flag="--y")
    tau = jsonio.parse_frac(args.tau)
    check_point(cfg, y, where="cli.refine")
    check_level(cfg, tau, where="cli.refine")
    phi = _parse_phi(cfg, y, tau, args.phi)
    coarse = DMPPair.make(cfg, tau, y, phi)
    x = _parse_point(cfg, args.x, flag="--x")
    s = jsonio.parse_frac(args.s)
    check_point(cfg, x, where="cli.refine")
    check_level(cfg, s, where="cli.refine")
    if args.modules > args.bound:
        raise InfeasibleError(
            f"{args.modules} modules exceed bound {args.bound}", where="cli.refine"
        )
    # classified once, with the cross-check; the relation and the fork
    # identity both read this decomposition
    decomposition = enumerate_and_classify(cfg, coarse, (x, s), bound=args.bound)
    rec = refine_relation(cfg, coarse, (x, s), decomposition=decomposition)
    slices = relation_slices(cfg, rec, args.K, enum_bound=args.bound)
    field = fork_field(cfg)
    rng = random.Random(f"cli-refine:{args.seed}")
    modules = (
        FiniteModule.random(cfg, field, x, s, rng.randrange(1, 7), rng)
        for _ in range(args.modules)
    )
    fork_ok = verify_fork_identity(cfg, modules, decomposition)
    return {
        "record": jsonio.record_to_json(cfg, rec),
        "verification": {
            "measure_slices": {str(o): ok for o, ok in slices.items()},
            "fork_identity": {"modules": args.modules, "all_pass": fork_ok},
        },
    }


def _default_matrix(cfg, args, r, known=()):
    catalog = alt_probes_gl2 if getattr(args, "alt_probes", False) else choose_probes
    table = build_measure_table(cfg, catalog(cfg, r, known), args.K, enum_bound=args.bound)
    return table, assemble_and_invert(cfg, table)


def _cmd_measure(cfg, args) -> dict:
    r = jsonio.parse_frac(args.r)
    table, cm = _default_matrix(cfg, args, r)
    return {
        "table": jsonio.table_to_json(table),
        # written only once assemble_and_invert has checked M A = I exactly
        "independence": True,
        "matrix": jsonio.matrix_to_json(cm),
    }


def _cmd_solve(cfg, args) -> dict:
    check_truncation(args.K)
    if not args.input:
        raise ValidationError("solve requires --input", where="cli.solve")
    # each distinct JSON pair of this job is checked once: the matrix's
    # probes and the rebuilt catalog reuse the vector's pairs
    seen: Dict[str, DMPPair] = {}
    vec = jsonio.mult_vector_from_json(cfg, _read_json(args.input, "the --input file"), seen)
    if args.matrix:
        cm = jsonio.matrix_from_json(cfg, _read_json(args.matrix, "the --matrix file"), seen)
        if cm.normalization != normalization(args.K):
            raise ValidationError(
                f"the --matrix file has normalization {cm.normalization!r}; "
                f"K = {args.K} needs {normalization(args.K)!r}",
                where="cli.solve",
            )
    else:
        _, cm = _default_matrix(cfg, args, vec.r, [p for p, _ in vec.entries])
    if args.save_matrix:
        text = jsonio.dump(jsonio.matrix_to_json(cm))
        _write_text(args.save_matrix, text, "the --save-matrix file")
    res = solve_expansion(cfg, vec, cm)
    return {"expansion": jsonio.expansion_to_json(res)}


def _cmd_selftest(args) -> int:
    from .selftest import run_all  # only this command runs the acceptance suite

    results = run_all(seed=args.seed)
    return 0 if all(r.passed for r in results) else 4


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _scan(argv) or _build_parser().parse_args(argv)
        _apply_defaults(args)
        _require_positive(args.bound, "--bound")
        with warnings.catch_warnings():
            if args.allow_small_p:
                warnings.simplefilter("ignore")
            else:
                warnings.simplefilter("default")

                def _to_stderr(message, category, filename, lineno, file=None, line=None):
                    print(f"warning: {message}", file=sys.stderr)

                warnings.showwarning = _to_stderr
            cfg = GroupConfig(n=args.n, q=args.q, m=args.m)
            if args.command == "selftest":
                return _cmd_selftest(args)
            dispatch = {
                "lattice": _cmd_lattice,
                "lift": _cmd_lift,
                "breakpoints": _cmd_breakpoints,
                "refine": _cmd_refine,
                "measure": _cmd_measure,
                "solve": _cmd_solve,
            }
            payload = dispatch[args.command](cfg, args)
        _emit(args, payload)
        return 0
    except ToolkitError as exc:
        error = {"error": {"where": exc.where, "message": str(exc), "code": exc.exit_code}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - defects map to the contract code
        error = {"error": {"where": "internal", "message": f"{type(exc).__name__}: {exc}", "code": 4}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
