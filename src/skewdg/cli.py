"""Command-line interface.

Input files are JSON: {"n": 3, "matrix": [["1", "0", "1"], ...]} with
rationals as strings.  Structured output is line-delimited JSON with
rationals as strings (deterministic key order); --pretty switches to an
indented human-readable rendering.

Exit codes: 0 success, 1 malformed input, 2 unsupported case, 3 internal
cross-check inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .classify import classify, theorem_c
from .dg import DgSpec, InternalConsistencyError, cy_probe
from .finalg import FinAlg, AlgebraError, frobenius, radical_filtration, recognize_truncated, socle_dim
from .linalg import Mat
from .qpl import UnsupportedSize, aut_group, iso_solve
from .report import analyze
from .resolution import (
    InfinitePattern,
    UnsupportedCase,
    build_resolution,
    ext_algebra,
    verify_resolution,
)
from .skew import SkewElement, graded_basis

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_INCONSISTENT = 3


class InputError(ValueError):
    pass


def load_matrix(path: str) -> Mat:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    try:
        n = int(data["n"])
        if n < 1:
            raise InputError("n must be at least 1, got %d" % n)
        rows = data["matrix"]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError("matrix must be %d x %d" % (n, n))
        return Mat([[Fraction(str(x)) for x in row] for row in rows])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError("malformed input %s: %s" % (path, exc))


def load_algebra(path: str) -> FinAlg:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    try:
        dim = int(data["dim"])
        unit = [Fraction(str(x)) for x in data["unit"]]
        flat = [Fraction(str(x)) for x in data["structure"]]
        return FinAlg.from_flat(dim, unit, flat)
    except AlgebraError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError("malformed structure file %s: %s" % (path, exc))


def nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise InputError("%s must be non-negative, got %d" % (flag, value))
    return value


def emit(record: dict, pretty: bool):
    if pretty:
        print(json.dumps(record, indent=2, sort_keys=True, default=str))
    else:
        print(json.dumps(record, sort_keys=True, default=str))


# -- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    m = load_matrix(args.input)
    spec = DgSpec(m)
    n = spec.n
    max_deg = nonnegative(args.max_degree, "--max-degree")
    square_zero = True
    for d in range(max_deg + 1):
        for mono in graded_basis(n, d):
            elt = SkewElement(n, {mono: 1})
            if not spec.differential(spec.differential(elt)).is_zero():
                square_zero = False
    leibniz = True
    for da in (1, 2):
        for ma in graded_basis(n, da):
            for db in (1, 2):
                for mb in graded_basis(n, db):
                    a = SkewElement(n, {ma: 1})
                    b = SkewElement(n, {mb: 1})
                    lhs = spec.differential(a * b)
                    rhs = spec.differential(a) * b + (a * spec.differential(b)).scale(
                        -1 if da % 2 else 1)
                    if lhs != rhs:
                        leibniz = False
    emit({"check": "validate", "square_zero_up_to_degree": max_deg,
          "square_zero": square_zero, "leibniz_on_low_degrees": leibniz}, args.pretty)
    return EXIT_OK if (square_zero and leibniz) else EXIT_INCONSISTENT


def cmd_cohomology(args) -> int:
    m = load_matrix(args.input)
    dmax = nonnegative(args.max_degree, "--max-degree")
    record = DgSpec(m).cohomology(max(dmax, 2)).as_dict()
    record["dims"] = record["dims"][: dmax + 1]
    emit({"check": "cohomology", **record}, args.pretty)
    return EXIT_OK


def cmd_classify(args) -> int:
    m = load_matrix(args.input)
    if m.rows != 3:
        raise UnsupportedCase("classification requires n = 3")
    label = classify(m)
    verdict = theorem_c(m)
    emit({"check": "classify", "classification": label.as_dict(),
          **verdict.as_dict()}, args.pretty)
    return EXIT_OK


def cmd_probe(args) -> int:
    m = load_matrix(args.input)
    if m.rows != 3:
        raise UnsupportedCase("the probe requires n = 3")
    emit({"check": "probe", **cy_probe(DgSpec(m)).as_dict()}, args.pretty)
    return EXIT_OK


def cmd_iso(args) -> int:
    a = load_matrix(args.first)
    b = load_matrix(args.second)
    if a.rows != b.rows:
        raise InputError("the two matrices have different sizes (%d and %d)" % (a.rows, b.rows))
    result = iso_solve(a, b)
    emit({"check": "iso", **result.as_dict()}, args.pretty)
    return EXIT_OK


def cmd_aut(args) -> int:
    m = load_matrix(args.input)
    families = aut_group(m)
    emit({"check": "aut", "families": [f.as_dict() for f in families]}, args.pretty)
    return EXIT_OK


def cmd_resolve(args) -> int:
    m = load_matrix(args.input)
    nonnegative(args.verify, "--verify")
    if m.rows != 3:
        raise UnsupportedCase("resolutions are constructed for n = 3")
    built = build_resolution(m, truncate=args.truncate)
    if isinstance(built, InfinitePattern):
        emit({"check": "resolve", **built.as_dict()}, args.pretty)
        return EXIT_OK
    record = {"check": "resolve", "homologically_smooth": True, **built.as_dict()}
    code = EXIT_OK
    if args.verify:
        check = verify_resolution(built.spec, built, dmax=args.verify)
        record["verification"] = check.as_dict()
        if not check.passed:
            code = EXIT_INCONSISTENT
    emit(record, args.pretty)
    return code


def cmd_ext(args) -> int:
    m = load_matrix(args.input)
    if m.rows != 3:
        raise UnsupportedCase("Ext computation requires n = 3")
    built = build_resolution(m, truncate=args.truncate)
    if isinstance(built, InfinitePattern):
        emit({"check": "ext", "homologically_smooth": False,
              "relation": [str(t) for t in built.relation_coeffs]}, args.pretty)
        return EXIT_OK
    ext = ext_algebra(built)
    frob = frobenius(ext, seed=args.seed)
    emit({"check": "ext", "dim": ext.dim,
          "socle_dim": socle_dim(ext) if ext.is_local() else None,
          "radical_filtration": radical_filtration(ext),
          "truncated_polynomial": recognize_truncated(ext),
          "frobenius": frob.as_dict()}, args.pretty)
    return EXIT_OK


def cmd_frobenius(args) -> int:
    alg = load_algebra(args.structure)
    verdict = frobenius(alg, seed=args.seed)
    record = {"check": "frobenius", "dim": alg.dim, **verdict.as_dict()}
    if alg.is_commutative() and alg.is_local():
        record["socle_dim"] = socle_dim(alg)
        record["radical_filtration"] = radical_filtration(alg)
        record["truncated_polynomial"] = recognize_truncated(alg)
    emit(record, args.pretty)
    return EXIT_OK


def cmd_report(args) -> int:
    m = load_matrix(args.input)
    result = analyze(m, dmax=nonnegative(args.max_degree, "--max-degree"),
                     truncate=args.truncate)
    emit({"check": "report", **result.as_dict()}, args.pretty)
    return EXIT_OK if result.consistent else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewdg",
        description="Exact analysis of DG algebra structures on quantum affine space",
    )
    parser.add_argument("--pretty", action="store_true", help="indented human-readable output")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the Frobenius certificate search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check d^2 = 0 and the Leibniz rule on the input")
    p.add_argument("input")
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="brute-force cohomology dimensions")
    p.add_argument("input")
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("classify", help="case taxonomy and Calabi-Yau verdict")
    p.add_argument("input")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("probe", help="cohomological Calabi-Yau probe")
    p.add_argument("input")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("iso", help="decide isomorphism of two DG structures")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("aut", help="automorphism group description")
    p.add_argument("input")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("resolve", help="minimal semifree resolution of the trivial module")
    p.add_argument("input")
    p.add_argument("--truncate", type=int, default=8,
                   help="size cap for non-smooth truncations")
    p.add_argument("--verify", type=int, default=0, metavar="N",
                   help="verify exactness through cohomological degree N-1")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("ext", help="Ext-algebra of the trivial module")
    p.add_argument("input")
    p.add_argument("--truncate", type=int, default=8)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("frobenius", help="Frobenius analysis of a structure-constant file")
    p.add_argument("structure")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("report", help="full cross-checked analysis")
    p.add_argument("input")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--truncate", type=int, default=8)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, AlgebraError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except (UnsupportedCase, UnsupportedSize) as exc:
        print("unsupported: %s" % exc, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InternalConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
