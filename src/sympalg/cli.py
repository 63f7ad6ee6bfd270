"""Command-line driver: every operation behind JSON-emitting subcommands.

All commands are deterministic given their flags (randomized checks take an
explicit --seed), echo their full configuration into the report, and print
canonical JSON (sorted keys) so identical invocations are byte-identical.
Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .kernels import (
    orthogonal_harmonic_kernel,
    symplectic_harmonic_kernel,
    symplectic_monogenic_kernel,
)
from .poly import Poly, parse_poly, poly_from_json
from .roots import NotDominant, Weight, weyl_dim
from .suites import run_suite
from .tensor import cartan_product, tensor_with_spinor
from .transvector import (
    NotHomogeneous,
    SingularWeight,
    dirac_sl2_triple,
    extremal_project,
    rs_apply,
    rs_calibrate,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2


class InputError(ValueError):
    """User input rejected before dispatch."""


def _emit(report: dict, args) -> None:
    if getattr(args, "pretty", False):
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _load_poly(path: str, n: int, N: int) -> Poly:
    """Read a polynomial file: either the text grammar or JSON
    (a term list, or an object with a "poly" key holding one)."""
    if n < 1:
        raise InputError(f"--n must be at least 1, got {n}")
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except RecursionError as exc:
            raise InputError("JSON input is nested too deeply") from exc
        if isinstance(data, dict):
            data = data.get("poly")
            if data is None:
                raise InputError('JSON object input needs a "poly" key')
        return poly_from_json(data, n, N)
    return parse_poly(stripped, n, N)


# -- subcommands -------------------------------------------------------------


def cmd_dim(args) -> int:
    weight = Weight.parse(args.weight, args.n)
    try:
        dim = weyl_dim(weight)
    except NotDominant as exc:
        raise InputError(f"not dominant: {exc}") from exc
    _emit(
        {
            "config": {"command": "dim", "n": args.n, "weight": args.weight},
            "weight": weight.to_json(),
            "dimension": dim,
        },
        args,
    )
    return EXIT_OK


def cmd_kernel(args) -> int:
    degrees = [int(d) for d in args.degrees.split(",")]
    config = {
        "command": "kernel",
        "kind": args.kind,
        "n": args.n,
        "degrees": degrees,
        "zMax": args.zmax,
    }
    if args.zmax is not None and args.kind != "symplectic-monogenic":
        raise InputError(f"--zmax applies only to symplectic-monogenic, not {args.kind}")
    if args.kind == "symplectic-harmonic":
        kb = symplectic_harmonic_kernel(args.n, len(degrees), degrees, args.basis)
    elif args.kind == "symplectic-monogenic":
        if args.zmax is None:
            raise InputError("symplectic-monogenic needs --zmax")
        kb = symplectic_monogenic_kernel(args.n, len(degrees), degrees, args.zmax)
    elif args.kind == "orthogonal-harmonic":
        if len(degrees) != 1:
            raise InputError("orthogonal-harmonic takes a single degree")
        kb = orthogonal_harmonic_kernel(args.n, degrees[0])
    else:
        raise InputError(f"unknown kernel kind {args.kind!r}")
    report = kb.to_json(include_basis=args.basis)
    report["config"] = config
    _emit(report, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.n, args.N, seed=args.seed)
    passed = all(r.passed for r in reports)
    _emit(
        {
            "config": {
                "command": "verify",
                "suite": args.suite,
                "n": args.n,
                "N": args.N,
                "seed": args.seed,
            },
            "passed": passed,
            "suites": [r.to_json() for r in reports],
        },
        args,
    )
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_tensor(args) -> int:
    if args.with_ != "spinor":
        raise InputError("only --with spinor is supported")
    lam = Weight.parse(args.weight, args.n)
    even, odd = cartan_product(lam)
    summands = None if args.cartan_only else tensor_with_spinor(lam)
    report = {
        "config": {
            "command": "tensor",
            "n": args.n,
            "weight": args.weight,
            "with": args.with_,
            "cartanOnly": args.cartan_only,
        },
        "cartanProduct": [even.to_json(), odd.to_json()],
    }
    if summands is not None:
        report["summands"] = [s.to_json() for s in summands]
    _emit(report, args)
    return EXIT_OK


def cmd_project(args) -> int:
    if args.triple != "sl2-u":
        raise InputError("only --triple sl2-u is supported")
    p = _load_poly(args.input, args.n, 2)
    triple = dirac_sl2_triple(args.n)
    try:
        result = extremal_project(triple, p)
    except (SingularWeight, NotHomogeneous) as exc:
        raise InputError(str(exc)) from exc
    report = result.to_json()
    report["config"] = {
        "command": "project",
        "triple": args.triple,
        "n": args.n,
        "input": args.input,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_rs_apply(args) -> int:
    denom: Optional[Fraction]
    if args.denominator == "auto":
        denom = None
    else:
        try:
            denom = Fraction(args.denominator)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad denominator {args.denominator!r}") from exc
    p = _load_poly(args.input, args.n, 2)
    try:
        result = rs_apply(p, args.k, args.n, denom)
    except (ZeroDivisionError, NotHomogeneous) as exc:
        raise InputError(str(exc)) from exc
    _emit(
        {
            "config": {
                "command": "rs-apply",
                "k": args.k,
                "n": args.n,
                "denominator": args.denominator,
                "input": args.input,
            },
            "result": result.to_json(),
        },
        args,
    )
    return EXIT_OK


def cmd_rs_calibrate(args) -> int:
    candidates = None
    if args.candidates is not None:
        try:
            candidates = [Fraction(c) for c in args.candidates.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad candidate list {args.candidates!r}") from exc
    try:
        report = rs_calibrate(args.k, args.n, args.zmax, candidates, strict=args.strict)
    except ZeroDivisionError as exc:
        raise InputError(str(exc)) from exc
    data = report.to_json()
    data["config"] = {
        "command": "rs-calibrate",
        "k": args.k,
        "n": args.n,
        "zMax": args.zmax,
        "candidates": args.candidates,
        "strict": args.strict,
    }
    _emit(data, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympalg",
        description="Exact polynomial models of sp(2n) representations",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indented JSON")
        p.add_argument("--output", help="also write the JSON report to this path")

    p = sub.add_parser("dim", help="Weyl dimension formula")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True, help="comma list, zero-padded to n")
    common(p)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("kernel", help="joint kernels of the model systems")
    p.add_argument(
        "--kind",
        required=True,
        choices=["symplectic-harmonic", "symplectic-monogenic", "orthogonal-harmonic"],
    )
    p.add_argument("--n", type=int, required=True,
                   help="rank (ambient real dimension for orthogonal-harmonic)")
    p.add_argument("--degrees", required=True, help="comma list, one per copy")
    p.add_argument("--zmax", type=int, default=None)
    p.add_argument("--basis", action="store_true", help="include basis vectors")
    common(p)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("verify", help="run a named exact-identity suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("tensor", help="tensor decomposition with the spinor module")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--with", dest="with_", default="spinor")
    p.add_argument("--cartan-only", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("project", help="extremal projector on a polynomial file")
    p.add_argument("--triple", default="sl2-u")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("rs-apply", help="symplectic Rarita-Schwinger operator")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--denominator", default="auto", help="auto = k+n+2")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(fn=cmd_rs_apply)

    p = sub.add_parser("rs-calibrate", help="sweep Rarita-Schwinger denominators")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zmax", type=int, required=True)
    p.add_argument("--candidates", default=None, help="comma list of rationals")
    p.add_argument("--strict", action="store_true",
                   help="also impose the simplicial constraints on the domain")
    common(p)
    p.set_defaults(fn=cmd_rs_calibrate)

    return parser


# flags whose value may be a negative rational such as -1/2, which argparse
# would read as an option unless it is attached as --flag=value
_RATIONAL_FLAGS = ("--denominator", "--candidates")


def _attach_rational_values(argv: Sequence[str]) -> List[str]:
    """A copy of argv with each rational flag joined to the word after it."""
    out: List[str] = []
    words = iter(argv)
    for word in words:
        value = next(words, None) if word in _RATIONAL_FLAGS else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_rational_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
