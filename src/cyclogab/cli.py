"""Command-line front end: check patterns, build codes, certify, run the oracle.

Every command reads and writes JSON.  A build tries the fixed points
1, zeta, ..., zeta^(n-1) first (draw attempt 0, when the sample set size is
at least 2) and falls back to random draws; all randomness descends from the
single --seed value (draw attempt a >= 1 uses sample seed ``seed + a``), and
output files are emitted with sorted keys, so identical invocations produce
byte-identical files.

Exit codes: 0 on success / condition holds, 1 when the condition fails (in
``construct``, an InfeasiblePattern), the draws run out, the oracle's verdict
is not a proved nonzero, or a certificate does not pass, 2 on usage or input
errors.  Each input bound is checked once, by the library call it guards.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable

from .certify import DEFAULT_MAX_CHECKS, Certificate, build_subcode, certify_mrd
from .construction import (ConstructionResult, InfeasiblePattern, RetriesExhausted, construct,
                           required_sample_size)
from .cyclotomic import GaloisContext
from .gmmds import check_oracle_size, oracle_report, sweep_agreement
from .supports import SupportSpec, check_condition, complete_sets, required_dimension


def _dump(obj: dict) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    CPython's C encoder serves no indented layout, and its pure-Python one
    makes a call per value; here a list of strings is one join over the C
    string quoter.  Dict keys must be strings, and any value other than a
    dict, list, str, int, bool or None raises TypeError.
    """
    return _json(obj, "\n") + "\n"


def _json(value: object, newline: str) -> str:
    """JSON text of ``value`` in the layout of ``json.dumps(indent=2,
    sort_keys=True)``, where ``newline`` starts a line at its depth."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        if {*map(type, value)} == {str}:
            items = map(_quote, value)
        else:
            items = (_json(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("keys must be str")
        return ("{" + inner + ("," + inner).join(
            [_quote(key) + ": " + _json(item, inner) for key, item in sorted(value.items())])
            + newline + "}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _load(path: str, from_obj: Callable[[object], object]) -> object:
    """``from_obj`` of the JSON in file ``path``; any input error is a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_obj(json.load(fh))
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError too
            raise ValueError(f"{path}: {exc}") from None


def _load_spec(args: argparse.Namespace) -> SupportSpec:
    if args.zeros is not None:
        spec = _load(args.zeros, SupportSpec.from_obj)
        if args.n is not None and args.n != spec.n:
            raise ValueError(f"--n {args.n} does not match the pattern file (n={spec.n})")
        if args.k is not None and args.k != spec.k:
            raise ValueError(f"--k {args.k} does not match the pattern file (k={spec.k})")
        return spec
    if args.n is None or args.k is None:
        raise ValueError("provide --zeros FILE, or both --n and --k for an empty pattern")
    return SupportSpec(args.n, args.k, itertools.repeat((), args.k))  # k is bounded first


def _run_inputs(args: argparse.Namespace) -> tuple[GaloisContext, SupportSpec, int]:
    """Field, pattern and sample-set size of construct, subcode and scripts/success_rate.py."""
    ctx = GaloisContext(args.prime)
    spec = _load_spec(args)
    if args.s_size is not None:
        return ctx, spec, args.s_size
    return ctx, spec, required_sample_size(spec.n, spec.k, args.epsilon)


def _check_minors(args: argparse.Namespace, n: int, k: int, ell: int) -> bool:
    """--check-minors, by default whether the sweep that confirms distance
    n - ell + 1, every s-subset of the columns for s = k..ell, fits
    DEFAULT_MAX_CHECKS; the running total stops at the first term past it."""
    if args.check_minors is not None:
        return args.check_minors
    totals = itertools.accumulate(math.comb(n, s) for s in range(k, ell + 1))
    return all(total <= DEFAULT_MAX_CHECKS for total in totals)


def _emit(out: Path | None, cert: Certificate, files: dict[str, dict]) -> int:
    """Write ``files`` and certificate.json under ``out`` when given, print
    the certificate, and exit 0 iff it passed."""
    text = _dump(cert.to_obj())  # one text for the file and stdout
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        for name, obj in files.items():
            out.joinpath(name).write_text(_dump(obj), encoding="utf-8")
        out.joinpath("certificate.json").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0 if cert.passed else 1


def cmd_check(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    ell = required_dimension(spec)
    ok = ell <= spec.k  # the condition holds exactly when ell <= k
    report = {"condition": ok, "ell": ell}
    if not ok:
        report["witness_omega"] = sorted(check_condition(spec)[1] or ())
    sys.stdout.write(_dump(report))
    return 0 if ok else 1


def cmd_bound(args: argparse.Namespace) -> int:
    s_size = required_sample_size(args.n, args.k, args.epsilon)
    sys.stdout.write(_dump({"n": args.n, "k": args.k, "epsilon": args.epsilon,
                            "s_size": s_size}))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    ctx, spec, s_size = _run_inputs(args)
    result = construct(spec, ctx, s_size, args.seed, args.max_retries)
    cert = certify_mrd(result, check_minors=_check_minors(args, spec.n, spec.k, spec.k))
    return _emit(args.out, cert, {"result.json": {**result.to_obj(), "epsilon": args.epsilon}})


def cmd_subcode(args: argparse.Namespace) -> int:
    ctx, spec, s_size = _run_inputs(args)
    check_minors = _check_minors(args, spec.n, spec.k, required_dimension(spec))
    sub = build_subcode(spec, ctx, s_size, args.seed, max_retries=args.max_retries,
                        check_minors=check_minors)
    return _emit(args.out, sub.certificate, {"subcode.json": {
        **sub.to_obj(), "epsilon": args.epsilon, "spec": spec.to_obj()}})


def cmd_certify(args: argparse.Namespace) -> int:
    result = _load(args.result, ConstructionResult.from_obj)
    spec = result.spec
    cert = certify_mrd(result, check_minors=_check_minors(args, spec.n, spec.k, spec.k))
    return _emit(args.out, cert, {})


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.sweep:
        if args.zeros is not None:
            raise ValueError("--sweep takes no --zeros FILE: "
                             "it enumerates every pattern of --n/--k")
        n = 4 if args.n is None else args.n
        k = 3 if args.k is None else args.k
        table = sweep_agreement(n=n, k=k, seed=args.seed)
        sys.stdout.write(_dump(table))
        return 0 if not table["disagreements"] else 1
    spec = _load_spec(args)
    check_oracle_size(spec.n)
    if not spec.is_completed():
        spec = complete_sets(spec)
        print(f"note: pattern completed to {[sorted(z) for z in spec.zeros]}",
              file=sys.stderr)
    report = oracle_report(spec, seed=args.seed)
    sys.stdout.write(_dump(report.to_obj()))
    if report.det_nonzero != report.condition:
        why = ("no point gave a nonzero value and no witness rows prove zero"
               if report.det_nonzero is None else "a proved verdict against the condition")
        print(f"oracle disagrees: condition {json.dumps(report.condition)}, det_p_nonzero "
              f"{json.dumps(report.det_nonzero)} ({why})", file=sys.stderr)
    return 0 if report.condition and report.det_nonzero else 1


def _add_spec_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--zeros", metavar="FILE", help="zero-pattern JSON file")
    sub.add_argument("--n", type=int, help="column count (validated against --zeros)")
    sub.add_argument("--k", type=int, help="row count (validated against --zeros)")


def _out_dir(text: str) -> Path:
    if not text:  # Path("") is the working directory
        raise argparse.ArgumentTypeError("must name a directory, got an empty path")
    return Path(text)


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prime", type=int, required=True, help="odd prime conductor p")
    size = sub.add_mutually_exclusive_group(required=True)
    size.add_argument("--epsilon", help="target failure bound in (0, 1], e.g. 0.01")
    size.add_argument("--s-size", dest="s_size", type=int, help="explicit sample-set size")
    sub.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
    sub.add_argument("--max-retries", type=int, default=64, help="redraw budget (default 64)")


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--check-minors", action=argparse.BooleanOptionalAction, default=None,
                     help="force the full minor sweep on/off (default: on when its worst-case "
                          f"column-subset count fits the budget of {DEFAULT_MAX_CHECKS})")
    sub.add_argument("--out", metavar="DIR", type=_out_dir,
                     help="directory for the emitted JSON files")


@functools.cache  # built once per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclogab",
        description="Support-constrained Gabidulin generator matrices over Q(zeta_p), "
                    "built and certified in exact arithmetic.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="test the support condition of a pattern")
    _add_spec_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_bound = subs.add_parser("bound", help="sample-set size needed for a failure bound")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--epsilon", required=True)
    p_bound.set_defaults(func=cmd_bound)

    p_con = subs.add_parser("construct", help="build and certify a full-distance generator")
    _add_spec_args(p_con)
    _add_run_args(p_con)
    _add_output_args(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_sub = subs.add_parser("subcode", help="best achievable code for an infeasible pattern")
    _add_spec_args(p_sub)
    _add_run_args(p_sub)
    _add_output_args(p_sub)
    p_sub.set_defaults(func=cmd_subcode)

    p_cert = subs.add_parser("certify", help="re-certify a stored construction result")
    p_cert.add_argument("result", help="result JSON written by 'construct'")
    _add_output_args(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_or = subs.add_parser("oracle", help="polynomial determinant oracle for a pattern")
    _add_spec_args(p_or)
    p_or.add_argument("--mode", choices=("randomized",), default="randomized")
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--sweep", action="store_true",
                      help="run the exhaustive family sweep for --n/--k (default 4/3)")
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasiblePattern, RetriesExhausted) as exc:  # verdicts, not input errors
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
