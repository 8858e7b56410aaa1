#!/usr/bin/env python3
"""Empirical single-draw failure rate of the randomized construction.

Runs many independent single random draws of the generator build (the
draws ``construct`` falls back to, never its fixed points of attempt 0) and
compares the observed failure fraction against the theoretical bound
(n + k*(k-1)) / s_size.  Example:

    python scripts/success_rate.py --prime 11 --zeros pattern.json --s-size 1200
    python scripts/success_rate.py --prime 11 --n 6 --k 3 --epsilon 0.01 --trials 500 --jobs 4
"""

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from cyclogab import complete_sets, sample_points
from cyclogab.cli import _run_inputs
from cyclogab.construction import _attempt


def single_draw_fails(task: tuple) -> bool:
    ctx, completed, s_size, seed = task
    return _attempt(completed, sample_points(ctx, completed.n, s_size, seed)) is None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prime", type=int, default=11)
    parser.add_argument("--zeros", metavar="FILE", help="pattern JSON; default: empty pattern")
    parser.add_argument("--n", type=int, help="column count (default 6 without --zeros)")
    parser.add_argument("--k", type=int, help="row count (default 3 without --zeros)")
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--s-size", dest="s_size", type=_positive_int)
    size.add_argument("--epsilon", default="0.01")
    parser.add_argument("--trials", type=_positive_int, default=200)
    parser.add_argument("--seed0", type=int, default=0, help="first trial seed; trial t uses seed0+t")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="parallel worker processes")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args: argparse.Namespace) -> int:
    if args.zeros is None:  # empty 6 x 3 pattern by default; --n 0 reaches the shape check
        args.n = 6 if args.n is None else args.n
        args.k = 3 if args.k is None else args.k
    ctx, spec, s_size = _run_inputs(args)
    completed = complete_sets(spec)
    bound = Fraction(spec.n + spec.k * (spec.k - 1), s_size)

    tasks = [(ctx, completed, s_size, args.seed0 + t) for t in range(args.trials)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(single_draw_fails, tasks, chunksize=8))
    else:
        outcomes = [single_draw_fails(t) for t in tasks]
    failures = sum(outcomes)

    within = Fraction(failures, args.trials) <= bound
    print(f"pattern            n={spec.n} k={spec.k} zeros={[sorted(z) for z in spec.zeros]}")
    print(f"sample set size    {s_size}")
    print(f"trials             {args.trials} (seeds {args.seed0}..{args.seed0 + args.trials - 1})")
    print(f"failures           {failures}")
    print(f"observed fraction  {failures / args.trials:.4f}")
    print(f"theoretical bound  {float(bound):.4f}  ({bound})")
    print(f"within bound       {'yes' if within else 'NO'}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
