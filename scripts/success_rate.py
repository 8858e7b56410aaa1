#!/usr/bin/env python3
"""Empirical single-draw failure rate of the randomized construction.

Runs many independent single draws (no retries) of the generator build and
compares the observed failure fraction against the theoretical bound
(n + k*(k-1)) / s_size.  Example:

    python scripts/success_rate.py --prime 11 --zeros pattern.json --s-size 1200
    python scripts/success_rate.py --prime 11 --n 6 --k 3 --epsilon 0.01 --trials 500 --jobs 4
"""

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from cyclogab import (GaloisContext, RetriesExhausted, SupportSpec, construct,
                      required_sample_size)
from cyclogab.cli import _read_json
from cyclogab.supports import MAX_ROWS


def single_draw_fails(task: tuple) -> bool:
    prime, spec_obj, s_size, seed = task
    spec = SupportSpec.from_obj(spec_obj)
    try:
        construct(spec, GaloisContext(prime), s_size, seed=seed, max_retries=0)
        return False
    except RetriesExhausted:
        return True


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prime", type=int, default=11)
    parser.add_argument("--zeros", metavar="FILE", help="pattern JSON; default: empty pattern")
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--k", type=int, default=3)
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
    if args.zeros:
        spec = SupportSpec.from_obj(_read_json(args.zeros))
    elif args.k > MAX_ROWS:  # refused before the k empty rows are built, as in the CLI
        raise ValueError(f"row count {args.k} exceeds the input bound MAX_ROWS = {MAX_ROWS}")
    else:
        spec = SupportSpec(args.n, args.k, [()] * args.k)
    if args.s_size is not None:
        s_size = args.s_size
    else:
        s_size = required_sample_size(spec.n, spec.k, args.epsilon)
    bound = Fraction(spec.n + spec.k * (spec.k - 1), s_size)

    tasks = [(args.prime, spec.to_obj(), s_size, args.seed0 + t) for t in range(args.trials)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(single_draw_fails, tasks, chunksize=8))
    else:
        outcomes = [single_draw_fails(t) for t in tasks]
    failures = sum(outcomes)

    observed = failures / args.trials
    print(f"pattern            n={spec.n} k={spec.k} zeros={[sorted(z) for z in spec.zeros]}")
    print(f"sample set size    {s_size}")
    print(f"trials             {args.trials} (seeds {args.seed0}..{args.seed0 + args.trials - 1})")
    print(f"failures           {failures}")
    print(f"observed fraction  {observed:.4f}")
    print(f"theoretical bound  {float(bound):.4f}  ({bound})")
    print(f"within bound       {'yes' if observed <= float(bound) else 'NO'}")
    return 0 if observed <= float(bound) else 1


if __name__ == "__main__":
    sys.exit(main())
