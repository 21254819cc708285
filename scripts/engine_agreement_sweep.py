#!/usr/bin/env python3
"""Cross-validate the three solving routes on random programs.

Generates small random programs and checks that the reduct-based answer
sets, the equilibrium-model enumeration and the positive-reduct route all
return the same models.  Prints a running tally and the distribution of
answer-set counts seen.  Any disagreement aborts with the offending program.
"""

import argparse
import collections
import random
import sys

from eqlx import (
    answer_sets,
    canonical_print,
    equilibrium_models,
    equilibrium_models_ferraris,
)


def random_program(rng, names, max_rules, depth):
    from eqlx import BOT, TOP, And, Atom, AtomRef, DNeg, Or, Program, Rule, XNeg

    def formula(d):
        if d == 0 or rng.random() < 0.25:
            roll = rng.random()
            if roll < 0.85:
                return AtomRef(Atom(rng.choice(names)))
            return BOT if roll < 0.925 else TOP
        kind = rng.randrange(4)
        if kind == 0:
            return XNeg(formula(d - 1))
        if kind == 1:
            return DNeg(formula(d - 1))
        left, right = formula(d - 1), formula(d - 1)
        return And(left, right) if kind == 2 else Or(left, right)

    return Program(Rule(formula(depth), formula(depth))
                   for _ in range(rng.randint(1, max_rules)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--atoms", type=int, default=3, choices=range(1, 7))
    ap.add_argument("--max-rules", type=int, default=3)
    ap.add_argument("--depth", type=int, default=2)
    args = ap.parse_args()

    names = ("p", "q", "r", "s", "t", "u")[: args.atoms]
    rng = random.Random(args.seed)
    histogram = collections.Counter()

    for i in range(args.count):
        prog = random_program(rng, names, args.max_rules, args.depth)
        a = answer_sets(prog)
        b = equilibrium_models(prog)
        c = equilibrium_models_ferraris(prog)
        if not (a == b == c):
            print("DISAGREEMENT on program:", file=sys.stderr)
            print(canonical_print(prog), file=sys.stderr)
            for name, models in (("reduct", a), ("x5", b), ("ferraris", c)):
                print(f"  {name}: {[str(m) for m in models]}", file=sys.stderr)
            return 1
        histogram[len(a)] += 1
        if (i + 1) % 500 == 0:
            print(f"{i + 1} programs checked")

    print(f"all {args.count} programs agree on every engine")
    print("answer-set count distribution:")
    for size in sorted(histogram):
        print(f"  {size} models: {histogram[size]} programs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
