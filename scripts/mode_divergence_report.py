#!/usr/bin/env python3
"""Report where the X5 and N5 readings of a formula disagree.

For the formula given on the command line (default: the implication of two
atoms), evaluates both modes at every interpretation over the formula's
atoms and prints the assignments where the five-valued results differ,
followed by the verdicts of the two equivalence relations between the
formula and its own negation normal forms.

The whole report is computed before any of it is printed, so a formula
that is refused leaves stdout empty.  Exit codes: 0 after the report, 2 when
the formula does not parse, 3 when it has more atoms than the enumeration
guard allows or nests too deeply to evaluate.
"""

import argparse
import sys

from eqlx import (
    EvalMode,
    ParseError,
    SignatureTooLarge,
    atoms,
    canonical_print,
    enumerate_x5,
    parse_formula,
    subst_equiv,
    to_nnf,
    value5,
    weak_equiv,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("expr", nargs="?", default="p -> q")
    args = ap.parse_args()
    try:
        lines = report(parse_formula(args.expr))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SignatureTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: formula nests too deeply to evaluate", file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 0


def report(f) -> list:
    """The lines of the report on ``f``."""
    sig = sorted(atoms(f))
    rows = []
    for m in enumerate_x5(sig):
        x5_value = int(value5(m, f, EvalMode.X5))
        n5_value = int(value5(m, f, EvalMode.N5))
        if x5_value != n5_value:
            assignment = ", ".join(f"{a}={m.value_of(a)}" for a in sig)
            rows.append(f"  {assignment}: x5={x5_value}  n5={n5_value}")
    lines = [f"formula: {canonical_print(f)}", *rows,
             f"{len(rows)} of {5 ** len(sig)} interpretations differ"]

    for mode, label in ((EvalMode.X5, "x5"), (EvalMode.N5, "n5")):
        lines.append(f"{label} normal form: {canonical_print(to_nnf(f, mode))}")
    x5_normal = to_nnf(f, EvalMode.X5)
    lines.append("weakly equivalent to its x5 normal form: "
                 f"{weak_equiv(f, x5_normal).equivalent}")
    lines.append("substitution-equivalent to its x5 normal form: "
                 f"{subst_equiv(f, x5_normal).equivalent}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
