"""Command-line front end.

Results go to stdout, diagnostics and rule traces to stderr.  Exit codes:
0 success, 1 semantic negative (no models, not valid, not equivalent),
2 usage or parse error, 3 resource guard tripped (including a formula that
nests too deeply to rewrite or compare, such as a chain of thousands of
``&`` or ``|`` given to a rewriter; evaluation and solving walk in a loop),
4 internal inconsistency (two routes that must agree did not; a bug in
eqlx).  ``_EXIT_CODES`` maps each exception to its code.

Every subcommand is one entry of ``_COMMANDS``: its name, help, handler and
arguments.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .core import (
    TOP,
    And,
    Atom,
    AtomRef,
    DNeg,
    Impl,
    Or,
    Program,
    Rule,
    Theory,
    X5Interpretation,
    XNeg,
    atom,
    canonical_print,
    iff,
    is_nested,
    strong_iff,
)
from .equivalence import (
    EquivalentFormulas,
    discriminating_context,
    is_valid,
    subst_equiv,
    weak_equiv,
)
from .parser import (
    _tokenize,  # noqa: F401  bench/tracing.py wraps this module binding
    parse_formula,
    parse_interpretation,
    parse_lines,
    parse_theory,
)
from .reduct import ferraris_minus, ferraris_plus, reduct_program
from .semantics import EvalMode, classical_sat, value5, x5_fals, x5_sat
from .solver import (
    DEFAULT_MAX_ATOMS,
    InternalInconsistency,
    SignatureTooLarge,
    SolveOptions,
    answer_sets,
    equilibrium_models,
    equilibrium_models_ferraris,
)
from .transform import (
    RewriteBudgetExceeded,
    export_asp,
    simplify_constants,
    to_nnf,
    to_nnf_program,
    to_regular,
)

__all__ = ["main"]

_MODES = {"x5": EvalMode.X5, "n5": EvalMode.N5, "classical": EvalMode.CLASSICAL}


class _UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Shared plumbing


def _parse_signature(text: Optional[str]) -> Optional[frozenset]:
    if not text:
        return None
    names = [part.strip() for part in text.split(",") if part.strip()]
    return frozenset(Atom(n) for n in names)


def _options(args) -> SolveOptions:
    if args.max_atoms < 0:
        raise _UsageError(f"--max-atoms must be non-negative, got {args.max_atoms}")
    return SolveOptions(signature=_parse_signature(args.signature),
                        max_atoms=args.max_atoms)


def _load_file(path: str, require: str = "") -> Tuple[Theory, Optional[Program]]:
    """Read a statement file: its theory, and the program it is, if it is one.

    A file with a ``.`` outside a ``%`` comment holds ``FORMULA.`` statements;
    any other file is in line mode, one formula per non-empty line.  The file
    is a program when every member is a rule of nested expressions or a
    nested expression (a fact).  A file that is not one is a usage error with
    the message ``require``, if that is given.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    theory = parse_theory(text) if _has_statements(text) else parse_lines(text)
    program = _as_program(theory)
    if program is None and require:
        raise _UsageError(require)
    return theory, program


def _has_statements(text: str) -> bool:
    """Is there a ``.`` outside a ``%`` comment, that is, a ``.`` token?"""
    return any("." in line.split("%", 1)[0] for line in text.split("\n"))


def _as_program(theory: Theory) -> Optional[Program]:
    rules = []
    for f in theory:
        if isinstance(f, Impl) and is_nested(f.left) and is_nested(f.right):
            rules.append(Rule(f.left, f.right))
        elif is_nested(f):
            rules.append(Rule(TOP, f))
        else:
            return None
    return Program(rules)


def _witness_payload(w: X5Interpretation, signature: List[Atom]) -> dict:
    return {
        "values": {str(a): w.value_of(a) for a in signature},
        "here": [str(l) for l in w.here],
        "there": [str(l) for l in w.there],
    }


def _witness_text(w: X5Interpretation, signature: List[Atom]) -> str:
    return ", ".join(f"{a}={w.value_of(a)}" for a in signature)


def _emit(args, result, witness=None, engine_agreement=None,
          text_lines: Sequence[str] = ()) -> None:
    if args.json:
        envelope = {
            "command": args.command,
            "result": result,
            "witness": witness,
            "engine_agreement": engine_agreement,
        }
        print(json.dumps(envelope, indent=2))
    elif text_lines:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _print_trace(trace: Optional[List[str]]) -> None:
    if trace:
        sys.stderr.write("\n".join(trace) + "\n")


# ---------------------------------------------------------------------------
# Commands


def _cmd_solve(args) -> int:
    theory, program = _load_file(
        args.file, "--via reduct requires a program (rules of nested expressions)"
        if args.via == "reduct" else "")

    if args.via:
        engine_names = [args.via]
    elif program is not None:
        engine_names = ["reduct", "x5", "ferraris"]
    else:
        engine_names = ["x5", "ferraris"]

    runs = {}
    for name in engine_names:
        if name == "reduct":
            runs[name] = answer_sets(program, args.opts)
        elif name == "x5":
            runs[name] = equilibrium_models(theory, args.opts)
        else:
            runs[name] = equilibrium_models_ferraris(theory, args.opts)

    first = runs[engine_names[0]]
    agreement = None
    if len(engine_names) > 1:
        agreement = all(runs[n] == first for n in engine_names)
        if not agreement:
            detail = {n: [str(m) for m in ms] for n, ms in runs.items()}
            raise InternalInconsistency(f"solver engines disagree: {detail}")

    kind = "answer_sets" if program is not None else "equilibrium_models"
    result = {
        "kind": kind,
        "models": [[str(l) for l in m] for m in first],
        "engines": engine_names,
    }
    _emit(args, result, engine_agreement=agreement,
          text_lines=[str(m) for m in first])
    if not first:
        print("no models", file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args) -> int:
    there = parse_interpretation(args.model)
    here = parse_interpretation(args.here) if args.here is not None else there
    m = X5Interpretation(here, there)
    f = parse_formula(args.expr)
    mode = _MODES[args.mode]

    if mode is EvalMode.CLASSICAL:
        satisfied = classical_sat(m, f)
        result = {"mode": "classical", "value": None, "sat": satisfied, "fals": None}
        lines = [f"sat: {str(satisfied).lower()}"]
    else:
        v = int(value5(m, f, mode))
        if mode is EvalMode.X5:
            satisfied, falsified = x5_sat(m, f), x5_fals(m, f)
        else:
            satisfied, falsified = v == 2, v == -2
        result = {"mode": args.mode, "value": v, "sat": satisfied, "fals": falsified}
        lines = [f"value: {v}",
                 f"sat: {str(satisfied).lower()}",
                 f"fals: {str(falsified).lower()}"]
    _emit(args, result, text_lines=lines)
    return 0


def _cmd_reduct(args) -> int:
    wrt = parse_interpretation(args.wrt)
    theory, program = _load_file(
        args.file, "" if args.ferraris
        else "the nested reduct requires a program; use --ferraris for theories")
    if args.ferraris:
        entries = []
        lines = []
        for f in theory:
            plus = canonical_print(simplify_constants(ferraris_plus(f, wrt)))
            minus = canonical_print(simplify_constants(ferraris_minus(f, wrt)))
            entries.append({"input": canonical_print(f), "plus": plus, "minus": minus})
            lines += [f"+ {plus}", f"- {minus}"]
        _emit(args, {"kind": "ferraris", "formulas": entries}, text_lines=lines)
        return 0
    rule_lines = [canonical_print(Rule(simplify_constants(r.body), simplify_constants(r.head)))
                  for r in reduct_program(program, wrt)]
    _emit(args, {"kind": "nested", "rules": rule_lines}, text_lines=rule_lines)
    return 0


def _report(args, verdict, label: str, result: dict, **formulas) -> int:
    """Print a validity or equivalence verdict.  A refuted one exits 1 and
    shows the witness and, under each key of ``formulas``, that formula's
    value at it."""
    if verdict.equivalent:
        _emit(args, result, text_lines=[label])
        return 0
    w = verdict.witness
    sig = args.opts.space(*formulas.values()).atoms
    result.update((key, int(value5(w, f))) for key, f in formulas.items())
    values = " vs ".join(str(result[key]) for key in formulas)
    _emit(args, result, witness=_witness_payload(w, sig),
          text_lines=[f"not {label}", f"witness: {_witness_text(w, sig)} : {values}"])
    return 1


def _cmd_valid(args) -> int:
    f = parse_formula(args.expr)
    verdict = is_valid(f, args.opts)
    result = {"valid": verdict.equivalent}
    if args.json:  # printing unfolds shared subformulas, so only when shown
        result["formula"] = canonical_print(f)
    return _report(args, verdict, "valid", result, value=f)


def _cmd_equiv(args) -> int:
    left = parse_formula(args.left)
    right = parse_formula(args.right)
    weak = args.relation == "weak"
    verdict = (weak_equiv if weak else subst_equiv)(left, right, args.opts)
    return _report(args, verdict,
                   "weakly equivalent" if weak else "substitution-equivalent",
                   {"relation": args.relation, "equivalent": verdict.equivalent},
                   left_value=left, right_value=right)


def _cmd_context(args) -> int:
    left = parse_formula(args.left)
    right = parse_formula(args.right)
    verdict = discriminating_context(left, right, args.opts)
    sig = args.opts.space(left, right).atoms
    delta_rules = [canonical_print(Rule(f.left, f.right)) for f in verdict.context]
    with_left, with_right = verdict.context_models

    def fmt(models) -> str:
        return ", ".join(str(m) for m in models) if models else "none"

    lines = [f"witness: {_witness_text(verdict.witness, sig)}",
             f"satisfies: {verdict.satisfied_side}",
             "context:",
             *delta_rules,
             f"equilibrium models with left: {fmt(with_left)}",
             f"equilibrium models with right: {fmt(with_right)}"]
    result = {
        "satisfied_side": verdict.satisfied_side,
        "context": delta_rules,
        "equilibrium_models_left": [[str(l) for l in m] for m in with_left],
        "equilibrium_models_right": [[str(l) for l in m] for m in with_right],
    }
    _emit(args, result, witness=_witness_payload(verdict.witness, sig), text_lines=lines)
    return 0


def _cmd_nnf(args) -> int:
    f = parse_formula(args.expr)
    trace: Optional[List[str]] = [] if args.rule_trace else None
    out = canonical_print(to_nnf(f, _MODES[args.mode], trace=trace))
    _print_trace(trace)
    _emit(args, {"mode": args.mode, "formula": out}, text_lines=[out])
    return 0


def _regularize(args, require: str, trace: Optional[List[str]] = None) -> Program:
    """The file's program in negation normal form, then in regular rules."""
    _, program = _load_file(args.file, require)
    return to_regular(to_nnf_program(program, trace=trace),
                      eliminate_head_dneg=args.no_head_not, trace=trace)


def _cmd_regular(args) -> int:
    trace: Optional[List[str]] = [] if args.rule_trace else None
    regular = _regularize(args, "regularization requires a program", trace)
    _print_trace(trace)
    rule_lines = canonical_print(regular).splitlines()
    _emit(args, {"rules": rule_lines}, text_lines=rule_lines)
    return 0


def _cmd_export(args) -> int:
    text = export_asp(_regularize(args, "export requires a program"))
    _emit(args, {"text": text}, text_lines=text.splitlines())
    return 0


_TABLE_VALUES = (-2, -1, 0, 1, 2)


def _table(build, args: Sequence[AtomRef], mode: EvalMode) -> list:
    """Values of the connective ``build`` at each assignment of the five
    values to ``args``: a column for one argument, one row per value of the
    first argument for two."""
    f = build(*args)
    keys = [a.atom for a in args]
    cells = [int(value5(X5Interpretation.from_values(dict(zip(keys, values))), f, mode))
             for values in itertools.product(_TABLE_VALUES, repeat=len(keys))]
    if len(keys) == 1:
        return cells
    width = len(_TABLE_VALUES)
    return [cells[i:i + width] for i in range(0, len(cells), width)]


def _cmd_tables(args) -> int:
    mode = _MODES[args.mode]
    p, q = atom("p"), atom("q")
    binary = [("&", And), ("|", Or), ("->", Impl), ("<->", iff), ("<=>", strong_iff)]
    unary = [("~", XNeg), ("not", DNeg)]

    tables = {}
    lines = []
    for name, build in binary:
        rows = tables[name] = _table(build, (p, q), mode)
        lines.append(f"{name:>5} | " + " ".join(f"{v:>3}" for v in _TABLE_VALUES))
        lines.append("-" * 6 + "+" + "-" * 20)
        for a, row in zip(_TABLE_VALUES, rows):
            lines.append(f"{a:>5} | " + " ".join(f"{v:>3}" for v in row))
        lines.append("")
    for name, build in unary:
        column = tables[name] = _table(build, (p,), mode)
        lines.append(f"  phi | {name}")
        lines.append("-" * 6 + "+" + "-" * max(4, len(name) + 2))
        for a, v in zip(_TABLE_VALUES, column):
            lines.append(f"{a:>5} | {v:>3}")
        lines.append("")
    _emit(args, {"mode": args.mode, "tables": tables}, text_lines=lines[:-1])
    return 0


# ---------------------------------------------------------------------------
# The command table and its parser


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_FILE = _arg("file")
_MODE = _arg("--mode", choices=["x5", "n5"], default="x5")

# name, help, handler, arguments; every command also takes _GLOBAL_FLAGS.
_COMMANDS = (
    ("solve", "answer sets / equilibrium models of a file", _cmd_solve, [
        _FILE,
        _arg("--via", choices=["reduct", "x5", "ferraris"], default=None)]),
    ("eval", "evaluate a formula at an interpretation", _cmd_eval, [
        _arg("expr"),
        _arg("--model", required=True, help="there world, e.g. '{p, ~q}'"),
        _arg("--here", default=None, help="here world, defaults to the model"),
        _arg("--mode", choices=sorted(_MODES), default="x5")]),
    ("reduct", "reduct of a file w.r.t. an interpretation", _cmd_reduct, [
        _FILE,
        _arg("--wrt", required=True, help="reference interpretation"),
        _arg("--ferraris", action="store_true",
             help="dual reduct of arbitrary formulas instead")]),
    ("valid", "check validity of a formula", _cmd_valid, [_arg("expr")]),
    ("equiv", "check an equivalence relation", _cmd_equiv, [
        _arg("relation", choices=["weak", "subst"]), _arg("left"), _arg("right")]),
    ("context", "synthesise a discriminating theory", _cmd_context, [
        _arg("left"), _arg("right")]),
    ("nnf", "negation normal form of a formula", _cmd_nnf, [
        _arg("expr"),
        _MODE,
        _arg("--rule-trace", action="store_true",
             help="log every rewrite application to stderr")]),
    ("regular", "rewrite a program into regular rules", _cmd_regular, [
        _FILE,
        _arg("--no-head-not", action="store_true",
             help="shift default-negated head literals into the body"),
        _arg("--rule-trace", action="store_true")]),
    ("export", "regularize and print solver syntax", _cmd_export, [
        _FILE, _arg("--no-head-not", action="store_true")]),
    ("tables", "print the five-valued truth tables", _cmd_tables, [_MODE]),
)

_GLOBAL_FLAGS = [
    _arg("--signature", default=None, help="comma-separated atoms added to the signature"),
    _arg("--max-atoms", type=int, default=DEFAULT_MAX_ATOMS,
         help="refuse enumeration above this many atoms"),
    _arg("--json", action="store_true", help="machine-readable output"),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqlx",
        description="workbench for equilibrium logic with explicit negation")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, arguments in _COMMANDS:
        sub = subs.add_parser(name, help=summary)
        for flags, options in arguments + _GLOBAL_FLAGS:
            sub.add_argument(*flags, **options)
        sub.set_defaults(handler=handler)
    return parser


# The exit code of each exception that ends a command; the first match wins.
_EXIT_CODES = (
    (SignatureTooLarge, 3),
    (RewriteBudgetExceeded, 3),
    (RecursionError, 3),
    (EquivalentFormulas, 1),
    (InternalInconsistency, 4),
    (ValueError, 2),  # ParseError, _UsageError and rejected inputs
    (OSError, 2),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.opts = _options(args)  # every command checks the global flags
        return args.handler(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        message = ("formula nests too deeply to evaluate"
                   if isinstance(exc, RecursionError) else exc)
        print(f"error: {message}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
