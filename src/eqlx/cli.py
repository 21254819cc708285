"""Command-line front end.

Results go to stdout, diagnostics and rule traces to stderr.  Exit codes:
0 success, 1 semantic negative (no models, not valid, not equivalent),
2 usage or parse error, 3 resource guard tripped (including a formula that
nests too deeply to evaluate, such as a chain of thousands of ``&`` or
``|``), 4 internal inconsistency (two routes that must agree did not; a bug
in eqlx).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .core import (
    TOP,
    And,
    Atom,
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
from .parser import ParseError, _tokenize, parse_formula, parse_interpretation, parse_theory
from .reduct import ferraris_minus, ferraris_plus, reduct_program, simplify_constants
from .semantics import EvalMode, classical_sat, value5, x5_fals, x5_sat
from .solver import (
    InternalInconsistency,
    SignatureTooLarge,
    SolveOptions,
    _effective_signature,
    answer_sets,
    equilibrium_models,
    equilibrium_models_ferraris,
)
from .transform import (
    RewriteBudgetExceeded,
    export_asp,
    to_nnf,
    to_nnf_program,
    to_regular,
)

__all__ = ["main"]

_MODES = {"x5": EvalMode.X5, "n5": EvalMode.N5, "classical": EvalMode.CLASSICAL}


class _UsageError(ValueError):
    pass


def _global_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--signature", default=None,
                     help="comma-separated atoms added to the signature")
    sub.add_argument("--max-atoms", type=int, default=12,
                     help="refuse enumeration above this many atoms")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqlx",
        description="workbench for equilibrium logic with explicit negation")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="answer sets / equilibrium models of a file")
    p.add_argument("file")
    p.add_argument("--via", choices=["reduct", "x5", "ferraris"], default=None)
    _global_flags(p)

    p = subs.add_parser("eval", help="evaluate a formula at an interpretation")
    p.add_argument("expr")
    p.add_argument("--model", required=True, help="there world, e.g. '{p, ~q}'")
    p.add_argument("--here", default=None, help="here world, defaults to the model")
    p.add_argument("--mode", choices=sorted(_MODES), default="x5")
    _global_flags(p)

    p = subs.add_parser("reduct", help="reduct of a file w.r.t. an interpretation")
    p.add_argument("file")
    p.add_argument("--wrt", required=True, help="reference interpretation")
    p.add_argument("--ferraris", action="store_true",
                   help="dual reduct of arbitrary formulas instead")
    _global_flags(p)

    p = subs.add_parser("valid", help="check validity of a formula")
    p.add_argument("expr")
    _global_flags(p)

    p = subs.add_parser("equiv", help="check an equivalence relation")
    p.add_argument("relation", choices=["weak", "subst"])
    p.add_argument("left")
    p.add_argument("right")
    _global_flags(p)

    p = subs.add_parser("context", help="synthesise a discriminating theory")
    p.add_argument("left")
    p.add_argument("right")
    _global_flags(p)

    p = subs.add_parser("nnf", help="negation normal form of a formula")
    p.add_argument("expr")
    p.add_argument("--mode", choices=["x5", "n5"], default="x5")
    p.add_argument("--rule-trace", action="store_true",
                   help="log every rewrite application to stderr")
    _global_flags(p)

    p = subs.add_parser("regular", help="rewrite a program into regular rules")
    p.add_argument("file")
    p.add_argument("--no-head-not", action="store_true",
                   help="shift default-negated head literals into the body")
    p.add_argument("--rule-trace", action="store_true")
    _global_flags(p)

    p = subs.add_parser("export", help="regularize and print solver syntax")
    p.add_argument("file")
    p.add_argument("--no-head-not", action="store_true")
    _global_flags(p)

    p = subs.add_parser("tables", help="print the five-valued truth tables")
    p.add_argument("--mode", choices=["x5", "n5"], default="x5")
    _global_flags(p)

    return parser


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


def _load_theory(path: str) -> Theory:
    """Read a statement file; files without '.' are one formula per line."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if any(tok.kind == "." for tok in _tokenize(text)):
        return parse_theory(text)
    formulas = []
    for line in text.splitlines():
        stripped = line.split("%", 1)[0].strip()
        if stripped:
            formulas.append(parse_formula(stripped))
    return Theory(formulas)


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


def _witness_payload(w: X5Interpretation, signature) -> dict:
    return {
        "values": {str(a): w.value_of(a) for a in sorted(signature)},
        "here": [str(l) for l in w.here],
        "there": [str(l) for l in w.there],
    }


def _witness_text(w: X5Interpretation, signature) -> str:
    return ", ".join(f"{a}={w.value_of(a)}" for a in sorted(signature))


def _emit(args, command: str, result, witness=None, engine_agreement=None,
          text_lines: Sequence[str] = ()) -> None:
    if args.json:
        envelope = {
            "command": command,
            "result": result,
            "witness": witness,
            "engine_agreement": engine_agreement,
        }
        print(json.dumps(envelope, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Commands


def _cmd_solve(args) -> int:
    theory = _load_theory(args.file)
    program = _as_program(theory)
    opts = _options(args)

    if args.via == "reduct" and program is None:
        raise _UsageError("--via reduct requires a program (rules of nested expressions)")

    if args.via:
        engine_names = [args.via]
    elif program is not None:
        engine_names = ["reduct", "x5", "ferraris"]
    else:
        engine_names = ["x5", "ferraris"]

    runs = {}
    for name in engine_names:
        if name == "reduct":
            runs[name] = answer_sets(program, opts)
        elif name == "x5":
            runs[name] = equilibrium_models(theory, opts)
        else:
            runs[name] = equilibrium_models_ferraris(theory, opts)

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
    _emit(args, "solve", result, engine_agreement=agreement,
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
    elif mode is EvalMode.X5:
        v = int(value5(m, f))
        satisfied, falsified = x5_sat(m, f), x5_fals(m, f)
        result = {"mode": "x5", "value": v, "sat": satisfied, "fals": falsified}
        lines = [f"value: {v}",
                 f"sat: {str(satisfied).lower()}",
                 f"fals: {str(falsified).lower()}"]
    else:
        v = int(value5(m, f, EvalMode.N5))
        satisfied, falsified = v == 2, v == -2
        result = {"mode": "n5", "value": v, "sat": satisfied, "fals": falsified}
        lines = [f"value: {v}",
                 f"sat: {str(satisfied).lower()}",
                 f"fals: {str(falsified).lower()}"]
    _emit(args, "eval", result, text_lines=lines)
    return 0


def _cmd_reduct(args) -> int:
    wrt = parse_interpretation(args.wrt)
    theory = _load_theory(args.file)
    if args.ferraris:
        entries = []
        for f in theory:
            plus = simplify_constants(ferraris_plus(f, wrt))
            minus = simplify_constants(ferraris_minus(f, wrt))
            entries.append({"input": canonical_print(f),
                            "plus": canonical_print(plus),
                            "minus": canonical_print(minus)})
        lines = []
        for e in entries:
            lines.append(f"+ {e['plus']}")
            lines.append(f"- {e['minus']}")
        _emit(args, "reduct", {"kind": "ferraris", "formulas": entries},
              text_lines=lines)
        return 0
    program = _as_program(theory)
    if program is None:
        raise _UsageError("the nested reduct requires a program; use --ferraris for theories")
    reduced = reduct_program(program, wrt)
    simplified = Program(Rule(simplify_constants(r.body), simplify_constants(r.head))
                         for r in reduced)
    rule_lines = [canonical_print(r) for r in simplified]
    _emit(args, "reduct", {"kind": "nested", "rules": rule_lines},
          text_lines=rule_lines)
    return 0


def _cmd_valid(args) -> int:
    f = parse_formula(args.expr)
    opts = _options(args)
    verdict = is_valid(f, opts)
    sig = _effective_signature(opts, f)
    if verdict.equivalent:
        _emit(args, "valid", {"valid": True, "formula": canonical_print(f)},
              text_lines=["valid"])
        return 0
    w = verdict.witness
    v = int(value5(w, f))
    _emit(args, "valid", {"valid": False, "formula": canonical_print(f), "value": v},
          witness=_witness_payload(w, sig),
          text_lines=["not valid", f"witness: {_witness_text(w, sig)} : {v}"])
    return 1


def _cmd_equiv(args) -> int:
    left = parse_formula(args.left)
    right = parse_formula(args.right)
    opts = _options(args)
    check = weak_equiv if args.relation == "weak" else subst_equiv
    verdict = check(left, right, opts)
    label = "weakly equivalent" if args.relation == "weak" else "substitution-equivalent"
    sig = _effective_signature(opts, left, right)
    if verdict.equivalent:
        _emit(args, "equiv",
              {"relation": args.relation, "equivalent": True},
              text_lines=[label])
        return 0
    w = verdict.witness
    lv, rv = int(value5(w, left)), int(value5(w, right))
    detail = f"{_witness_text(w, sig)} : {lv} vs {rv}"
    _emit(args, "equiv",
          {"relation": args.relation, "equivalent": False,
           "left_value": lv, "right_value": rv},
          witness=_witness_payload(w, sig),
          text_lines=[f"not {label}", f"witness: {detail}"])
    return 1


def _cmd_context(args) -> int:
    left = parse_formula(args.left)
    right = parse_formula(args.right)
    opts = _options(args)
    verdict = discriminating_context(left, right, opts)
    sig = _effective_signature(opts, left, right)
    delta = verdict.context
    delta_rules = [canonical_print(Rule(f.left, f.right)) for f in delta]
    with_left, with_right = verdict.context_models

    def fmt(models) -> str:
        return ", ".join(str(m) for m in models) if models else "none"

    lines = [f"witness: {_witness_text(verdict.witness, sig)}",
             f"satisfies: {verdict.satisfied_side}",
             "context:"]
    lines.extend(delta_rules)
    lines.append(f"equilibrium models with left: {fmt(with_left)}")
    lines.append(f"equilibrium models with right: {fmt(with_right)}")
    result = {
        "satisfied_side": verdict.satisfied_side,
        "context": delta_rules,
        "equilibrium_models_left": [[str(l) for l in m] for m in with_left],
        "equilibrium_models_right": [[str(l) for l in m] for m in with_right],
    }
    _emit(args, "context", result,
          witness=_witness_payload(verdict.witness, sig), text_lines=lines)
    return 0


def _cmd_nnf(args) -> int:
    f = parse_formula(args.expr)
    trace: Optional[List[str]] = [] if args.rule_trace else None
    out = to_nnf(f, _MODES[args.mode], trace=trace)
    if trace:
        for entry in trace:
            print(entry, file=sys.stderr)
    _emit(args, "nnf", {"mode": args.mode, "formula": canonical_print(out)},
          text_lines=[canonical_print(out)])
    return 0


def _cmd_regular(args) -> int:
    theory = _load_theory(args.file)
    program = _as_program(theory)
    if program is None:
        raise _UsageError("regularization requires a program")
    trace: Optional[List[str]] = [] if args.rule_trace else None
    normal = to_nnf_program(program, trace=trace)
    regular = to_regular(normal, eliminate_head_dneg=args.no_head_not, trace=trace)
    if trace:
        for entry in trace:
            print(entry, file=sys.stderr)
    rule_lines = [canonical_print(r) for r in regular]
    _emit(args, "regular", {"rules": rule_lines}, text_lines=rule_lines)
    return 0


def _cmd_export(args) -> int:
    theory = _load_theory(args.file)
    program = _as_program(theory)
    if program is None:
        raise _UsageError("export requires a program")
    regular = to_regular(to_nnf_program(program),
                         eliminate_head_dneg=args.no_head_not)
    text = export_asp(regular)
    _emit(args, "export", {"text": text},
          text_lines=text.splitlines())
    return 0


_TABLE_VALUES = (-2, -1, 0, 1, 2)


def _binary_table(build, mode: EvalMode) -> list:
    p, q = atom("p"), atom("q")
    f = build(p, q)
    rows = []
    for a in _TABLE_VALUES:
        row = []
        for b in _TABLE_VALUES:
            m = X5Interpretation.from_values({p.atom: a, q.atom: b})
            row.append(int(value5(m, f, mode)))
        rows.append(row)
    return rows


def _unary_table(build, mode: EvalMode) -> list:
    p = atom("p")
    f = build(p)
    out = []
    for a in _TABLE_VALUES:
        m = X5Interpretation.from_values({p.atom: a})
        out.append(int(value5(m, f, mode)))
    return out


def _cmd_tables(args) -> int:
    mode = _MODES[args.mode]
    binary = [("&", lambda a, b: And(a, b)),
              ("|", lambda a, b: Or(a, b)),
              ("->", lambda a, b: Impl(a, b)),
              ("<->", iff),
              ("<=>", strong_iff)]
    unary = [("~", XNeg), ("not", DNeg)]

    tables = {}
    lines = []
    for name, build in binary:
        rows = _binary_table(build, mode)
        tables[name] = rows
        lines.append(f"{name:>5} | " + " ".join(f"{v:>3}" for v in _TABLE_VALUES))
        lines.append("-" * 6 + "+" + "-" * 20)
        for a, row in zip(_TABLE_VALUES, rows):
            lines.append(f"{a:>5} | " + " ".join(f"{v:>3}" for v in row))
        lines.append("")
    for name, build in unary:
        column = _unary_table(build, mode)
        tables[name] = column
        lines.append(f"  phi | {name}")
        lines.append("-" * 6 + "+" + "-" * max(4, len(name) + 2))
        for a, v in zip(_TABLE_VALUES, column):
            lines.append(f"{a:>5} | {v:>3}")
        lines.append("")
    _emit(args, "tables", {"mode": args.mode, "tables": tables},
          text_lines=lines[:-1])
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "reduct": _cmd_reduct,
    "valid": _cmd_valid,
    "equiv": _cmd_equiv,
    "context": _cmd_context,
    "nnf": _cmd_nnf,
    "regular": _cmd_regular,
    "export": _cmd_export,
    "tables": _cmd_tables,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SignatureTooLarge, RewriteBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: formula nests too deeply to evaluate", file=sys.stderr)
        return 3
    except EquivalentFormulas as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, _UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
