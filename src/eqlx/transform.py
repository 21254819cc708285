"""Rewriting: negation normal form, regular rules, solver export, encodings.

Every rewrite step is an instance of a named rule from a table, and each
table entry is machine-verified against the five-valued semantics the first
time a rewriter runs, so a wrong rule announces itself immediately.  Rules
marked ``subst`` preserve the value at every interpretation and may fire in
any context; rules marked ``weak`` only preserve designatedness and are
applied outermost-first so that they never fire inside an explicit negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .core import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    Formula,
    Impl,
    Or,
    Program,
    Rule,
    Top,
    XNeg,
    _conjuncts,
    _disjuncts,
    as_explicit_literal,
    atom,
    atoms,
    iff,
)
from .reduct import simplify_constants
from .semantics import EvalMode, value5
from .solver import enumerate_x5

__all__ = [
    "NotInNNF",
    "NotRegular",
    "RewriteBudgetExceeded",
    "CrossEncoding",
    "RewriteRule",
    "NNF_RULES",
    "REGULAR_RULES",
    "verify_rewrite_rules",
    "is_nnf",
    "to_nnf",
    "to_nnf_program",
    "to_regular",
    "export_asp",
    "cross_encode",
]


class NotInNNF(ValueError):
    """Input must have explicit negation applied to atoms only."""


class NotRegular(ValueError):
    """Input rule is not in the regular fragment."""


class RewriteBudgetExceeded(RuntimeError):
    """Distribution grew past ``MAX_ALTERNATIVES``."""


#: Most alternatives one distribution step of :func:`to_regular` may produce.
MAX_ALTERNATIVES = 100_000


class CrossEncoding(Enum):
    N5_IN_X5 = "n5-in-x5"
    X5_IN_N5 = "x5-in-n5"


@dataclass(frozen=True)
class RewriteRule:
    """One named rewrite with the logic(s) and strength it is valid at."""

    name: str
    lhs: Formula
    rhs: Formula
    strength: str  # "subst" (values equal everywhere) or "weak" (designatedness)
    modes: Tuple[EvalMode, ...]


_a, _b, _c = atom("a"), atom("b"), atom("c")
_BOTH = (EvalMode.X5, EvalMode.N5)
_X5 = (EvalMode.X5,)
_N5 = (EvalMode.N5,)

NNF_RULES: Tuple[RewriteRule, ...] = (
    RewriteRule("xneg_top", XNeg(TOP), BOT, "subst", _BOTH),
    RewriteRule("xneg_bot", XNeg(BOT), TOP, "subst", _BOTH),
    RewriteRule("xneg_and", XNeg(And(_a, _b)), Or(XNeg(_a), XNeg(_b)), "subst", _BOTH),
    RewriteRule("xneg_or", XNeg(Or(_a, _b)), And(XNeg(_a), XNeg(_b)), "subst", _BOTH),
    RewriteRule("xneg_xneg", XNeg(XNeg(_a)), _a, "subst", _BOTH),
    RewriteRule("xneg_dneg", XNeg(DNeg(_a)), DNeg(DNeg(_a)), "subst", _X5),
    RewriteRule("xneg_impl", XNeg(Impl(_a, _b)),
                And(DNeg(DNeg(_a)), XNeg(_b)), "weak", _X5),
    RewriteRule("xneg_dneg_n5", XNeg(DNeg(_a)), _a, "weak", _N5),
    RewriteRule("xneg_impl_n5", XNeg(Impl(_a, _b)), And(_a, XNeg(_b)), "weak", _N5),
)

REGULAR_RULES: Tuple[RewriteRule, ...] = (
    RewriteRule("dist_and_or", And(_a, Or(_b, _c)),
                Or(And(_a, _b), And(_a, _c)), "subst", _X5),
    RewriteRule("dist_or_and", Or(_a, And(_b, _c)),
                And(Or(_a, _b), Or(_a, _c)), "subst", _X5),
    RewriteRule("and_bot", And(_a, BOT), BOT, "subst", _X5),
    RewriteRule("or_top", Or(_a, TOP), TOP, "subst", _X5),
    RewriteRule("and_top", And(_a, TOP), _a, "subst", _X5),
    RewriteRule("or_bot", Or(_a, BOT), _a, "subst", _X5),
    RewriteRule("dneg_and", DNeg(And(_a, _b)), Or(DNeg(_a), DNeg(_b)), "subst", _X5),
    RewriteRule("dneg_or", DNeg(Or(_a, _b)), And(DNeg(_a), DNeg(_b)), "subst", _X5),
    RewriteRule("dneg_top", DNeg(TOP), BOT, "subst", _X5),
    RewriteRule("dneg_bot", DNeg(BOT), TOP, "subst", _X5),
    RewriteRule("triple_dneg", DNeg(DNeg(DNeg(_a))), DNeg(_a), "subst", _X5),
    RewriteRule("head_and_split", Impl(_a, And(_b, _c)),
                And(Impl(_a, _b), Impl(_a, _c)), "subst", _X5),
    RewriteRule("body_or_split", Impl(Or(_a, _b), _c),
                And(Impl(_a, _c), Impl(_b, _c)), "subst", _X5),
    RewriteRule("body_dneg_shift", Impl(And(_a, DNeg(DNeg(_b))), _c),
                Impl(_a, Or(_c, DNeg(_b))), "subst", _X5),
    RewriteRule("head_dneg_shift", Impl(_a, Or(_c, DNeg(DNeg(_b)))),
                Impl(And(_a, DNeg(_b)), _c), "subst", _X5),
    RewriteRule("and_idem", And(_a, _a), _a, "subst", _X5),
    RewriteRule("or_idem", Or(_a, _a), _a, "subst", _X5),
)

_verified = False


def verify_rewrite_rules() -> int:
    """Check every table entry semantically; returns the number of checks run."""
    checked = 0
    failures = []
    for rule in NNF_RULES + REGULAR_RULES:
        sig = sorted(atoms(rule.lhs) | atoms(rule.rhs))
        for mode in rule.modes:
            for m in enumerate_x5(sig):
                if rule.strength == "subst":
                    ok = value5(m, rule.lhs, mode) == value5(m, rule.rhs, mode)
                else:
                    ok = value5(m, iff(rule.lhs, rule.rhs), mode).designated
                if not ok:
                    failures.append(f"{rule.name} fails in {mode.value} at {m}")
                    break
            checked += 1
    if failures:
        raise AssertionError("rewrite table is unsound: " + "; ".join(failures))
    return checked


def _ensure_verified() -> None:
    global _verified
    if not _verified:
        verify_rewrite_rules()
        _verified = True


def _note(trace: Optional[list], name: str, where: str) -> None:
    if trace is not None:
        trace.append(f"{name} @ {where}")


# ---------------------------------------------------------------------------
# Negation normal form


def is_nnf(f: Formula) -> bool:
    """True iff every explicit negation in ``f`` is applied to an atom."""
    if isinstance(f, XNeg):
        return isinstance(f.child, AtomRef)
    if isinstance(f, DNeg):
        return is_nnf(f.child)
    if isinstance(f, (And, Or, Impl)):
        return is_nnf(f.left) and is_nnf(f.right)
    return True


def to_nnf(phi: Formula, mode: EvalMode = EvalMode.X5,
           trace: Optional[list] = None) -> Formula:
    """Drive explicit negation down to the atoms.

    Works outermost-first: an explicit negation is rewritten by the head
    connective of its operand before any subterm is visited, which guarantees
    the weak-only implication rule never fires inside a remaining ``~`` and
    keeps the result weakly equivalent in the selected logic.  On inputs
    without implications only value-preserving rules fire.
    """
    if mode not in (EvalMode.X5, EvalMode.N5):
        raise ValueError(f"to_nnf supports X5 and N5 modes, not {mode}")
    _ensure_verified()
    return _nnf(phi, mode, trace, "")


def _nnf(f: Formula, mode: EvalMode, trace: Optional[list], path: str) -> Formula:
    if isinstance(f, (Bot, Top, AtomRef)):
        return f
    if isinstance(f, And):
        return And(_nnf(f.left, mode, trace, path + "0."),
                   _nnf(f.right, mode, trace, path + "1."))
    if isinstance(f, Or):
        return Or(_nnf(f.left, mode, trace, path + "0."),
                  _nnf(f.right, mode, trace, path + "1."))
    if isinstance(f, Impl):
        return Impl(_nnf(f.left, mode, trace, path + "0."),
                    _nnf(f.right, mode, trace, path + "1."))
    if isinstance(f, DNeg):
        return DNeg(_nnf(f.child, mode, trace, path + "0."))
    c = f.child
    where = path.rstrip(".") or "root"
    if isinstance(c, AtomRef):
        return f
    if isinstance(c, Top):
        _note(trace, "xneg_top", where)
        return BOT
    if isinstance(c, Bot):
        _note(trace, "xneg_bot", where)
        return TOP
    if isinstance(c, And):
        _note(trace, "xneg_and", where)
        return _nnf(Or(XNeg(c.left), XNeg(c.right)), mode, trace, path)
    if isinstance(c, Or):
        _note(trace, "xneg_or", where)
        return _nnf(And(XNeg(c.left), XNeg(c.right)), mode, trace, path)
    if isinstance(c, XNeg):
        _note(trace, "xneg_xneg", where)
        return _nnf(c.child, mode, trace, path)
    if isinstance(c, DNeg):
        if mode is EvalMode.X5:
            _note(trace, "xneg_dneg", where)
            return _nnf(DNeg(DNeg(c.child)), mode, trace, path)
        _note(trace, "xneg_dneg_n5", where)
        return _nnf(c.child, mode, trace, path)
    if isinstance(c, Impl):
        if mode is EvalMode.X5:
            _note(trace, "xneg_impl", where)
            return _nnf(And(DNeg(DNeg(c.left)), XNeg(c.right)), mode, trace, path)
        _note(trace, "xneg_impl_n5", where)
        return _nnf(And(c.left, XNeg(c.right)), mode, trace, path)
    raise TypeError(f"cannot rewrite {type(f).__name__}")


def to_nnf_program(p: Program, mode: EvalMode = EvalMode.X5,
                   trace: Optional[list] = None) -> Program:
    return Program(Rule(to_nnf(r.body, mode, trace), to_nnf(r.head, mode, trace))
                   for r in p)


# ---------------------------------------------------------------------------
# Regularization


def to_regular(p: Program, eliminate_head_dneg: bool = False,
               trace: Optional[list] = None) -> Program:
    """Rewrite an NNF program into regular rules.

    Per rule: default negation is pushed down to literals (triple negations
    collapse), the body is distributed to a disjunction of conjunctions and
    the head to a conjunction of disjunctions, the rule is split on those,
    and doubled default negation is shuttled to the opposite side where it
    drops to a single ``not``.  Heads may retain singly default-negated
    literals, which the regular fragment allows; ``eliminate_head_dneg``
    additionally moves such literals into the body as doubled negation for
    downstream tools that reject ``not`` in heads (the result then leaves the
    strict regular fragment and is exported as ``not not``).

    Distribution can explode; more than ``MAX_ALTERNATIVES`` alternatives
    raise :class:`RewriteBudgetExceeded`.
    """
    _ensure_verified()
    out: List[Rule] = []
    falsum = False
    for i, r in enumerate(p):
        if not (is_nnf(r.body) and is_nnf(r.head)):
            raise NotInNNF(f"rule {i} is not in negation normal form: {r!r}")
        where = f"rule {i}"
        body = simplify_constants(_push_dneg(r.body, trace, where))
        head = simplify_constants(_push_dneg(r.head, trace, where))
        body_alts = _dnf(body, trace, where)
        head_alts = _cnf(head, trace, where)
        if not body_alts or not head_alts:
            _note(trace, "drop_trivial_rule", where)
            continue
        if len(body_alts) > 1:
            _note(trace, "body_or_split", where)
        if len(head_alts) > 1:
            _note(trace, "head_and_split", where)
        for conj in body_alts:
            for disj in head_alts:
                new_body = [x for x in conj if not _is_double_dneg(x)]
                new_head = [x for x in disj if not _is_double_dneg(x)]
                for x in conj:
                    if _is_double_dneg(x):
                        _note(trace, "body_dneg_shift", where)
                        new_head.append(DNeg(x.child.child))
                for x in disj:
                    if _is_double_dneg(x):
                        _note(trace, "head_dneg_shift", where)
                        new_body.append(DNeg(x.child.child))
                if eliminate_head_dneg:
                    kept = []
                    for x in new_head:
                        if isinstance(x, DNeg):
                            _note(trace, "head_dneg_elim", where)
                            new_body.append(DNeg(DNeg(x.child)))
                        else:
                            kept.append(x)
                    new_head = kept
                new_body = _dedupe(new_body)
                new_head = _dedupe(new_head)
                if not new_body and not new_head:
                    falsum = True
                    continue
                out.append(Rule(_chain(And, new_body, TOP),
                                _chain(Or, new_head, BOT)))
    if falsum:
        pivot = _falsum_pivot(p)
        _note(trace, "falsum_rule_split", "program")
        out.append(Rule(AtomRef(pivot), BOT))
        out.append(Rule(DNeg(AtomRef(pivot)), BOT))
    return Program(out)


def _push_dneg(f: Formula, trace: Optional[list], where: str) -> Formula:
    """Distribute ``not`` over the lattice connectives and cap chains at two."""
    if isinstance(f, (And, Or)):
        kind = type(f)
        return kind(_push_dneg(f.left, trace, where), _push_dneg(f.right, trace, where))
    if isinstance(f, DNeg):
        return _dneg_of(_push_dneg(f.child, trace, where), trace, where)
    return f


def _dneg_of(g: Formula, trace: Optional[list], where: str) -> Formula:
    if isinstance(g, Top):
        _note(trace, "dneg_top", where)
        return BOT
    if isinstance(g, Bot):
        _note(trace, "dneg_bot", where)
        return TOP
    if isinstance(g, And):
        _note(trace, "dneg_and", where)
        return Or(_dneg_of(g.left, trace, where), _dneg_of(g.right, trace, where))
    if isinstance(g, Or):
        _note(trace, "dneg_or", where)
        return And(_dneg_of(g.left, trace, where), _dneg_of(g.right, trace, where))
    if isinstance(g, DNeg) and isinstance(g.child, DNeg):
        _note(trace, "triple_dneg", where)
        return g.child
    return DNeg(g)


def _is_double_dneg(f: Formula) -> bool:
    return isinstance(f, DNeg) and isinstance(f.child, DNeg)


def _dnf(f: Formula, trace: Optional[list], where: str) -> List[List[Formula]]:
    if isinstance(f, Bot):
        return []
    if isinstance(f, Top):
        return [[]]
    if isinstance(f, Or):
        return _dnf(f.left, trace, where) + _dnf(f.right, trace, where)
    if isinstance(f, And):
        left = _dnf(f.left, trace, where)
        right = _dnf(f.right, trace, where)
        if len(left) > 1 and len(right) > 1:
            _note(trace, "dist_and_or", where)
        _check_budget(len(left) * len(right))
        return [cl + cr for cl in left for cr in right]
    return [[f]]


def _cnf(f: Formula, trace: Optional[list], where: str) -> List[List[Formula]]:
    if isinstance(f, Top):
        return []
    if isinstance(f, Bot):
        return [[]]
    if isinstance(f, And):
        return _cnf(f.left, trace, where) + _cnf(f.right, trace, where)
    if isinstance(f, Or):
        left = _cnf(f.left, trace, where)
        right = _cnf(f.right, trace, where)
        if len(left) > 1 and len(right) > 1:
            _note(trace, "dist_or_and", where)
        _check_budget(len(left) * len(right))
        return [dl + dr for dl in left for dr in right]
    return [[f]]


def _check_budget(n: int) -> None:
    if n > MAX_ALTERNATIVES:
        raise RewriteBudgetExceeded(
            f"distribution produced {n} alternatives, budget is {MAX_ALTERNATIVES}")


def _dedupe(items: List[Formula]) -> List[Formula]:
    seen = set()
    kept = []
    for x in items:
        if x not in seen:
            seen.add(x)
            kept.append(x)
    return kept


def _chain(kind, items: List[Formula], empty: Formula) -> Formula:
    if not items:
        return empty
    result = items[0]
    for x in items[1:]:
        result = kind(result, x)
    return result


def _falsum_pivot(p: Program) -> Atom:
    sig = sorted(atoms(p))
    if sig:
        return sig[0]
    return Atom("unsat0")


# ---------------------------------------------------------------------------
# Solver export


def export_asp(p: Program) -> str:
    """Render a regular program in mainstream solver syntax, byte for byte.

    Explicit negation prints as ``-``, default negation as ``not``; an empty
    head renders as a constraint.  Doubled default negation in bodies (from
    ``eliminate_head_dneg``) prints as ``not not``.
    """
    lines = []
    for i, r in enumerate(p):
        body_items = [] if isinstance(r.body, Top) else list(_conjuncts(r.body))
        head_items = [] if isinstance(r.head, Bot) else list(_disjuncts(r.head))
        if not body_items and not head_items:
            raise NotRegular(f"rule {i} has an empty body and an empty head")
        head_txt = " ; ".join(_render_literal(x, i) for x in head_items)
        if body_items:
            body_txt = ", ".join(_render_literal(x, i, allow_double=True)
                                 for x in body_items)
            lines.append(f"{head_txt} :- {body_txt}." if head_txt else f":- {body_txt}.")
        else:
            lines.append(f"{head_txt}.")
    return "".join(line + "\n" for line in lines)


def _render_literal(f: Formula, rule_index: int, allow_double: bool = False) -> str:
    if isinstance(f, DNeg):
        inner = f.child
        if allow_double and isinstance(inner, DNeg):
            lit = as_explicit_literal(inner.child)
            if lit is not None:
                return "not not " + _render_explicit(lit)
        lit = as_explicit_literal(inner)
        if lit is not None:
            return "not " + _render_explicit(lit)
    else:
        lit = as_explicit_literal(f)
        if lit is not None:
            return _render_explicit(lit)
    raise NotRegular(f"rule {rule_index} is not regular at {f!r}")


def _render_explicit(lit) -> str:
    return ("-" if lit.negated else "") + lit.atom.name


# ---------------------------------------------------------------------------
# Cross-encodings between the two logics


def cross_encode(phi: Formula, direction: CrossEncoding) -> Formula:
    """Express one logic's implication and default negation inside the other.

    Bottom-up, so nested operators are translated exactly once.  Encoding
    ``N5_IN_X5`` yields a formula to be evaluated in X5 mode that reproduces
    the N5 value of the original, and vice versa.
    """
    if isinstance(phi, (Bot, Top, AtomRef)):
        return phi
    if isinstance(phi, XNeg):
        return XNeg(cross_encode(phi.child, direction))
    if isinstance(phi, And):
        return And(cross_encode(phi.left, direction), cross_encode(phi.right, direction))
    if isinstance(phi, Or):
        return Or(cross_encode(phi.left, direction), cross_encode(phi.right, direction))
    if isinstance(phi, DNeg):
        child = cross_encode(phi.child, direction)
        if direction is CrossEncoding.N5_IN_X5:
            return Impl(child, XNeg(child))
        return DNeg(DNeg(DNeg(child)))
    if isinstance(phi, Impl):
        left = cross_encode(phi.left, direction)
        right = cross_encode(phi.right, direction)
        if direction is CrossEncoding.N5_IN_X5:
            return Impl(left, Or(XNeg(left), right))
        return And(Impl(left, right), Impl(XNeg(right), DNeg(DNeg(DNeg(left)))))
    raise TypeError(f"cannot encode {type(phi).__name__}")
