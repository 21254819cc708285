"""The rewriters as hand-written ``isinstance`` chains, one branch per rule.

Frozen copies of negation normal form, ``not``-pushing and constant folding
as they were before the rule tables became the rewriters, and of
regularization as it was before each alternative was split only once.  The
tests compare the rewriters with them, result and trace alike.
"""

import functools

from eqlx import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    EvalMode,
    Impl,
    NotInNNF,
    Or,
    Program,
    Rule,
    Top,
    XNeg,
    atoms,
    is_nnf,
)
from eqlx.transform import MAX_ALTERNATIVES, RewriteBudgetExceeded


def _note(trace, name, where):
    if trace is not None:
        trace.append(f"{name} @ {where}")


def ref_nnf(f, mode, trace=None, path=""):
    if isinstance(f, (Bot, Top, AtomRef)):
        return f
    if isinstance(f, (And, Or, Impl)):
        return type(f)(ref_nnf(f.left, mode, trace, path + "0."),
                       ref_nnf(f.right, mode, trace, path + "1."))
    if isinstance(f, DNeg):
        return DNeg(ref_nnf(f.child, mode, trace, path + "0."))
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
        return ref_nnf(Or(XNeg(c.left), XNeg(c.right)), mode, trace, path)
    if isinstance(c, Or):
        _note(trace, "xneg_or", where)
        return ref_nnf(And(XNeg(c.left), XNeg(c.right)), mode, trace, path)
    if isinstance(c, XNeg):
        _note(trace, "xneg_xneg", where)
        return ref_nnf(c.child, mode, trace, path)
    if isinstance(c, DNeg):
        if mode is EvalMode.X5:
            _note(trace, "xneg_dneg", where)
            return ref_nnf(DNeg(DNeg(c.child)), mode, trace, path)
        _note(trace, "xneg_dneg_n5", where)
        return ref_nnf(c.child, mode, trace, path)
    if mode is EvalMode.X5:
        _note(trace, "xneg_impl", where)
        return ref_nnf(And(DNeg(DNeg(c.left)), XNeg(c.right)), mode, trace, path)
    _note(trace, "xneg_impl_n5", where)
    return ref_nnf(And(c.left, XNeg(c.right)), mode, trace, path)


def ref_push_dneg(f, trace, where):
    if isinstance(f, (And, Or)):
        return type(f)(ref_push_dneg(f.left, trace, where), ref_push_dneg(f.right, trace, where))
    if isinstance(f, DNeg):
        return ref_dneg_of(ref_push_dneg(f.child, trace, where), trace, where)
    return f


def ref_dneg_of(g, trace, where):
    if isinstance(g, Top):
        _note(trace, "dneg_top", where)
        return BOT
    if isinstance(g, Bot):
        _note(trace, "dneg_bot", where)
        return TOP
    if isinstance(g, And):
        _note(trace, "dneg_and", where)
        return Or(ref_dneg_of(g.left, trace, where), ref_dneg_of(g.right, trace, where))
    if isinstance(g, Or):
        _note(trace, "dneg_or", where)
        return And(ref_dneg_of(g.left, trace, where), ref_dneg_of(g.right, trace, where))
    if isinstance(g, DNeg) and isinstance(g.child, DNeg):
        _note(trace, "triple_dneg", where)
        return g.child
    return DNeg(g)


def ref_simplify_constants(phi):
    if isinstance(phi, And):
        left, right = ref_simplify_constants(phi.left), ref_simplify_constants(phi.right)
        if isinstance(left, Bot) or isinstance(right, Bot):
            return BOT
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        return And(left, right)
    if isinstance(phi, Or):
        left, right = ref_simplify_constants(phi.left), ref_simplify_constants(phi.right)
        if isinstance(left, Top) or isinstance(right, Top):
            return TOP
        if isinstance(left, Bot):
            return right
        if isinstance(right, Bot):
            return left
        return Or(left, right)
    if isinstance(phi, XNeg):
        child = ref_simplify_constants(phi.child)
        if isinstance(child, Top):
            return BOT
        if isinstance(child, Bot):
            return TOP
        if isinstance(child, XNeg):
            return child.child
        return XNeg(child)
    if isinstance(phi, DNeg):
        child = ref_simplify_constants(phi.child)
        if isinstance(child, Top):
            return BOT
        if isinstance(child, Bot):
            return TOP
        return DNeg(child)
    if isinstance(phi, Impl):
        left, right = ref_simplify_constants(phi.left), ref_simplify_constants(phi.right)
        if isinstance(right, Top):
            return TOP
        if isinstance(left, Bot):
            return TOP
        if isinstance(left, Top):
            return right
        return Impl(left, right)
    return phi


def ref_to_regular(p, eliminate_head_dneg=False, trace=None):
    """Regularization that rebuilds every (body, head) pair from its lists."""
    out = []
    falsum = False
    for i, r in enumerate(p):
        if not (is_nnf(r.body) and is_nnf(r.head)):
            raise NotInNNF(f"rule {i} is not in negation normal form: {r!r}")
        where = f"rule {i}"
        body = ref_simplify_constants(ref_push_dneg(r.body, trace, where))
        head = ref_simplify_constants(ref_push_dneg(r.head, trace, where))
        body_alts = _ref_alternatives(body, Or, And, Bot, "dist_and_or", trace, where)
        head_alts = _ref_alternatives(head, And, Or, Top, "dist_or_and", trace, where)
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
                new_body = list(dict.fromkeys(new_body))
                new_head = list(dict.fromkeys(new_head))
                if not new_body and not new_head:
                    falsum = True
                    continue
                out.append(Rule(functools.reduce(And, new_body) if new_body else TOP,
                                functools.reduce(Or, new_head) if new_head else BOT))
    if falsum:
        pivot = min(atoms(p), default=Atom("unsat0"))
        _note(trace, "falsum_rule_split", "program")
        out.append(Rule(AtomRef(pivot), BOT))
        out.append(Rule(DNeg(AtomRef(pivot)), BOT))
    return Program(out)


def _is_double_dneg(f):
    return isinstance(f, DNeg) and isinstance(f.child, DNeg)


def _ref_alternatives(f, outer, inner, empty, name, trace, where):
    if isinstance(f, (Top, Bot)):
        return [] if isinstance(f, empty) else [[]]
    if isinstance(f, outer):
        return (_ref_alternatives(f.left, outer, inner, empty, name, trace, where)
                + _ref_alternatives(f.right, outer, inner, empty, name, trace, where))
    if isinstance(f, inner):
        left = _ref_alternatives(f.left, outer, inner, empty, name, trace, where)
        right = _ref_alternatives(f.right, outer, inner, empty, name, trace, where)
        if len(left) > 1 and len(right) > 1:
            _note(trace, name, where)
        n = len(left) * len(right)
        if n > MAX_ALTERNATIVES:
            raise RewriteBudgetExceeded(
                f"distribution produced {n} alternatives, budget is {MAX_ALTERNATIVES}")
        return [x + y for x in left for y in right]
    return [[f]]
