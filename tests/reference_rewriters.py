"""The rewriters as hand-written ``isinstance`` chains, one branch per rule.

Frozen copies of negation normal form, ``not``-pushing and constant folding
as they were before the rule tables became the rewriters.  The tests compare
the table-driven rewriters with them, result and trace alike.
"""

from eqlx import BOT, TOP, And, AtomRef, Bot, DNeg, EvalMode, Impl, Or, Top, XNeg


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
