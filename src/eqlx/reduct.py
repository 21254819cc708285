"""Reduct constructions.

Two reducts are provided.  ``reduct_nested`` replaces every default-negated
subexpression of a nested expression by a constant according to the reference
literal set, producing an explicit result.  ``ferraris_plus``/
``ferraris_minus`` are the dual transformations for arbitrary formulas: the
positive one bottoms out unsatisfied subformulas, the negative one tops out
unfalsified ones, and explicit negation swaps between them.  One walk,
``_ferraris``, builds both: its polarity flips under each ``~``.  Every reduct
reads which subformulas those are from one fold over the formula's nodes at
the total pair (t, t), ``_at_total``, so each node is evaluated once and a
reduct takes time linear in its input and its result.  That fold is this
module's own: no reduct calls the ``sat`` relations of ``semantics``, which
the tests check the reducts against.  Constant folding of their results is
``transform.simplify_constants``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .core import (
    BOT,
    TOP,
    And,
    AtomRef,
    Bot,
    DNeg,
    ExplicitLiteral,
    Formula,
    Impl,
    Interpretation,
    NotNested,
    Or,
    Program,
    Rule,
    Top,
    XNeg,
    postorder,
)

__all__ = [
    "reduct_nested",
    "reduct_rule",
    "reduct_program",
    "ferraris_plus",
    "ferraris_minus",
    "ferraris_theory",
]


def reduct_nested(f: Formula, t: Interpretation) -> Formula:
    """Reduct of a nested expression: each ``not G`` becomes ``bot`` where
    ``t`` satisfies ``G`` and ``top`` elsewhere."""
    if not (isinstance(f, Formula) and f._nested):
        raise NotNested(f"the reduct is only defined on nested expressions: {f!r}")
    return _reduct(f, _at_total(f, t.literals))


def _reduct(f: Formula, total: Dict[int, Tuple[bool, bool]]) -> Formula:
    kind = type(f)
    if kind is And:
        return And(_reduct(f.left, total), _reduct(f.right, total))
    if kind is Or:
        return Or(_reduct(f.left, total), _reduct(f.right, total))
    if kind is XNeg:
        return XNeg(_reduct(f.child, total))
    if kind is DNeg:
        return TOP if total[id(f)][0] else BOT
    return f  # an atom or a constant


def reduct_rule(r: Rule, t: Interpretation) -> Rule:
    return Rule(reduct_nested(r.body, t), reduct_nested(r.head, t))


def reduct_program(p: Program, t: Interpretation) -> Program:
    """Rule-wise reduct; the result is an explicit program."""
    return Program(reduct_rule(r, t) for r in p)


# ---------------------------------------------------------------------------
# Dual reduct for arbitrary formulas


def ferraris_plus(phi: Formula, t: Interpretation) -> Formula:
    """Positive reduct of an arbitrary formula with respect to ``t``."""
    return _ferraris(phi, _at_total(phi, t.literals), True)


def ferraris_minus(phi: Formula, t: Interpretation) -> Formula:
    """Negative reduct, dual to :func:`ferraris_plus`."""
    return _ferraris(phi, _at_total(phi, t.literals), False)


def ferraris_theory(gamma, t: Interpretation) -> list:
    """Positive reduct of every member of a theory."""
    return [ferraris_plus(f, t) for f in gamma]


def _at_total(f: Formula, t) -> Dict[int, Tuple[bool, bool]]:
    """Whether (t, t) satisfies and whether it falsifies each node of ``f``,
    by id: one fold over its nodes, which both reducts then read."""
    done: Dict[int, Tuple[bool, bool]] = {}
    for g in postorder((f,), done):
        kind = type(g)
        if kind is AtomRef:
            out = ExplicitLiteral(g.atom) in t, ExplicitLiteral(g.atom, negated=True) in t
        elif kind is And:
            (sa, fa), (sb, fb) = done[id(g.left)], done[id(g.right)]
            out = sa and sb, fa or fb
        elif kind is Or:
            (sa, fa), (sb, fb) = done[id(g.left)], done[id(g.right)]
            out = sa or sb, fa and fb
        elif kind is XNeg:
            sa, fa = done[id(g.child)]
            out = fa, sa
        elif kind is DNeg:
            sa = done[id(g.child)][0]
            out = not sa, sa
        elif kind is Impl:
            # at a total pair the here world is the there world
            (sa, _), (sb, fb) = done[id(g.left)], done[id(g.right)]
            out = (not sa) or sb, sa and fb
        elif kind is Top:
            out = True, False
        elif kind is Bot:
            out = False, True
        else:
            raise TypeError(f"cannot evaluate {kind.__name__}")
        done[id(g)] = out
    return done


def _ferraris(f: Formula, total: Dict[int, Tuple[bool, bool]], positive: bool) -> Formula:
    """``f+`` if ``positive``, else ``f-``.  A node that (t, t) does not
    satisfy becomes ``bot`` in ``f+``; one that it does not falsify becomes
    ``top`` in ``f-``.  Otherwise ``&`` and ``|`` keep the polarity, ``~``
    flips it, ``G -> H`` becomes ``not G+ | H+`` or ``H-``, ``not G``
    becomes ``not G+`` or ``bot``, and atoms and constants stay."""
    if not total[id(f)][0 if positive else 1]:
        return BOT if positive else TOP
    kind = type(f)
    if kind is And or kind is Or:
        return kind(_ferraris(f.left, total, positive), _ferraris(f.right, total, positive))
    if kind is XNeg:
        return XNeg(_ferraris(f.child, total, not positive))
    if kind is Impl:
        if not positive:
            return _ferraris(f.right, total, False)
        return Or(DNeg(_ferraris(f.left, total, True)), _ferraris(f.right, total, True))
    if kind is DNeg:
        return DNeg(_ferraris(f.child, total, True)) if positive else BOT
    return f  # an atom or a constant
