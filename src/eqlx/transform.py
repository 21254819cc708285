"""Rewriting: negation normal form, regular rules, constant folding, export,
encodings.

Each rewrite rule is written once, as a named entry of a table, and the
rewriters apply the tables: a small matcher finds the first entry whose
left-hand side matches a node (the atoms of a pattern are its
metavariables) and builds the right-hand side from the bindings.  Every
entry is machine-verified against the five-valued semantics the first time
a rewriter runs, so a wrong rule announces itself immediately.  Rules
marked ``subst`` preserve the value at every interpretation and may fire in
any context; rules marked ``weak`` only preserve designatedness and are
applied outermost-first so that they never fire inside an explicit negation.
The distribution and rule splitting of :func:`to_regular` stay hand-written;
the names they trace are verified table entries too.  Each rule side is
walked three times, each walk one recursive call per node that dispatches on
the node's exact type: pushing ``not`` down, which also checks negation
normal form, then constant folding, then distribution.  Distribution turns a
rule into alternatives of its body and of its head, and every (body, head)
pair becomes a rule.  Each alternative is split in one pass over its items,
into the items it keeps joined in one ``&``/``|`` chain and the ``not not``
items it shifts across, deduplicated there, so a pair only tests the few
shifted items for membership and extends the two shared chains by those it
adds, or takes them as they are when nothing crosses; an extension by one
item is built once per call, so the rules that extend a chain alike share
its node.  A ``Rule`` then costs two slot writes and two slot reads.  The
cost per output rule is thus a small constant, and the whole is linear in
the rules produced.  These walks recurse rather than loop over
``core.postorder``: in CPython a call per node costs less than a step of an
explicit stack.  :func:`is_nnf` and :func:`cross_encode` are such loops.
:func:`export_asp` renders each distinct node once per call, by id: the
text of a literal, which all the rules of a distribution share, and of
every chain, so a rule side that extends a shared chain by one item costs
one concatenation.  ``canonical_print`` prints ``regular``'s output the same
way.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

from .core import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    FiveValue,
    Formula,
    Impl,
    Or,
    Program,
    Rule,
    Theory,
    Top,
    XNeg,
    _formulas,
    _Frozen,
    atom,
    atoms,
    iff,
    postorder,
)
from .semantics import EvalMode, _val
from .semantics import value5  # noqa: F401  bench/tracing.py wraps this module binding
from .truthtable import enumerate_x5

__all__ = [
    "NotInNNF",
    "NotRegular",
    "RewriteBudgetExceeded",
    "CrossEncoding",
    "RewriteRule",
    "NNF_RULES",
    "REGULAR_RULES",
    "FOLD_RULES",
    "verify_rewrite_rules",
    "is_nnf",
    "to_nnf",
    "to_nnf_program",
    "to_regular",
    "simplify_constants",
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


class RewriteRule(_Frozen):
    """One named rewrite with the logic(s) and strength it is valid at.

    Entries compare by identity: a table may share another table's entry."""

    __slots__ = _fields = ("name", "lhs", "rhs", "strength", "modes")
    name: str
    lhs: Formula
    rhs: Formula
    strength: str  # "subst" (values equal everywhere) or "weak" (designatedness)
    modes: Tuple[EvalMode, ...]

    def __init__(self, name: str, lhs: Formula, rhs: Formula, strength: str,
                 modes: Tuple[EvalMode, ...]) -> None:
        self._store(name, lhs, rhs, strength, modes)

    __eq__ = object.__eq__
    __hash__ = object.__hash__


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
    RewriteRule("and_bot", And(_a, BOT), BOT, "subst", _BOTH),
    RewriteRule("or_top", Or(_a, TOP), TOP, "subst", _BOTH),
    RewriteRule("and_top", And(_a, TOP), _a, "subst", _BOTH),
    RewriteRule("or_bot", Or(_a, BOT), _a, "subst", _BOTH),
    RewriteRule("dneg_and", DNeg(And(_a, _b)), Or(DNeg(_a), DNeg(_b)), "subst", _X5),
    RewriteRule("dneg_or", DNeg(Or(_a, _b)), And(DNeg(_a), DNeg(_b)), "subst", _X5),
    RewriteRule("dneg_top", DNeg(TOP), BOT, "subst", _BOTH),
    RewriteRule("dneg_bot", DNeg(BOT), TOP, "subst", _BOTH),
    RewriteRule("triple_dneg", DNeg(DNeg(DNeg(_a))), DNeg(_a), "subst", _X5),
    RewriteRule("head_and_split", Impl(_a, And(_b, _c)),
                And(Impl(_a, _b), Impl(_a, _c)), "subst", _X5),
    RewriteRule("body_or_split", Impl(Or(_a, _b), _c),
                And(Impl(_a, _c), Impl(_b, _c)), "subst", _X5),
    RewriteRule("body_dneg_shift", Impl(And(_a, DNeg(DNeg(_b))), _c),
                Impl(_a, Or(_c, DNeg(_b))), "subst", _X5),
    RewriteRule("head_dneg_shift", Impl(_a, Or(_c, DNeg(DNeg(_b)))),
                Impl(And(_a, DNeg(_b)), _c), "subst", _X5),
    RewriteRule("head_dneg_elim", Impl(_a, Or(_b, DNeg(_c))),
                Impl(And(_a, DNeg(DNeg(_c))), _b), "subst", _X5),
    RewriteRule("drop_trivial_rule", Impl(_a, TOP), TOP, "subst", _BOTH),
    RewriteRule("drop_trivial_rule", Impl(BOT, _a), TOP, "subst", _BOTH),
    RewriteRule("falsum_rule_split", Impl(TOP, BOT),
                And(Impl(_a, BOT), Impl(DNeg(_a), BOT)), "subst", _X5),
    RewriteRule("and_idem", And(_a, _a), _a, "subst", _X5),
    RewriteRule("or_idem", Or(_a, _a), _a, "subst", _X5),
)

_named = {r.name: r for r in NNF_RULES + REGULAR_RULES}
_head_top, _body_bot = (r for r in REGULAR_RULES if r.name == "drop_trivial_rule")

#: Constant folding, applied bottom-up by :func:`simplify_constants`.  It
#: shares the entries the other tables already have and adds their mirror
#: images; a trivial rule folds to ``top`` by the entries that drop it.
FOLD_RULES: Tuple[RewriteRule, ...] = (
    RewriteRule("bot_and", And(BOT, _a), BOT, "subst", _BOTH), _named["and_bot"],
    RewriteRule("top_and", And(TOP, _a), _a, "subst", _BOTH), _named["and_top"],
    RewriteRule("top_or", Or(TOP, _a), TOP, "subst", _BOTH), _named["or_top"],
    RewriteRule("bot_or", Or(BOT, _a), _a, "subst", _BOTH), _named["or_bot"],
    _named["xneg_top"], _named["xneg_bot"], _named["xneg_xneg"],
    _named["dneg_top"], _named["dneg_bot"],
    _head_top, _body_bot, RewriteRule("top_impl", Impl(TOP, _a), _a, "subst", _BOTH),
)


def verify_rewrite_rules() -> int:
    """Check every table entry semantically; returns the number of checks run.

    An entry's signature is the atoms of its two sides.  Each signature's
    points (in ``enumerate_x5`` order) and each atom's column of values at
    them are built once; the five-valued fold of ``value5`` then evaluates a
    side at all the points in one call.  A ``subst`` entry must give its two
    sides equal columns, a ``weak`` one must designate ``lhs <-> rhs``
    everywhere; each (entry, mode) pair counts as one check.  A failure names
    the entry, the mode and the first failing point.
    """
    checked = 0
    failures = []
    columns: Dict[tuple, tuple] = {}
    for rule in dict.fromkeys(NNF_RULES + REGULAR_RULES + FOLD_RULES):
        sig = tuple(sorted(atoms(rule.lhs) | atoms(rule.rhs)))
        if sig not in columns:
            points = list(enumerate_x5(sig))
            of_atom = {a: tuple(m.value_of(a) for m in points) for a in sig}
            columns[sig] = points, of_atom.__getitem__
        points, column = columns[sig]
        width = len(points)
        for mode in rule.modes:
            if rule.strength == "subst":
                ok = [x == y for x, y in zip(_val(column, width, rule.lhs, mode),
                                             _val(column, width, rule.rhs, mode))]
            else:
                ok = [v == FiveValue.PROVEN_TRUE
                      for v in _val(column, width, iff(rule.lhs, rule.rhs), mode)]
            if not all(ok):
                failures.append(f"{rule.name} fails in {mode.value} at {points[ok.index(False)]}")
            checked += 1
    if failures:
        raise AssertionError("rewrite table is unsound: " + "; ".join(failures))
    return checked


@functools.cache
def _ensure_verified() -> None:
    verify_rewrite_rules()


def _note(trace: Optional[list], name: str, where: str) -> None:
    if trace is not None:
        trace.append(f"{name} @ {where}")


# ---------------------------------------------------------------------------
# Matching table entries


# a metavariable's name to the subterm it matched
Binding = Dict[str, Formula]


def _shape(f: Formula) -> tuple:
    """The connective of ``f`` followed by those of its operands."""
    kind = type(f)
    if kind is XNeg or kind is DNeg:
        return kind, type(f.child)
    if kind is And or kind is Or or kind is Impl:
        return kind, type(f.left), type(f.right)
    return (kind,)


class _Table:
    """The rules of a table, with the candidates for each shape of node found
    once: the rules whose left-hand side has the node's connective and, at
    each operand, a metavariable or the operand's connective.  No left-hand
    side is a bare metavariable, so a node whose connective roots none of
    them has no candidate."""

    def __init__(self, rules: Tuple[RewriteRule, ...]):
        self.rules = [(rule, _shape(rule.lhs)) for rule in rules]
        self.roots = {type(rule.lhs) for rule in rules}
        self.candidates: Dict[tuple, List[RewriteRule]] = {}

    def first_match(self, f: Formula) -> Optional[Tuple[RewriteRule, Binding]]:
        """The first rule whose left-hand side matches ``f``, with its bindings.

        A walk over many nodes tests ``type(f) in roots`` first, and calls
        this only for the nodes that may match."""
        shape = _shape(f)
        candidates = self.candidates.get(shape)
        if candidates is None:
            candidates = self.candidates[shape] = [
                rule for rule, lhs in self.rules
                if all(x is y or x is AtomRef for x, y in zip(lhs, shape))]
        for rule in candidates:
            binding: Binding = {}
            if _match(rule.lhs, f, binding):
                return rule, binding
        return None


_table = functools.cache(_Table)  # one matcher per table


def _match(pattern: Formula, f: Formula, binding: Binding) -> bool:
    kind = type(pattern)
    if kind is AtomRef:
        # an atom of a pattern is a metavariable: it matches any subterm
        bound = binding.setdefault(pattern.atom.name, f)
        return bound is f or bound == f
    if kind is not type(f):
        return False
    if kind is XNeg or kind is DNeg:
        return _match(pattern.child, f.child, binding)
    if kind is And or kind is Or or kind is Impl:
        return _match(pattern.left, f.left, binding) and _match(pattern.right, f.right, binding)
    return True


def _instantiate(template: Formula, binding: Binding,
                 negated: Optional[Binding] = None) -> Formula:
    """The right-hand side ``template`` with its metavariables bound; each
    ``not v`` with ``v`` in ``negated`` becomes ``negated[v]``."""
    kind = type(template)
    if kind is AtomRef:
        return binding[template.atom.name]
    if kind is XNeg or kind is DNeg:
        child = template.child
        if negated and kind is DNeg and type(child) is AtomRef:
            return negated[child.atom.name]
        return kind(_instantiate(child, binding, negated))
    if kind is And or kind is Or or kind is Impl:
        return kind(_instantiate(template.left, binding, negated),
                    _instantiate(template.right, binding, negated))
    return template


# ---------------------------------------------------------------------------
# Negation normal form


def is_nnf(x: Union[Formula, Rule, Program, Theory]) -> bool:
    """True iff every explicit negation in ``x`` is applied to an atom."""
    done: set = set()
    for f in postorder(_formulas(x, "check negation normal form of"), done):
        if type(f) is XNeg and type(f.child) is not AtomRef:
            return False
        done.add(id(f))
    return True


def to_nnf(phi: Formula, mode: EvalMode = EvalMode.X5,
           trace: Optional[list] = None) -> Formula:
    """Drive explicit negation down to the atoms.

    Works outermost-first with the entries of ``NNF_RULES`` valid in
    ``mode``: an explicit negation is rewritten by the head connective of
    its operand before any subterm is visited, which guarantees the weak-only
    implication rule never fires inside a remaining ``~`` and keeps the
    result weakly equivalent in the selected logic.  On inputs without
    implications only value-preserving rules fire.  Without a trace each
    distinct node is rewritten once, so a subformula shared inside ``phi``,
    as the operands of ``<->`` and ``<=>`` are, costs one rewrite; a trace
    names every path of the unfolded tree, so a traced run visits each.
    """
    return _nnf(phi, _nnf_rules(mode), trace, "", {} if trace is None else None)


def _nnf_rules(mode: EvalMode) -> _Table:
    if mode not in (EvalMode.X5, EvalMode.N5):
        raise ValueError(f"to_nnf supports X5 and N5 modes, not {mode}")
    _ensure_verified()
    return _table(tuple(r for r in NNF_RULES if mode in r.modes))


def _nnf(f: Formula, rules: _Table, trace: Optional[list], path: str,
         done: Optional[Dict[int, Tuple[Formula, Formula]]]) -> Formula:
    """``f`` in negation normal form; ``path`` is its position in the input,
    such as ``0.1.``, which the trace names and which is built only when a
    trace is being recorded.  ``done``, None when tracing, maps the id of
    each compound node rewritten so far to the node and its result; holding
    the node keeps the id of a right-hand side built on the way unique."""
    kind = type(f)
    if kind is AtomRef:  # no entry's left-hand side is a bare metavariable
        return f
    if done is not None:
        known = done.get(id(f))
        if known is not None:
            return known[1]
    traced = trace is not None
    hit = rules.first_match(f) if kind in rules.roots else None
    if hit is not None:
        rule, binding = hit
        if traced:
            trace.append(f"{rule.name} @ {path.rstrip('.') or 'root'}")
        out = _nnf(_instantiate(rule.rhs, binding), rules, trace, path, done)
    elif kind is And or kind is Or or kind is Impl:
        left = _nnf(f.left, rules, trace, path + "0." if traced else path, done)
        right = _nnf(f.right, rules, trace, path + "1." if traced else path, done)
        out = f if left is f.left and right is f.right else kind(left, right)
    elif kind is XNeg or kind is DNeg:
        child = _nnf(f.child, rules, trace, path + "0." if traced else path, done)
        out = f if child is f.child else kind(child)
    else:
        return f
    if done is not None:
        done[id(f)] = f, out
    return out


def to_nnf_program(p: Program, mode: EvalMode = EvalMode.X5,
                   trace: Optional[list] = None) -> Program:
    # rule sides parsed from a file share only atoms, so no memo pays here
    rules = _nnf_rules(mode)
    return Program(Rule(_nnf(r.body, rules, trace, "", None), _nnf(r.head, rules, trace, "", None))
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

    A rule that is not in negation normal form raises :class:`NotInNNF`, and
    the trace then holds the notes of the rules before it only.
    Distribution can explode; more than ``MAX_ALTERNATIVES`` alternatives
    raise :class:`RewriteBudgetExceeded`.
    """
    _ensure_verified()
    regular_rules, fold_rules = _table(REGULAR_RULES), _table(FOLD_RULES)
    traced = trace is not None
    out: List[Rule] = []
    # each node built for the rules' sides, by its type and its children's
    # ids; it holds the children, so their ids stay unique for the whole call
    built: Dict[tuple, Formula] = {}
    falsum = False
    for i, r in enumerate(p):
        where = f"rule {i}" if traced else ""
        noted = len(trace) if traced else 0
        try:
            body = _push_dneg(r.body, regular_rules, trace, where)
            head = _push_dneg(r.head, regular_rules, trace, where)
        except NotInNNF:
            if traced:
                del trace[noted:]
            raise NotInNNF(f"rule {i} is not in negation normal form: {r!r}") from None
        body_alts = _alternatives(_fold(body, fold_rules), Or, And, Bot, "dist_and_or",
                                  trace, where)
        head_alts = _alternatives(_fold(head, fold_rules), And, Or, Top, "dist_or_and",
                                  trace, where)
        if not body_alts or not head_alts:
            _note(trace, "drop_trivial_rule", where)
            continue
        if len(body_alts) > 1:
            _note(trace, "body_or_split", where)
        if len(head_alts) > 1:
            _note(trace, "head_and_split", where)
        bodies = [_Side(conj, False, eliminate_head_dneg, built) for conj in body_alts]
        heads = [_Side(disj, True, eliminate_head_dneg, built) for disj in head_alts]
        if traced:
            shift_body, shift_head, elim = (f"{name} @ {where}" for name in (
                "body_dneg_shift", "head_dneg_shift", "head_dneg_elim"))
        for b in bodies:
            for h in heads:
                if traced:
                    trace += ([shift_body] * b.shifted + [shift_head] * h.shifted
                              + [elim] * (b.eliminated + h.eliminated))
                body = _extend(b, h, And, built) if h.across or b.last else b.chain
                head = _extend(h, b, Or, built) if b.across or h.last else h.chain
                if body is None and head is None:
                    falsum = True
                    continue
                out.append(Rule(TOP if body is None else body, BOT if head is None else head))
    if falsum:
        pivot = min(atoms(p), default=Atom("unsat0"))
        _note(trace, "falsum_rule_split", "program")
        out.append(Rule(AtomRef(pivot), BOT))
        out.append(Rule(DNeg(AtomRef(pivot)), BOT))
    return Program(out)


def _push_dneg(f: Formula, rules: _Table, trace: Optional[list], where: str) -> Formula:
    """Distribute ``not`` over the lattice connectives and cap chains at two.

    The same walk checks negation normal form, as :func:`is_nnf` does on a
    rule side, which holds no implication: an explicit negation of anything
    but an atom raises :class:`NotInNNF`."""
    kind = type(f)
    if kind is And or kind is Or:
        left = _push_dneg(f.left, rules, trace, where)
        right = _push_dneg(f.right, rules, trace, where)
        return f if left is f.left and right is f.right else kind(left, right)
    if kind is DNeg:
        return _dneg_of(_push_dneg(f.child, rules, trace, where), rules, trace, where)
    if kind is XNeg and type(f.child) is not AtomRef:
        raise NotInNNF(f"not in negation normal form: {f!r}")
    return f


def _dneg_of(g: Formula, rules: _Table, trace: Optional[list], where: str) -> Formula:
    """``not g`` rewritten by the ``not`` entries of ``REGULAR_RULES``, for an
    already pushed ``g``.  Each ``not v`` a right-hand side introduces is
    pushed here by a direct call, so a chain costs one frame per level and
    no pushed subterm is walked again."""
    f = DNeg(g)
    hit = rules.first_match(f)
    if hit is None:
        return f
    rule, binding = hit
    _note(trace, rule.name, where)
    # each metavariable of a ``not`` entry's right-hand side stands directly
    # under ``not``, in the order the left-hand side binds them
    negated = {v: _dneg_of(x, rules, trace, where) for v, x in binding.items()}
    return _instantiate(rule.rhs, binding, negated)


class _Side:
    """One alternative of a rule side, split once for all the rules it is in,
    in one pass over its items.

    Each ``not not L`` moves to the other side as ``not L``.  When heads may
    not hold ``not`` (``eliminate_head_dneg``), a body's ``not not L`` comes
    back to the end of the body instead, and each ``not L`` of a head moves
    to the body as ``not not L``, after the head's shifted items.

    ``kept`` are the items that stay on this side, in order and without
    repeats, and ``chain`` joins them (None when there are none).  Each rule
    appends the other side's ``across`` items, then this side's ``last``
    ones; both are deduplicated here, in order, so a rule only tests
    membership.  ``last`` only ever holds ``not not`` items, which are never
    kept.  ``shifted`` counts the ``not not`` items that move across and
    ``eliminated`` the items that the elimination moves; each rule notes
    them."""

    __slots__ = ("kept", "chain", "across", "last", "shifted", "eliminated")

    def __init__(self, items: List[Formula], head: bool, eliminate_head_dneg: bool,
                 built: Dict[tuple, Formula]):
        join = Or if head else And
        kept: Dict[Formula, None] = {}
        across: Dict[Formula, None] = {}
        last: Dict[Formula, None] = {}
        moved: List[Formula] = []  # the ``not L`` items that leave a head
        chain = None
        shifted = 0
        for x in items:
            if type(x) is DNeg:
                if type(x.child) is DNeg:
                    shifted += 1
                    if eliminate_head_dneg and not head:
                        last[x] = None
                    else:
                        across[x.child] = None  # ``not L``
                    continue
                if head and eliminate_head_dneg:
                    moved.append(x)
                    continue
            if x not in kept:
                kept[x] = None
                chain = x if chain is None else join(chain, x)
        for x in moved:  # one ``not not L`` per ``not L`` node, in ``built``
            key = (DNeg, id(x))
            doubled = built.get(key)
            if doubled is None:
                doubled = built[key] = DNeg(x)
            across[doubled] = None
        self.kept, self.chain, self.across, self.last = kept, chain, across, last
        self.shifted = shifted
        self.eliminated = len(moved) if head else shifted if eliminate_head_dneg else 0


def _extend(side: _Side, other: _Side, join: type,
            built: Dict[tuple, Formula]) -> Optional[Formula]:
    """``side``'s chain joined with the ``across`` items of ``other`` it does
    not hold, then with its own ``last`` items that are not among those.
    Each one-item extension is looked up in ``built`` first and stored
    there, so the rules that extend one chain by the same items share one
    node, whose text ``canonical_print`` and ``export_asp`` then build once."""
    added = [x for x in other.across if x not in side.kept]
    added += [x for x in side.last if x not in other.across]
    chain = side.chain
    for x in added:
        if chain is None:
            chain = x
            continue
        key = (join, id(chain), id(x))
        extended = built.get(key)
        if extended is None:
            extended = built[key] = join(chain, x)
        chain = extended
    return chain


def _alternatives(f: Formula, outer: type, inner: type, empty: type, name: str,
                  trace: Optional[list], where: str) -> List[List[Formula]]:
    """``f`` as alternatives joined by ``outer``, each a list of items joined
    by ``inner``: the disjunctive normal form of a body (``outer`` is ``Or``,
    ``empty`` is ``Bot``) or the conjunctive one of a head.  Distributing
    ``inner`` over ``outer`` notes ``name``."""
    kind = type(f)
    if kind is outer:
        return (_alternatives(f.left, outer, inner, empty, name, trace, where)
                + _alternatives(f.right, outer, inner, empty, name, trace, where))
    if kind is inner:
        left = _alternatives(f.left, outer, inner, empty, name, trace, where)
        right = _alternatives(f.right, outer, inner, empty, name, trace, where)
        if len(left) == 1 and len(right) == 1:
            return [left[0] + right[0]]
        if len(left) > 1 and len(right) > 1:
            _note(trace, name, where)
        n = len(left) * len(right)
        if n > MAX_ALTERNATIVES:
            raise RewriteBudgetExceeded(
                f"distribution produced {n} alternatives, budget is {MAX_ALTERNATIVES}")
        return [x + y for x in left for y in right]
    if kind is Top or kind is Bot:
        return [] if kind is empty else [[]]
    return [[f]]


# ---------------------------------------------------------------------------
# Constant folding


def simplify_constants(phi: Formula) -> Formula:
    """Fold ``top``/``bot`` through connectives and collapse double ``~``.

    Bottom-up with the entries of ``FOLD_RULES``, each of which preserves the
    five-valued value at every interpretation in X5 and N5, so results may be
    substituted for their originals in any context.
    """
    _ensure_verified()
    return _fold(phi, _table(FOLD_RULES))


def _fold(f: Formula, rules: _Table) -> Formula:
    kind = type(f)
    if kind is And or kind is Or or kind is Impl:
        left, right = _fold(f.left, rules), _fold(f.right, rules)
        if left is not f.left or right is not f.right:
            f = kind(left, right)
    elif kind is XNeg or kind is DNeg:
        child = _fold(f.child, rules)
        if child is not f.child:
            f = kind(child)
    if kind not in rules.roots:
        return f
    hit = rules.first_match(f)
    return f if hit is None else _instantiate(hit[0].rhs, hit[1])


# ---------------------------------------------------------------------------
# Solver export


def export_asp(p: Program) -> str:
    """Render a regular program in mainstream solver syntax, byte for byte.

    Explicit negation prints as ``-``, default negation as ``not``; an empty
    head renders as a constraint.  Doubled default negation in bodies (from
    ``eliminate_head_dneg``) prints as ``not not``.
    """
    heads: Dict[int, str] = {}  # the text of each head and body node by id
    bodies: Dict[int, str] = {}
    lines = []
    for i, r in enumerate(p):
        body, head = r.body, r.head
        if isinstance(head, Bot):
            if isinstance(body, Top):
                raise NotRegular(f"rule {i} has an empty body and an empty head")
            head_txt = ""
        else:  # a side shared with an earlier rule is one lookup, no call
            head_txt = heads.get(id(head)) or _render(head, heads, Or, " ; ", i)
        if isinstance(body, Top):
            lines.append(f"{head_txt}.")
        else:
            body_txt = bodies.get(id(body)) or _render(body, bodies, And, ", ", i, True)
            lines.append(f"{head_txt} :- {body_txt}." if head_txt else f":- {body_txt}.")
    return "".join(line + "\n" for line in lines)


def _render(f: Formula, rendered: Dict[int, str], join: type, sep: str,
            rule_index: int, allow_double: bool = False) -> str:
    """The literals of the ``join`` chain ``f`` joined by ``sep``.  ``rendered``
    holds the text of every chain and literal rendered so far in one export,
    by id, so a literal shared by many rules is rendered once and a chain
    that extends a rendered one costs one concatenation per new item."""
    spine = []  # the chain's left spine down to a rendered node or a literal
    while type(f) is join and id(f) not in rendered:
        spine.append(f)
        f = f.left
    text = rendered.get(id(f))
    if text is None:
        text = rendered[id(f)] = _render_literal(f, rule_index, allow_double)
    for chain in reversed(spine):
        right = chain.right
        right_text = rendered.get(id(right))
        if right_text is None:
            if type(right) is join:
                right_text = _render(right, rendered, join, sep, rule_index, allow_double)
            else:
                right_text = rendered[id(right)] = _render_literal(right, rule_index,
                                                                   allow_double)
        text = rendered[id(chain)] = text + sep + right_text
    return text


def _render_literal(f: Formula, rule_index: int, allow_double: bool = False) -> str:
    """``L``, ``not L`` or, if ``allow_double``, ``not not L`` for an explicit
    literal ``L``, printed ``a`` or ``-a``; anything else is not regular."""
    g, prefix = f, ""
    if type(g) is DNeg:
        g, prefix = g.child, "not "
        if allow_double and type(g) is DNeg:
            g, prefix = g.child, "not not "
    if type(g) is XNeg:
        g, prefix = g.child, prefix + "-"
    if type(g) is AtomRef:
        return prefix + g.atom.name
    raise NotRegular(f"rule {rule_index} is not regular at {f!r}")


# ---------------------------------------------------------------------------
# Cross-encodings between the two logics


def cross_encode(phi: Formula, direction: CrossEncoding) -> Formula:
    """Express one logic's implication and default negation inside the other.

    A fold over ``core.postorder``, so each distinct subformula is translated
    exactly once and a subformula shared in ``phi`` is shared in the result.
    Encoding ``N5_IN_X5`` yields a formula to be evaluated in X5 mode that
    reproduces the N5 value of the original, and vice versa.
    """
    n5_in_x5 = direction is CrossEncoding.N5_IN_X5
    done: Dict[int, Formula] = {}
    for f in postorder((phi,), done):
        kind = type(f)
        if kind is Bot or kind is Top or kind is AtomRef:
            out = f
        elif kind is XNeg:
            out = XNeg(done[id(f.child)])
        elif kind is And or kind is Or:
            out = kind(done[id(f.left)], done[id(f.right)])
        elif kind is DNeg:
            child = done[id(f.child)]
            out = Impl(child, XNeg(child)) if n5_in_x5 else DNeg(DNeg(DNeg(child)))
        elif kind is Impl:
            left, right = done[id(f.left)], done[id(f.right)]
            out = (Impl(left, Or(XNeg(left), right)) if n5_in_x5
                   else And(Impl(left, right), Impl(XNeg(right), DNeg(DNeg(DNeg(left))))))
        else:
            raise TypeError(f"cannot encode {kind.__name__}")
        done[id(f)] = out
    return done[id(phi)]
