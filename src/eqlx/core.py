"""Syntax for propositional programs and theories with two negations.

Formulas combine explicit negation ``~`` (constructive falsity) with default
negation ``not`` (negation as failure) over the usual connectives.  Every
type in this module is immutable, hashable and compared structurally, so
values can be shared freely between threads.  The value classes, the
interpretations among them, are frozen records on one base, ``_Frozen``: a
class declares its slots and names its fields once, in ``_fields``, its
constructor writes them, and every assignment or deletion afterwards raises
``FrozenInstanceError``.  The base derives equality, hashing, pickling and a
dataclass-style repr from the fields, ``_Ordered`` their order.  The formula
nodes inherit their fields and a plain constructor from three arity bases,
``_Constant``, ``_Unary`` and ``_Binary``; ``AtomRef`` has its own.  That
constructor fills every slot: the fields, ``_nested`` (whether the node is a
nested expression, read off its children's ``_nested``, so ``is_nested`` and
``Rule`` read one slot and never recurse) and ``_hash``, the hash of the
tuple of the node's fields, computed from the children's stored hashes.
``hash()`` reads the slot, so it walks nothing, and equality is one loop
over the pairs of nodes left to compare, so a chain of any length hashes
and compares in constant stack depth.

``postorder`` is the one walk the evaluation folds, the readers and the
rebuilders share: each distinct node once, children first, in a loop over
an explicit stack.
"""

from __future__ import annotations

import re
from enum import IntEnum
from operator import attrgetter
from typing import Container, Dict, Iterable, Iterator, List, Mapping, Optional, Union

__all__ = [
    "Atom",
    "ExplicitLiteral",
    "Formula",
    "Bot",
    "Top",
    "AtomRef",
    "XNeg",
    "DNeg",
    "And",
    "Or",
    "Impl",
    "BOT",
    "TOP",
    "Rule",
    "Program",
    "Theory",
    "Interpretation",
    "X5Interpretation",
    "FiveValue",
    "InconsistentLiterals",
    "NotNested",
    "RESERVED_WORDS",
    "atom",
    "iff",
    "strong_iff",
    "atoms",
    "substitute",
    "is_nested",
    "is_explicit",
    "is_regular",
    "is_default_literal",
    "as_explicit_literal",
    "canonical_print",
    "postorder",
]

_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

#: Words that the surface syntax claims for itself.
RESERVED_WORDS = frozenset({"bot", "top", "not"})


class InconsistentLiterals(ValueError):
    """A literal set contains some atom together with its explicit negation."""


class NotNested(ValueError):
    """An implication occurs where only nested expressions are allowed."""


class _Frozen:
    """A record of the fields its class names in ``_fields``, which behaves
    as a frozen dataclass of those fields does.  It refuses every assignment
    and deletion, and it compares (only with its own class), hashes, pickles
    and prints as the tuple of its fields.  A constructor writes its fields
    past the refusal, through the slot descriptors or :meth:`_store`."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        # _values(x) is the tuple of x's fields, read by a C-level getter
        super().__init_subclass__(**kwargs)
        names = cls._fields
        values = attrgetter(*names) if names else lambda x: ()
        if len(names) == 1:
            one = values
            values = lambda x: (one(x),)
        cls._values = staticmethod(values)

    def _store(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    # dataclasses is imported here, not on import: it imports inspect
    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        # rebuild through the constructor, which fills any cache slots
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


class _Ordered(_Frozen):
    """A record ordered as the tuple of its fields; ``>`` and ``>=`` reflect
    to ``<`` and ``<=``."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) < other._values(other)

    def __le__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) <= other._values(other)


class Atom(_Ordered):
    """Propositional atom; names are lowercase-initial identifiers.

    Atoms are ordered by name (``>`` and ``>=`` reflect to ``<`` and
    ``<=``).  The constructor stores the hash, that of the tuple
    ``(name,)``."""

    __slots__ = ("name", "_hash")
    _fields = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        if name in RESERVED_WORDS:
            raise ValueError(f"reserved word used as atom: {name!r}")
        if not _ATOM_RE.match(name):
            raise ValueError(f"not a valid atom name: {name!r}")
        _set_name(self, name)
        _set_atom_hash(self, hash((name,)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    # by name, as the order of the 1-tuples is, without building them
    def __lt__(self, other: "Atom") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name < other.name

    def __le__(self, other: "Atom") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name <= other.name

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


_set_name, _set_atom_hash = Atom.name.__set__, Atom._hash.__set__


class ExplicitLiteral(_Ordered):
    """An atom or its explicit negation.

    The order of the pairs (atom, negated) (atom name first, positive before
    negative) is the canonical printing order for interpretations.
    """

    __slots__ = _fields = ("atom", "negated")
    atom: Atom
    negated: bool

    def __init__(self, atom: Atom, negated: bool = False) -> None:
        _set_atom(self, atom)
        _set_negated(self, negated)

    def complement(self) -> "ExplicitLiteral":
        return ExplicitLiteral(self.atom, not self.negated)

    def as_formula(self) -> "Formula":
        ref = AtomRef(self.atom)
        return XNeg(ref) if self.negated else ref

    def __str__(self) -> str:
        return ("~" if self.negated else "") + self.atom.name

    def __repr__(self) -> str:
        return f"ExplicitLiteral({str(self)!r})"


_set_atom, _set_negated = ExplicitLiteral.atom.__set__, ExplicitLiteral.negated.__set__


class Formula(_Frozen):
    """Base class of formula nodes.

    Supports a little operator sugar for building trees by hand:
    ``a & b``, ``a | b``, ``a >> b`` (implication) and ``~a`` (explicit
    negation).  Default negation has no operator; use :class:`DNeg`.
    """

    __slots__ = ("_hash", "_nested")

    def __eq__(self, other: object) -> bool:
        # one loop over the pairs of nodes left to compare; equal nodes have
        # equal stored hashes, so a pair whose hashes differ is unequal
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        pop, push = pairs.pop, pairs.append
        while pairs:
            a, b = pop()
            if a is b:
                continue
            kind = a.__class__
            if kind is not b.__class__ or a._hash != b._hash:
                return False
            if kind in _BINARY:
                push((a.right, b.right))
                push((a.left, b.left))
            elif kind in _UNARY:
                push((a.child, b.child))
            elif kind is AtomRef and a.atom != b.atom:
                return False
        return True

    def __hash__(self) -> int:
        # hash(fields), set by the constructor
        return self._hash

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Impl(self, other)

    def __invert__(self) -> "Formula":
        return XNeg(self)

    def __repr__(self) -> str:
        return canonical_print(self)


_store_hash = Formula._hash.__set__
_store_nested = Formula._nested.__set__


class _Constant(Formula):
    """A node without fields."""

    __slots__ = _fields = ()

    def __init__(self) -> None:
        _store_hash(self, hash(()))
        _store_nested(self, True)


class _Unary(Formula):
    """A connective of one operand."""

    __slots__ = _fields = ("child",)
    child: Formula

    def __init__(self, child: Formula) -> None:
        _set_child(self, child)
        _store_hash(self, hash((child,)))
        _store_nested(self, child._nested)


class _Binary(Formula):
    """A connective of two operands."""

    __slots__ = _fields = ("left", "right")
    _nested_connective = True  # may join nested expressions; not a slot
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula) -> None:
        _set_left(self, left)
        _set_right(self, right)
        _store_hash(self, hash((left, right)))
        _store_nested(self, self._nested_connective and left._nested and right._nested)


_set_child = _Unary.child.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class Bot(_Constant):
    __slots__ = ()


class Top(_Constant):
    __slots__ = ()


class AtomRef(Formula):
    __slots__ = _fields = ("atom",)
    atom: Atom

    def __init__(self, atom: Atom) -> None:
        _set_ref_atom(self, atom)
        _store_hash(self, hash((atom,)))
        _store_nested(self, True)


_set_ref_atom = AtomRef.atom.__set__


class XNeg(_Unary):
    """Explicit negation node (printed ``~``)."""

    __slots__ = ()


class DNeg(_Unary):
    """Default negation node (printed ``not``).

    Kept as a first-class node even though it abbreviates ``child -> bot``;
    the reduct pattern-matches on it, and semantic agreement with the derived
    form is enforced by tests rather than by construction.
    """

    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Impl(_Binary):
    __slots__ = ()
    _nested_connective = False  # the one connective nested expressions exclude


BOT = Bot()
TOP = Top()

# the connectives by arity, for walks that dispatch on a node's exact type
_BINARY = frozenset({And, Or, Impl})
_UNARY = frozenset({XNeg, DNeg})


def atom(name: str) -> AtomRef:
    """Shorthand for ``AtomRef(Atom(name))``."""
    return AtomRef(Atom(name))


def iff(a: Formula, b: Formula) -> Formula:
    """Double implication; expands, there is no dedicated node."""
    return And(Impl(a, b), Impl(b, a))


def strong_iff(a: Formula, b: Formula) -> Formula:
    """Equivalence that also relates the explicit negations of both sides."""
    return And(iff(a, b), iff(XNeg(a), XNeg(b)))


class Rule(_Frozen):
    """Implication ``body -> head`` between nested expressions.

    The constructor stores the two sides through their slots and reads each
    side's ``_nested`` slot; only a side that is not a nested expression, or
    not a formula, takes the slower path that names it.  A rule hashes as
    the tuple ``(body, head)``."""

    __slots__ = _fields = ("body", "head")
    body: Formula
    head: Formula

    def __init__(self, body: Formula, head: Formula) -> None:
        _set_body(self, body)
        _set_head(self, head)
        try:
            if body._nested and head._nested:
                return
        except AttributeError:  # not a formula, which is_nested lets through
            pass
        for side, name in ((body, "body"), (head, "head")):
            if not is_nested(side):
                raise NotNested(f"rule {name} must be a nested expression: "
                                f"{canonical_print(side)}")

    def as_implication(self) -> Impl:
        return Impl(self.body, self.head)

    def __repr__(self) -> str:
        return canonical_print(self)


_set_body, _set_head = Rule.body.__set__, Rule.head.__set__


class _Collection:
    """Ordered, duplicate-free collection of ``_member`` items with set equality."""

    __slots__ = ("_items",)
    _member: type

    def __init__(self, items: Iterable = ()):
        items = tuple(items)
        member = self._member
        for x in items:  # before any hashing, so a non-member is a TypeError
            if not isinstance(x, member):
                raise TypeError(f"expected {member.__name__}, got {type(x).__name__}")
        self._items: tuple = tuple(dict.fromkeys(items))  # one hash per item

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return frozenset(self._items) == frozenset(other._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._items)!r})"


class Program(_Collection):
    """Ordered, duplicate-free collection of rules with set equality."""

    __slots__ = ()
    _member = Rule

    def as_theory(self) -> "Theory":
        return Theory(r.as_implication() for r in self)


class Theory(_Collection):
    """Ordered, duplicate-free collection of formulas with set equality."""

    __slots__ = ()
    _member = Formula


class Interpretation(_Frozen):
    """Consistent set of explicit literals, ordered by inclusion."""

    __slots__ = _fields = ("literals",)

    def __init__(self, literals: Iterable[ExplicitLiteral] = ()):
        lits = frozenset(literals)
        # among distinct literals, an atom occurs twice iff it has both signs
        if len({l.atom for l in lits}) < len(lits):
            a = min(l.atom for l in lits if l.complement() in lits)
            raise InconsistentLiterals(f"inconsistent interpretation: {a} and ~{a}")
        _set_literals(self, lits)

    def has(self, a: Atom, negated: bool = False) -> bool:
        return ExplicitLiteral(a, negated) in self.literals

    def __le__(self, other: "Interpretation") -> bool:
        return self.literals <= other.literals

    issubset = __le__

    def __lt__(self, other: "Interpretation") -> bool:
        return self.literals < other.literals

    def __contains__(self, lit: ExplicitLiteral) -> bool:
        return lit in self.literals

    def __iter__(self) -> Iterator[ExplicitLiteral]:
        return iter(sorted(self.literals))

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        return "{" + ", ".join(str(l) for l in self) + "}"

    def __repr__(self) -> str:
        return f"Interpretation({str(self)})"


class X5Interpretation(_Frozen):
    """Pair of here/there literal sets with ``here`` included in ``there``.

    Equivalently a five-valued assignment of atoms; see :meth:`value_of`.
    """

    __slots__ = ("here", "there", "_by_atom")
    _fields = ("here", "there")

    def __init__(self, here: Interpretation, there: Interpretation):
        if not isinstance(here, Interpretation):
            here = Interpretation(here)
        if not isinstance(there, Interpretation):
            there = Interpretation(there)
        if not here.literals <= there.literals:
            raise ValueError(f"here world {here} is not a subset of there world {there}")
        _set_here(self, here)
        _set_there(self, there)
        # the atoms' values, read by value_of; absent atoms are 0
        by_atom = {l.atom: -1 if l.negated else 1 for l in there.literals}
        by_atom.update((l.atom, -2 if l.negated else 2) for l in here.literals)
        _set_by_atom(self, by_atom)

    def total(self) -> bool:
        return self.here == self.there

    def total_version(self) -> "X5Interpretation":
        return X5Interpretation(self.there, self.there)

    def value_of(self, a: Atom) -> int:
        """Five-valued reading of one atom: 2/-2 proved, 1/-1 by default, 0 unknown."""
        return self._by_atom.get(a, 0)

    def values(self, signature: Iterable[Atom]) -> dict:
        return {a: self.value_of(a) for a in sorted(signature)}

    @classmethod
    def from_values(cls, values: Mapping[Atom, int]) -> "X5Interpretation":
        here = []
        there = []
        for a, v in values.items():
            if v not in (-2, -1, 0, 1, 2):
                raise ValueError(f"not a five-valued assignment: {a}={v}")
            if v:
                lit = ExplicitLiteral(a, negated=v < 0)
                there.append(lit)
                if abs(v) == 2:
                    here.append(lit)
        return cls(Interpretation(here), Interpretation(there))

    def __str__(self) -> str:
        return f"<{self.here}, {self.there}>"

    def __repr__(self) -> str:
        return f"X5Interpretation({self.here}, {self.there})"


_set_literals = Interpretation.literals.__set__
_set_here, _set_there = X5Interpretation.here.__set__, X5Interpretation.there.__set__
_set_by_atom = X5Interpretation._by_atom.__set__


class FiveValue(IntEnum):
    """Truth value of the five-valued semantics; only 2 is designated."""

    PROVEN_FALSE = -2
    DEFAULT_FALSE = -1
    UNDEFINED = 0
    DEFAULT_TRUE = 1
    PROVEN_TRUE = 2

    @property
    def designated(self) -> bool:
        return self is FiveValue.PROVEN_TRUE


# ---------------------------------------------------------------------------
# Structural operations


def _formulas(x: Union[Formula, Rule, Program, Theory], doing: str) -> Iterable:
    """The formulas of ``x``: itself, a rule's sides, a program's rules' sides
    or a theory's members; anything else is a ``TypeError``."""
    if isinstance(x, Formula):
        return (x,)
    if isinstance(x, Rule):
        return x.body, x.head
    if isinstance(x, Program):
        return [side for r in x for side in (r.body, r.head)]
    if isinstance(x, Theory):
        return x
    raise TypeError(f"cannot {doing} {type(x).__name__}")


def atoms(x: Union[Formula, Rule, Program, Theory, Interpretation]) -> set:
    """Set of atoms occurring anywhere in ``x``, including under negations.

    One loop over ``postorder`` visits each distinct node of ``x`` once, so
    a node shared inside ``x``, as in ``iff(alpha, beta)``, or between its
    rules costs one lookup, and a chain of any length needs no recursion."""
    if isinstance(x, Interpretation):
        return {l.atom for l in x.literals}
    found: set = set()
    done: set = set()
    for f in postorder(_formulas(x, "collect atoms from"), done):
        done.add(id(f))
        if type(f) is AtomRef:
            found.add(f.atom)
        elif not isinstance(f, Formula):
            raise TypeError(f"cannot collect atoms from {type(f).__name__}")
    return found


def postorder(roots: Iterable[Formula], done: Container[int]) -> Iterator[Formula]:
    """Each node under ``roots`` once, after its children, skipping every
    node whose id is in ``done`` together with the nodes below it.

    The caller puts the id of each node it is given into ``done`` before it
    asks for the next one; that is what makes a node shared by several
    parents, as the operands of ``<->`` are, come once.  A fold keeps its
    results in ``done``, by id, and reads a node's children there.  One loop
    over an explicit stack does the walk, so a chain of any length needs no
    recursion.  The roots outlive the walk, so the ids stay unique."""
    stack: list = []
    pop = stack.pop
    for root in roots:
        stack.append(root)
        while stack:
            f = pop()
            if f is None:  # the children of the node below are done
                yield pop()
            elif id(f) not in done:
                kind = type(f)
                if kind in _BINARY:
                    stack += (f, None, f.right, f.left)
                elif kind in _UNARY:
                    stack += (f, None, f.child)
                else:
                    yield f


def substitute(phi: Formula, p: Atom, alpha: Formula) -> Formula:
    """Uniform substitution of every occurrence of ``p`` in ``phi`` by ``alpha``,
    one fold over ``postorder``: a node shared in ``phi`` is rebuilt once, and
    shared in the result.  A ``phi`` that is not a formula comes back as is."""
    done: Dict[int, object] = {}
    for f in postorder((phi,), done):
        kind = type(f)
        if kind in _BINARY:
            out = kind(done[id(f.left)], done[id(f.right)])
        elif kind in _UNARY:
            out = kind(done[id(f.child)])
        else:
            out = alpha if kind is AtomRef and f.atom == p else f
        done[id(f)] = out
    return done[id(phi)]


def is_nested(phi: Formula) -> bool:
    """True iff ``phi`` contains no implication node; read off its slot."""
    return phi._nested if isinstance(phi, Formula) else True


def is_explicit(x: Union[Formula, Rule, Program, Theory]) -> bool:
    """True iff no default negation occurs in ``x``."""
    done: set = set()
    for f in postorder(_formulas(x, "look for default negation in"), done):
        if type(f) is DNeg:
            return False
        done.add(id(f))
    return True


def as_explicit_literal(f: Formula) -> Optional[ExplicitLiteral]:
    """The explicit literal denoted by ``f``, or None if it is not one."""
    if isinstance(f, AtomRef):
        return ExplicitLiteral(f.atom)
    if isinstance(f, XNeg) and isinstance(f.child, AtomRef):
        return ExplicitLiteral(f.child.atom, negated=True)
    return None


def is_default_literal(f: Formula) -> bool:
    """True for ``L`` and ``not L`` with ``L`` an explicit literal."""
    if isinstance(f, DNeg):
        return as_explicit_literal(f.child) is not None
    return as_explicit_literal(f) is not None


def _operands(f: Formula, join: type) -> List[Formula]:
    """The members of the ``join`` chain ``f`` (``And`` or ``Or``), left to right."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, join):
            stack += (g.right, g.left)
        else:
            out.append(g)
    return out


def is_regular(r: Rule) -> bool:
    """True iff ``r`` has a default-literal body conjunction and head disjunction.

    An empty body is written ``top`` and an empty head ``bot``, but a rule may
    not have both.
    """
    body_ok = isinstance(r.body, Top) or all(map(is_default_literal, _operands(r.body, And)))
    head_ok = isinstance(r.head, Bot) or all(map(is_default_literal, _operands(r.head, Or)))
    if isinstance(r.body, Top) and isinstance(r.head, Bot):
        return False
    return body_ok and head_ok


# ---------------------------------------------------------------------------
# Canonical printing

# Binding strength of each connective; atoms and constants bind tightest (5).
_PREC = {Impl: 1, Or: 2, And: 3, XNeg: 4, DNeg: 4}
_INFIX = {Impl: " -> ", Or: " | ", And: " & "}


def _print_formula(f: Formula, printed: Dict[int, str]) -> str:
    """``f`` printed.  ``printed`` maps the id of each node printed so far
    in one call to its text, so a node shared inside the input, such as an
    operand of ``<->`` or a chain that many rules extend, is printed once.
    An operand is parenthesized when it binds less tightly than its
    connective, and so is the same connective on the right of ``&`` and
    ``|`` and on the left of ``->``.

    An ``&`` or ``|`` chain is walked down its left spine in a loop, to its
    longest prefix printed so far or to its first member, and printed back
    up with one concatenation per member; only the right operands and the
    other connectives recurse."""
    text = printed.get(id(f))
    if text is not None:
        return text
    kind = type(f)
    prec = _PREC.get(kind)
    if prec is None:
        if kind is AtomRef:
            text = f.atom.name
        elif kind is Top:
            text = "top"
        elif kind is Bot:
            text = "bot"
        else:
            raise TypeError(f"cannot print {kind.__name__}")
    elif prec == 4:  # ~ or not
        child = f.child
        text = _print_formula(child, printed)
        if _PREC.get(type(child), 5) < 4:
            text = "(" + text + ")"
        if kind is DNeg:
            text = "not " + text
        else:
            text = ("~ " if type(child) in (XNeg, DNeg) else "~") + text
    elif kind is Impl:  # right-associative
        left, right = f.left, f.right
        text = _print_formula(left, printed)
        if type(left) is Impl:
            text = "(" + text + ")"
        text += " -> " + _print_formula(right, printed)
    else:  # & or |: the left spine in a loop
        spine = []
        while type(f) is kind and id(f) not in printed:
            spine.append(f)
            f = f.left
        text = printed.get(id(f))
        if text is None:
            text = _print_formula(f, printed)
        if _PREC.get(type(f), 5) < prec:
            # a lower-precedence start is wrapped, printed before or not
            text = "(" + text + ")"
        infix = _INFIX[kind]
        for chain in reversed(spine):
            right = chain.right
            right_text = printed.get(id(right))
            if right_text is None:
                right_text = _print_formula(right, printed)
            if _PREC.get(type(right), 5) <= prec:
                right_text = "(" + right_text + ")"
            text = printed[id(chain)] = text + infix + right_text
        return text
    printed[id(f)] = text
    return text


def _print_rule(r: Rule, printed: Dict[int, str]) -> str:
    # a side shared with an earlier rule is one lookup, no call
    head = printed.get(id(r.head)) or _print_formula(r.head, printed)
    if isinstance(r.body, Top):
        return f"{head}."
    return f"{printed.get(id(r.body)) or _print_formula(r.body, printed)} -> {head}."


def canonical_print(x) -> str:
    """Deterministic ASCII rendering; the parser accepts everything emitted.

    Each distinct node of ``x`` is printed once, by id: a node shared inside
    a formula, or between the rules of a program, costs one lookup.  An
    ``&``/``|`` chain is printed from its left spine in a loop, so a chain of
    any length needs no deep recursion, and a rule side that extends a chain
    printed before costs one concatenation per new member."""
    if isinstance(x, Formula):
        return _print_formula(x, {})
    if isinstance(x, Rule):
        return _print_rule(x, {})
    if isinstance(x, Program):
        printed: Dict[int, str] = {}
        return "".join(_print_rule(r, printed) + "\n" for r in x)
    if isinstance(x, Theory):
        printed = {}
        return "".join(_print_formula(f, printed) + ".\n" for f in x)
    if isinstance(x, (Interpretation, X5Interpretation, ExplicitLiteral)):
        return str(x)
    raise TypeError(f"cannot print {type(x).__name__}")
