"""The value classes that hand-written classes replaced, kept verbatim as the
oracle their tests compare against: ``Atom``, ``ExplicitLiteral``, the formula
nodes and ``Rule`` of ``eqlx.core``, ``SourceSpan`` of ``eqlx.parser``,
``RewriteRule`` of ``eqlx.transform``, ``SolveOptions`` of ``eqlx.truthtable``
and ``EquivVerdict`` of ``eqlx.equivalence``, each a ``dataclasses``
dataclass.

Only the packaging differs: the names the classes read come from the modules
that still define them, ``canonical_print`` prints a tree of these nodes
through its ``eqlx`` twin, and ``from_eqlx`` builds the twin of an ``eqlx``
atom, literal, formula or rule.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Optional, Tuple

from eqlx import core
from eqlx.core import _ATOM_RE, RESERVED_WORDS, NotNested, Theory, X5Interpretation, atoms
from eqlx.semantics import EvalMode
from eqlx.truthtable import DEFAULT_MAX_ATOMS, _guarded, _Space


@dataclass(frozen=True, order=True)
class Atom:
    """Propositional atom; names are lowercase-initial identifiers."""

    name: str

    def __post_init__(self) -> None:
        if self.name in RESERVED_WORDS:
            raise ValueError(f"reserved word used as atom: {self.name!r}")
        if not _ATOM_RE.match(self.name):
            raise ValueError(f"not a valid atom name: {self.name!r}")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True, order=True)
class ExplicitLiteral:
    """An atom or its explicit negation.

    The derived order (atom name first, positive before negative) is the
    canonical printing order for interpretations.
    """

    atom: Atom
    negated: bool = False

    def complement(self) -> "ExplicitLiteral":
        return ExplicitLiteral(self.atom, not self.negated)

    def as_formula(self) -> "Formula":
        ref = AtomRef(self.atom)
        return XNeg(ref) if self.negated else ref

    def __str__(self) -> str:
        return ("~" if self.negated else "") + self.atom.name

    def __repr__(self) -> str:
        return f"ExplicitLiteral({str(self)!r})"


class Formula:
    """Base class of formula nodes.

    Supports a little operator sugar for building trees by hand:
    ``a & b``, ``a | b``, ``a >> b`` (implication) and ``~a`` (explicit
    negation).  Default negation has no operator; use :class:`DNeg`.
    """

    __slots__ = ("_hash", "_nested")
    _nested_connective = True  # may join nested expressions; not a slot

    def __hash__(self) -> int:
        # hash(fields), as the dataclass would compute it, set by the constructor
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor, which fills the cache slots
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)

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


def _frozen(cls: type) -> type:
    """A frozen, slotted dataclass on which every assignment and deletion
    raises ``FrozenInstanceError``.  The ``__setattr__`` and ``__delattr__``
    that ``dataclass`` generates call ``super()`` on the class that
    ``slots=True`` replaced, so they raise ``TypeError`` for a name that is
    not a field."""
    cls = dataclass(frozen=True, slots=True, repr=False)(cls)
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


def _refuse_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls: type) -> type:
    """A formula node: a frozen, slotted dataclass whose constructor fills
    every slot, the hash included."""
    cls = _frozen(cls)
    names = cls.__slots__  # the fields
    cls.__init__ = _constructor(names, [getattr(cls, n).__set__ for n in names],
                                cls._nested_connective)
    cls.__hash__ = Formula.__hash__
    return cls


def _constructor(names: tuple, setters: list, nested_connective: bool):
    """The ``__init__`` of a node with fields ``names``: it stores the fields
    through their slot ``setters``, ``_hash`` as the hash of the fields'
    tuple and ``_nested`` as the conjunction of ``nested_connective`` and the
    children's ``_nested``."""
    if names == ("left", "right"):
        set_left, set_right = setters

        def __init__(self, left, right):
            set_left(self, left)
            set_right(self, right)
            _store_hash(self, hash((left, right)))
            _store_nested(self, nested_connective and left._nested and right._nested)
    elif names == ("child",):
        set_child, = setters

        def __init__(self, child):
            set_child(self, child)
            _store_hash(self, hash((child,)))
            _store_nested(self, child._nested)
    elif names == ("atom",):
        set_atom, = setters

        def __init__(self, atom):
            set_atom(self, atom)
            _store_hash(self, hash((atom,)))
            _store_nested(self, True)
    else:  # a constant
        def __init__(self):
            _store_hash(self, hash(()))
            _store_nested(self, True)
    return __init__


# write the slots past the frozen dataclass's __setattr__
_store_hash = Formula._hash.__set__
_store_nested = Formula._nested.__set__


@_node
class Bot(Formula):
    pass


@_node
class Top(Formula):
    pass


@_node
class AtomRef(Formula):
    atom: Atom


@_node
class XNeg(Formula):
    """Explicit negation node (printed ``~``)."""

    child: Formula


@_node
class DNeg(Formula):
    """Default negation node (printed ``not``).

    Kept as a first-class node even though it abbreviates ``child -> bot``;
    the reduct pattern-matches on it, and semantic agreement with the derived
    form is enforced by tests rather than by construction.
    """

    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Impl(Formula):
    left: Formula
    right: Formula

    _nested_connective = False  # the one connective nested expressions exclude


@_frozen
class Rule:
    """Implication ``body -> head`` between nested expressions.

    The constructor stores the two sides through their slots and reads each
    side's ``_nested`` slot; only a side that is not a nested expression, or
    not a formula, takes the slower path that names it."""

    body: Formula
    head: Formula

    def as_implication(self) -> Impl:
        return Impl(self.body, self.head)

    def __repr__(self) -> str:
        return canonical_print(self)


def _rule_constructor(set_body, set_head):
    def __init__(self, body, head):
        set_body(self, body)
        set_head(self, head)
        try:
            if body._nested and head._nested:
                return
        except AttributeError:  # not a formula, which is_nested lets through
            pass
        for side, name in ((body, "body"), (head, "head")):
            if not is_nested(side):
                raise NotNested(f"rule {name} must be a nested expression: "
                                f"{canonical_print(side)}")
    return __init__


Rule.__init__ = _rule_constructor(Rule.body.__set__, Rule.head.__set__)


def is_nested(phi: Formula) -> bool:
    """True iff ``phi`` contains no implication node; read off its slot."""
    return phi._nested if isinstance(phi, Formula) else True


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a token in the input text."""

    line: int
    column: int
    length: int


@dataclass(frozen=True, eq=False)
class RewriteRule:
    """One named rewrite with the logic(s) and strength it is valid at.

    Entries compare by identity: a table may share another table's entry."""

    name: str
    lhs: Formula
    rhs: Formula
    strength: str  # "subst" (values equal everywhere) or "weak" (designatedness)
    modes: Tuple[EvalMode, ...]


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by all enumeration entry points.

    ``signature`` extends the atoms found in the input (it never shrinks
    them); any iterable of atoms is stored as a frozenset.
    """

    signature: Optional[frozenset] = None
    max_atoms: int = DEFAULT_MAX_ATOMS

    def __post_init__(self) -> None:
        if self.signature is not None:
            object.__setattr__(self, "signature", frozenset(self.signature))

    def space(self, *inputs) -> "_Space":
        """The space over the atoms of ``inputs`` plus the extra atoms, sorted;
        ``SignatureTooLarge`` when there are more than ``max_atoms``."""
        sig = set(self.signature or ())
        for x in inputs:
            sig |= atoms(x)
        return _Space(_guarded(sig, self.max_atoms))


@dataclass(frozen=True)
class EquivVerdict:
    """Outcome of a validity or equivalence check.

    ``witness`` is the first counter-model in canonical enumeration order and
    is present exactly when ``equivalent`` is false.  ``context`` carries a
    discriminating theory when one was synthesised, ``satisfied_side``
    records which argument the witness satisfies (``"left"`` or ``"right"``),
    and ``context_models`` holds two tuples: the equilibrium models of that
    theory extended by the left formula, then by the right one.
    """

    equivalent: bool
    witness: Optional[X5Interpretation] = None
    context: Optional[Theory] = None
    satisfied_side: Optional[str] = None
    context_models: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.equivalent and self.witness is not None:
            raise ValueError("a verdict cannot be positive and carry a witness")
        if not self.equivalent and self.witness is None:
            raise ValueError("a negative verdict requires a witness")


# ---------------------------------------------------------------------------
# Packaging

_TWINS = {core.Bot: Bot, core.Top: Top, core.AtomRef: AtomRef, core.XNeg: XNeg,
          core.DNeg: DNeg, core.And: And, core.Or: Or, core.Impl: Impl}
_EQLX = {twin: kind for kind, twin in _TWINS.items()}


def from_eqlx(x):
    """The twin, built from these classes, of an ``eqlx`` atom, explicit
    literal, formula or rule."""
    if isinstance(x, core.Atom):
        return Atom(x.name)
    if isinstance(x, core.ExplicitLiteral):
        return ExplicitLiteral(from_eqlx(x.atom), x.negated)
    if isinstance(x, core.Rule):
        return Rule(from_eqlx(x.body), from_eqlx(x.head))
    return _TWINS[type(x)](*(from_eqlx(getattr(x, name)) for name in type(x)._fields))


def _to_eqlx(x):
    if isinstance(x, Atom):
        return core.Atom(x.name)
    if isinstance(x, Rule):
        return core.Rule(_to_eqlx(x.body), _to_eqlx(x.head))
    return _EQLX[type(x)](*(_to_eqlx(getattr(x, name)) for name in type(x).__slots__))


def canonical_print(x) -> str:
    return core.canonical_print(_to_eqlx(x))
