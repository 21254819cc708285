"""Reference semantics for checking eqlx outputs, written without eqlx.

Formulas are plain tuples:

    ("a", name)  atom          ("T",) top        ("F",) bot
    ("~", x)     explicit neg  ("n", x) default negation
    ("&", l, r)  ("|", l, r)   (">", l, r) implication

The five-valued semantics is evaluated bitsliced: for a signature of n atoms
every formula becomes four Python ints ``G[k]`` (k = -1, 0, 1, 2), where bit
``i`` of ``G[k]`` says "the value at point i is at least k".  Point i is the
i-th here/there pair in the documented enumeration order (per-atom states
0, 1, 2, -1, -2; first atom slowest), so the lowest set bit of a mask is the
first point in that order.  Conjunction is min, disjunction max, ``~`` flips
the sign, ``a -> b`` is 2 where ``a <= max(b, 0)`` and ``b`` elsewhere (N5
differs in the single cell a=1, b=-2, which gives -1), ``not a`` is
``a -> bot``.  Only 2 is designated.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

FIVE_STATES = (0, 1, 2, -1, -2)
TRI_STATES = (0, 1, -1)
KS = (-1, 0, 1, 2)

# ---------------------------------------------------------------------------
# Parsing eqlx surface syntax (inputs and canonical printer output)

_TOKEN = re.compile(r"\s*(?:(%[^\n]*)|(<->|<=>|->|[~&|().!])|([A-Za-z_][A-Za-z0-9_]*))")


def tokenize(text: str) -> list:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise SyntaxError(f"bad character at {pos}: {text[pos]!r}")
        pos = m.end()
        if m.group(1):
            continue
        tok = m.group(2) or m.group(3)
        if tok:
            out.append("not" if tok == "!" else tok)
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise SyntaxError(f"expected {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def equivalence(self):
        left = self.implication()
        while self.peek() in ("<->", "<=>"):
            op = self.take()
            right = self.implication()
            both = ("&", (">", left, right), (">", right, left))
            if op == "<=>":
                nl, nr = ("~", left), ("~", right)
                both = ("&", both, ("&", (">", nl, nr), (">", nr, nl)))
            left = both
        return left

    def implication(self):
        left = self.binary("|", self.conjunction)
        if self.peek() == "->":
            self.take()
            return (">", left, self.implication())
        return left

    def conjunction(self):
        return self.binary("&", self.prefix)

    def binary(self, op, sub):
        left = sub()
        while self.peek() == op:
            self.take()
            left = (op, left, sub())
        return left

    def prefix(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("~", self.prefix())
        if tok == "not":
            self.take()
            return ("n", self.prefix())
        if tok == "(":
            self.take()
            inner = self.equivalence()
            self.take(")")
            return inner
        if tok == "top":
            self.take()
            return ("T",)
        if tok == "bot":
            self.take()
            return ("F",)
        if tok and (tok[0].islower()):
            self.take()
            return ("a", tok)
        raise SyntaxError(f"unexpected token {tok!r}")


def parse_formula(text: str):
    p = _Parser(tokenize(text))
    f = p.equivalence()
    if p.peek() is not None:
        raise SyntaxError(f"trailing token {p.peek()!r}")
    return f


def parse_statements(text: str) -> list:
    """Formulas of a ``.``-terminated statement file; ``b -> h.`` is an implication."""
    p = _Parser(tokenize(text))
    out = []
    while p.peek() is not None:
        out.append(p.equivalence())
        p.take(".")
    return out


def parse_rule_line(line: str):
    """One printed rule ``body -> head.`` or ``head.`` as (body, head)."""
    f = parse_statements(line)
    if len(f) != 1:
        raise SyntaxError(f"not one statement: {line!r}")
    f = f[0]
    if f[0] == ">":
        return f[1], f[2]
    return ("T",), f


# ---------------------------------------------------------------------------
# Structure


def atoms_of(f, found=None) -> set:
    found = set() if found is None else found
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] == "a":
            found.add(g[1])
        else:
            stack.extend(g[1:])
    return found


def has_impl(f) -> bool:
    return f[0] == ">" or any(has_impl(c) for c in f[1:] if isinstance(c, tuple))


def is_nnf(f) -> bool:
    if f[0] == "~":
        return f[1][0] == "a"
    return all(is_nnf(c) for c in f[1:] if isinstance(c, tuple))


def explicit_literal(f):
    """``"p"`` or ``"~p"`` when ``f`` is an explicit literal, else None."""
    if f[0] == "a":
        return f[1]
    if f[0] == "~" and f[1][0] == "a":
        return "~" + f[1][1]
    return None


def default_literal(f, max_nots=1):
    """Literal text with its default negations (``not ~p``), else None."""
    nots = 0
    while f[0] == "n":
        nots += 1
        f = f[1]
    lit = explicit_literal(f)
    if lit is None or nots > max_nots:
        return None
    return "not " * nots + lit


def _flatten(f, op):
    if f[0] == op:
        return _flatten(f[1], op) + _flatten(f[2], op)
    return [f]


def regular_parts(body, head, body_nots=1, head_nots=1):
    """(body literal set, head literal set) of a regular rule, else None.

    ``top`` is the empty body and ``bot`` the empty head; a rule may not have
    both.  ``body_nots``/``head_nots`` bound the default negations in front of
    an explicit literal on each side.
    """
    if body == ("T",) and head == ("F",):
        return None
    parts = []
    for side, op, empty, nots in ((body, "&", ("T",), body_nots),
                                  (head, "|", ("F",), head_nots)):
        if side == empty:
            parts.append(frozenset())
            continue
        items = [default_literal(x, nots) for x in _flatten(side, op)]
        if any(x is None for x in items) or len(set(items)) != len(items):
            return None
        parts.append(frozenset(items))
    return parts[0], parts[1]


def literal_formula(text: str):
    """Inverse of :func:`default_literal` for ``not not ~p`` style text."""
    nots = 0
    while text.startswith("not "):
        nots += 1
        text = text[4:]
    f = ("~", ("a", text[1:])) if text.startswith("~") else ("a", text)
    for _ in range(nots):
        f = ("n", f)
    return f


def rule_formula(body_lits, head_lits):
    body = ("T",)
    for x in sorted(body_lits):
        body = literal_formula(x) if body == ("T",) else ("&", body, literal_formula(x))
    head = ("F",)
    for x in sorted(head_lits):
        head = literal_formula(x) if head == ("F",) else ("|", head, literal_formula(x))
    return (">", body, head)


_ASP_LIT = re.compile(r"^(not not |not )?(-?)([a-z][A-Za-z0-9_]*)$")


def parse_asp_line(line: str):
    """``h1 ; h2 :- b1, b2.`` in solver syntax as (body set, head set)."""
    if not line.endswith("."):
        raise SyntaxError(f"no final '.': {line!r}")
    text = line[:-1]
    head_txt, _, body_txt = text.partition(":-")
    sides = []
    for part, sep in ((body_txt, ","), (head_txt, ";")):
        items = [x.strip() for x in part.split(sep)] if part.strip() else []
        lits = []
        for item in items:
            m = _ASP_LIT.match(item)
            if not m:
                raise SyntaxError(f"bad solver literal {item!r} in {line!r}")
            lits.append((m.group(1) or "") + ("~" if m.group(2) else "") + m.group(3))
        if len(set(lits)) != len(lits):
            raise SyntaxError(f"repeated literal in {line!r}")
        sides.append(frozenset(lits))
    if not sides[0] and not sides[1]:
        raise SyntaxError(f"empty rule {line!r}")
    return sides[0], sides[1]


# ---------------------------------------------------------------------------
# Bitsliced five-valued evaluation


class Space:
    """The 5^n here/there points over a sorted signature."""

    def __init__(self, signature):
        self.atoms = tuple(sorted(set(signature)))
        n = len(self.atoms)
        self.size = 5 ** n
        self.all = (1 << self.size) - 1
        self.masks = {a: _atom_masks(n, i, self.size) for i, a in enumerate(self.atoms)}

    def eval(self, f, n5=False):
        """Threshold masks (G[-1], G[0], G[1], G[2]) of ``f``."""
        return _Eval(self, n5).go(f)

    def designated(self, f, n5=False) -> int:
        return self.eval(f, n5)[3]

    def value_at(self, masks, point: int) -> int:
        return -2 + sum((g >> point) & 1 for g in masks)

    def values(self, point: int) -> dict:
        """Per-atom values of a point, in signature order."""
        out = {}
        for a in reversed(self.atoms):
            point, idx = divmod(point, 5)
            out[a] = FIVE_STATES[idx]
        return {a: out[a] for a in self.atoms}


@lru_cache(maxsize=None)
def _atom_masks(n: int, i: int, size: int) -> tuple:
    """Threshold masks of atom ``i`` (0 = slowest) over 5^n points."""
    block = 5 ** (n - 1 - i)
    period = 5 * block
    reps = 5 ** i
    spread = ((1 << (reps * period)) - 1) // ((1 << period) - 1)
    eq = {}
    for idx, v in enumerate(FIVE_STATES):
        eq[v] = (((1 << block) - 1) << (idx * block)) * spread
    return tuple(sum(eq[v] for v in FIVE_STATES if v >= k) for k in KS)


class _Eval:
    def __init__(self, space: Space, n5: bool):
        self.s = space
        self.n5 = n5
        self.memo = {}

    def go(self, f):
        got = self.memo.get(f)
        if got is None:
            got = self.memo[f] = self._go(f)
        return got

    def _go(self, f):
        full = self.s.all
        tag = f[0]
        if tag == "a":
            return self.s.masks[f[1]]
        if tag == "T":
            return (full,) * 4
        if tag == "F":
            return (0,) * 4
        if tag == "~":
            g = self.go(f[1])
            return (full ^ g[3], full ^ g[2], full ^ g[1], full ^ g[0])
        if tag == "&":
            a, b = self.go(f[1]), self.go(f[2])
            return tuple(x & y for x, y in zip(a, b))
        if tag == "|":
            a, b = self.go(f[1]), self.go(f[2])
            return tuple(x | y for x, y in zip(a, b))
        if tag == "n":
            return self._impl(self.go(f[1]), (0,) * 4)
        if tag == ">":
            return self._impl(self.go(f[1]), self.go(f[2]))
        raise ValueError(f"not a formula: {f!r}")

    def _impl(self, a, b):
        full = self.s.all
        cond = ((full ^ a[2]) | b[2]) & ((full ^ a[3]) | b[3])
        out = [cond | bk for bk in b]
        if self.n5:
            out[0] |= (a[2] & ~a[3]) & (full ^ b[0])
        return tuple(out)


def iff(a, b):
    return ("&", (">", a, b), (">", b, a))


def first_point(mask: int):
    """The first point of ``mask`` in enumeration order, or None."""
    return None if mask == 0 else (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# Verdicts in the text form the command line prints


def witness_text(space: Space, point: int) -> str:
    return ", ".join(f"{a}={v}" for a, v in space.values(point).items())


def valid_outcome(f):
    """(exit code, stdout lines) of ``eqlx valid``."""
    space = Space(atoms_of(f))
    masks = space.eval(f)
    point = first_point(space.all ^ masks[3])
    if point is None:
        return 0, ["valid"]
    v = space.value_at(masks, point)
    return 1, ["not valid", f"witness: {witness_text(space, point)} : {v}"]


def equiv_outcome(relation: str, left, right):
    """(exit code, stdout lines) of ``eqlx equiv weak|subst``."""
    space = Space(atoms_of(left) | atoms_of(right))
    lm, rm = space.eval(left), space.eval(right)
    if relation == "weak":
        bad = space.all ^ space.designated(iff(left, right))
        label = "weakly equivalent"
    else:
        bad = 0
        for x, y in zip(lm, rm):
            bad |= x ^ y
        label = "substitution-equivalent"
    point = first_point(bad)
    if point is None:
        return 0, [label]
    lv, rv = space.value_at(lm, point), space.value_at(rm, point)
    return 1, [f"not {label}", f"witness: {witness_text(space, point)} : {lv} vs {rv}"]


def _literal_order(lit: str):
    """Literals sort by atom, the positive one first."""
    return lit.lstrip("~"), lit.startswith("~")


def _interp_text(lits) -> str:
    return "{" + ", ".join(sorted(lits, key=_literal_order)) + "}"


def equilibrium_models(formulas) -> list:
    """Equilibrium models as literal sets, in 3^n enumeration order.

    A total point (T, T) is an equilibrium model when every formula is
    designated there and at no point (H, T) with H a strict subset of T.
    """
    sig = set()
    for f in formulas:
        atoms_of(f, sig)
    space = Space(sig)
    d = space.all
    for f in formulas:
        d &= space.designated(f)
    n = len(space.atoms)
    weights = [5 ** (n - 1 - i) for i in range(n)]
    models = []
    for states in product(TRI_STATES, repeat=n):
        # total point: each committed atom proved (state 2 / -2)
        total = 0
        lowered = []
        for w, s in zip(weights, states):
            if s:
                # state index of 2 is 2 and of -2 is 4; lowering to 1 / -1
                # moves the index down by one in both cases
                total += w * (2 if s > 0 else 4)
                lowered.append(w)
        if not (d >> total) & 1:
            continue
        smaller = False
        for pick in product((0, 1), repeat=len(lowered)):
            if any(pick):
                point = total - sum(w for w, on in zip(lowered, pick) if on)
                if (d >> point) & 1:
                    smaller = True
                    break
        if not smaller:
            models.append(frozenset(
                (a if s > 0 else "~" + a)
                for a, s in zip(space.atoms, states) if s))
    return models


def solve_outcome(formulas):
    """(exit code, stdout lines) of ``eqlx solve`` on a statement file."""
    models = equilibrium_models(formulas)
    if not models:
        return 1, []
    return 0, [_interp_text(m) for m in models]


def context_outcome(left, right):
    """(exit code, stdout lines) of ``eqlx context`` per its documented construction.

    The witness is the first point where ``left`` is designated and ``right``
    is not, else the first where the reverse holds.  The context is the there
    world as facts when the total version of the witness refutes the other
    side, else the here world as facts plus ``l1 -> l2`` for all pairs of
    literals the there world adds.  Both extended theories are then solved.
    """
    sig = atoms_of(left) | atoms_of(right)
    space = Space(sig)
    dl, dr = space.designated(left), space.designated(right)
    side, point, other = "left", first_point(dl & ~dr), right
    if point is None:
        side, point, other = "right", first_point(dr & ~dl), left
    if point is None:
        return 1, []
    values = space.values(point)
    lit = lambda a, v: a if v > 0 else "~" + a
    here = sorted((lit(a, v) for a, v in values.items() if abs(v) == 2), key=_literal_order)
    there = sorted((lit(a, v) for a, v in values.items() if v), key=_literal_order)
    total_point = 0
    for a, v in values.items():
        total_point = total_point * 5 + FIVE_STATES.index(2 * (v > 0) - 2 * (v < 0))
    other_total = (space.designated(other) >> total_point) & 1
    as_f = lambda l: ("~", ("a", l[1:])) if l.startswith("~") else ("a", l)
    if not other_total:
        delta = [(">", ("T",), as_f(l)) for l in there]
        rules = [f"{l}." for l in there]
    else:
        gap = [l for l in there if l not in here]
        delta = [(">", ("T",), as_f(l)) for l in here]
        delta += [(">", as_f(a), as_f(b)) for a in gap for b in gap]
        rules = [f"{l}." for l in here] + [f"{a} -> {b}." for a in gap for b in gap]
    fmt = lambda ms: ", ".join(_interp_text(m) for m in ms) if ms else "none"
    with_left = equilibrium_models(delta + [left])
    with_right = equilibrium_models(delta + [right])
    lines = [f"witness: {witness_text(space, point)}", f"satisfies: {side}", "context:"]
    lines += rules
    lines.append(f"equilibrium models with left: {fmt(with_left)}")
    lines.append(f"equilibrium models with right: {fmt(with_right)}")
    return 0, lines


def weakly_equivalent(left, right) -> bool:
    space = Space(atoms_of(left) | atoms_of(right))
    return space.designated(iff(left, right)) == space.all
