"""Text syntax for formulas, theories, programs and interpretations.

The surface syntax is ASCII: ``bot``, ``top``, ``~`` (explicit negation),
``not`` or ``!`` (default negation), ``&``, ``|``, ``->`` and the expanding
abbreviations ``<->`` and ``<=>``.  Unicode spellings of the connectives are
accepted on input but never emitted.  ``%`` starts a line comment.  Programs
and theories are sequences of statements terminated by ``.``; a text with no
``.`` outside a comment can be read one formula per line (``parse_lines``).

The parser does constant work per token.  One ``re.findall`` over the text
gives the lexemes and one dict lookup per lexeme its kind; the grammar runs
over these two flat lists, with one loop for the ``&``/``|`` chains and
prefixes and a call only where the input nests.  A token's line and column
are computed only when an error or a span needs them, by running the same
pattern again with ``finditer``.  Within one parse every occurrence of an
atom name is the same ``AtomRef`` object; formulas are immutable, so later
passes may hash or compile that node once.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional, Tuple

from .core import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    DNeg,
    ExplicitLiteral,
    Formula,
    Impl,
    Interpretation,
    Or,
    Program,
    Rule,
    Theory,
    XNeg,
    _Frozen,
    iff,
    strong_iff,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_formula",
    "parse_lines",
    "parse_theory",
    "parse_program",
    "parse_interpretation",
]


class SourceSpan(_Frozen):
    """1-based position of a token in the input text."""

    __slots__ = _fields = ("line", "column", "length")
    line: int
    column: int
    length: int

    def __init__(self, line: int, column: int, length: int) -> None:
        self._store(line, column, length)


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"line {span.line}, column {span.column}: {message}")
        self.message = message
        self.span = span


# Single-character Unicode aliases and the ASCII spelling that gives their
# kind and stands for them in messages.
_UNICODE_ALIASES = {
    "∼": "~",      # tilde operator
    "¬": "not",
    "∧": "&",
    "∨": "|",
    "→": "->",
    "⊤": "top",
    "⊥": "bot",
    "↔": "<->",
    "⇔": "<=>",
    "⟺": "<=>",
}

_KEYWORDS = {"bot", "top", "not"}

# The kind of every lexeme that is not a word; a word is an atom when it
# starts with a letter or "_" and a lexical error otherwise.
_KINDS = {
    **{op: op for op in ("<->", "<=>", "->", "~", "&", "|", "(", ")", "{", "}", ",", ".")},
    **{keyword: keyword for keyword in _KEYWORDS},
    "!": "not",
    **_UNICODE_ALIASES,
}

# One match per lexeme: the whitespace and comments before it, uncaptured,
# then the lexeme, captured.  Whitespace and comments at the end of the text
# match before ``\Z``, whose empty capture ends ``findall``'s list once or
# twice; without it the comment would give its last character back as a
# lexeme.
_LEXEME = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)*(<->|<=>|->|\w+|.|\Z)")


def _kind(lexeme: str) -> Optional[str]:
    kind = _KINDS.get(lexeme)
    if kind is None and (lexeme[0].isalpha() or lexeme[0] == "_"):
        return "atom"
    return kind


class _Tokens:
    """The lexemes of ``text`` and their kinds, as two flat lists that end
    with the end of input (lexeme "", kind ``EOF``).  A token's position is
    computed only when its span is asked for, as an error does, by running
    the lexeme pattern again up to that token.  ``line`` is the number of
    the text's first line."""

    __slots__ = ("text", "lexemes", "kinds", "line")

    def __init__(self, text: str, lexemes: List[str], kinds: List[Optional[str]], line: int):
        self.text = text
        self.lexemes = lexemes
        self.kinds = kinds  # atom bot top not ~ & | -> <-> <=> ( ) { } , . EOF
        self.line = line

    def text_of(self, i: int) -> str:
        """The text of token ``i``, with a Unicode alias normalised."""
        lexeme = self.lexemes[i]
        return _UNICODE_ALIASES.get(lexeme, lexeme)

    def span(self, i: int) -> SourceSpan:
        """Where token ``i`` starts, and its length; the end of input is
        one character at the end of the text."""
        text, lexeme = self.text, self.lexemes[i]
        if lexeme:
            match = next(itertools.islice(_LEXEME.finditer(text), i, None))
            start = match.start(1)
        else:  # the end of input
            start = len(text)
        return SourceSpan(self.line + text.count("\n", 0, start),
                          start - text.rfind("\n", 0, start), len(lexeme) or 1)


def _tokenize(text: str, line: int = 1) -> _Tokens:
    lexemes = _LEXEME.findall(text)
    while lexemes and not lexemes[-1]:  # the end of the text
        lexemes.pop()
    kind_of = {lexeme: _kind(lexeme) for lexeme in set(lexemes)}
    kinds = list(map(kind_of.__getitem__, lexemes))
    tokens = _Tokens(text, lexemes, kinds, line)
    if None in kind_of.values():  # a stray character, or a word such as 2 or ²
        bad = kinds.index(None)
        span = tokens.span(bad)
        raise ParseError(f"lexical error: unexpected character {lexemes[bad][0]!r}",
                         SourceSpan(span.line, span.column, 1))
    lexemes.append("")
    kinds.append("EOF")
    return tokens


# Deepest nesting of parentheses, prefix negations and right-nested
# implications; each parenthesis costs the parser up to three stack frames.
_MAX_NESTING = 100

_PREFIXES = {"~": XNeg, "not": DNeg}
_ARROWS = ("->", "<->", "<=>")


class _Parser:
    """The grammar over the flat token lists of one text.  Each method takes
    the index of its first token and returns what it parsed with the index
    after it; only a parenthesis calls back into :meth:`formula`.

    equivalence := implication (("<->" | "<=>") implication)*
    implication := disjunction ("->" implication)?
    disjunction := conjunction ("|" conjunction)*
    conjunction := prefix ("&" prefix)*
    prefix      := ("~" | "not") prefix | primary
    primary     := "bot" | "top" | atom | "(" expr ")"
    """

    def __init__(self, tokens: _Tokens, refs: Optional[Dict[str, AtomRef]] = None):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.lexemes = tokens.lexemes
        self.depth = 0
        # one AtomRef per atom name, shared by every occurrence
        self.refs: Dict[str, AtomRef] = {} if refs is None else refs

    # -- errors ----------------------------------------------------------------

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.tokens.span(i))

    def unexpected(self, i: int) -> ParseError:
        return self.error(f"unexpected token {self.tokens.text_of(i) or 'end of input'!r}", i)

    def expect(self, kind: str, i: int) -> int:
        """The index after token ``i``, which must be of ``kind``."""
        if self.kinds[i] != kind:
            shown = self.tokens.text_of(i) or "end of input"
            if kind == ")":
                raise self.error(f"unbalanced parenthesis: expected ')' before {shown!r}", i)
            raise self.error(f"unexpected token {shown!r}: expected {kind!r}", i)
        return i + 1

    def enter(self, levels: int, i: int) -> None:
        """Open ``levels`` nesting levels at tokens ``i``, ``i + 1``, ...;
        the caller closes them."""
        self.depth += levels
        if self.depth > _MAX_NESTING:
            raise self.error("nesting too deep", i + levels - (self.depth - _MAX_NESTING))

    # -- formula grammar ---------------------------------------------------------

    def formula(self, i: int, nested: bool = False) -> Tuple[Formula, int]:
        """An equivalence; a disjunction that no arrow follows when ``nested``."""
        f, i = self.lattice(i, nested)
        kinds = self.kinds
        if nested:
            if kinds[i] in _ARROWS:
                raise self.error("implication nested inside rule body/head", i)
            return f, i
        f, i = self.implication(f, i)
        while kinds[i] in ("<->", "<=>"):
            op = kinds[i]
            right, i = self.lattice(i + 1, False)
            right, i = self.implication(right, i)
            f = iff(f, right) if op == "<->" else strong_iff(f, right)
        return f, i

    def implication(self, left: Formula, i: int) -> Tuple[Formula, int]:
        """The implication whose first disjunction ``left`` ends before token
        ``i``; each arrow opens a level that stays open to the chain's end."""
        kinds = self.kinds
        if kinds[i] != "->":
            return left, i
        sides = [left]
        while kinds[i] == "->":
            self.enter(1, i)
            f, i = self.lattice(i + 1, False)
            sides.append(f)
        self.depth -= len(sides) - 1
        f = sides.pop()
        while sides:
            f = Impl(sides.pop(), f)
        return f, i

    def lattice(self, i: int, nested: bool) -> Tuple[Formula, int]:
        """A disjunction of conjunctions of prefixed primaries, in one loop."""
        kinds, lexemes, refs = self.kinds, self.lexemes, self.refs
        disjunction = conjunction = None
        while True:
            start = i
            while kinds[i] in _PREFIXES:
                i += 1
            prefixes = i - start
            if prefixes:
                self.enter(prefixes, start)
            kind = kinds[i]
            if kind == "atom":
                f = refs.get(lexemes[i])
                if f is None:
                    f = self.atom(i)
                i += 1
            elif kind == "(":
                self.enter(1, i)
                f, i = self.formula(i + 1, nested)
                i = self.expect(")", i)
                self.depth -= 1
            elif kind == "bot":
                f, i = BOT, i + 1
            elif kind == "top":
                f, i = TOP, i + 1
            else:
                raise self.unexpected(i)
            if prefixes:
                for j in range(start + prefixes - 1, start - 1, -1):
                    f = _PREFIXES[kinds[j]](f)
                self.depth -= prefixes
            conjunction = f if conjunction is None else And(conjunction, f)
            kind = kinds[i]
            if kind == "&":
                i += 1
                continue
            disjunction = conjunction if disjunction is None else Or(disjunction, conjunction)
            if kind != "|":
                return disjunction, i
            conjunction = None
            i += 1

    def atom(self, i: int) -> AtomRef:
        """A new ``AtomRef`` for the atom at token ``i``, shared from now on."""
        name = self.lexemes[i]
        try:
            ref = self.refs[name] = AtomRef(Atom(name))
        except ValueError as exc:
            raise ParseError(str(exc), self.tokens.span(i)) from None
        return ref

    # -- statements --------------------------------------------------------------

    def rule_statement(self, i: int) -> Tuple[Rule, int]:
        first, i = self.lattice(i, True)
        kind = self.kinds[i]
        if kind in ("<->", "<=>"):
            raise self.error("implication nested inside rule body/head", i)
        if kind == "->":
            head, i = self.formula(i + 1, nested=True)
            return Rule(first, head), self.expect(".", i)
        return Rule(TOP, first), self.expect(".", i)

    def theory_statement(self, i: int) -> Tuple[Formula, int]:
        f, i = self.formula(i)
        return f, self.expect(".", i)

    def statements(self, statement) -> list:
        """``statement`` parsed again and again up to the end of input."""
        out, i = [], 0
        while self.kinds[i] != "EOF":
            item, i = statement(self, i)
            out.append(item)
        return out

    def whole_formula(self) -> Formula:
        f, i = self.formula(0)
        if self.kinds[i] != "EOF":
            raise self.unexpected(i)
        return f


def parse_formula(text: str) -> Formula:
    """Parse one formula; the whole input must be consumed."""
    return _Parser(_tokenize(text)).whole_formula()


def parse_lines(text: str) -> Theory:
    """Parse one formula per non-empty line into a theory.

    Error positions are positions in ``text``; the end of a line's formula is
    the point just after its last token.
    """
    lines = []
    for number, line in enumerate(text.split("\n"), 1):
        # a line up to its last token: "%" always starts a comment
        tokens = _tokenize(line.split("%", 1)[0].rstrip(" \t\r"), number)
        if len(tokens.kinds) > 1:
            lines.append(tokens)
    refs: Dict[str, AtomRef] = {}
    return Theory([_Parser(tokens, refs).whole_formula() for tokens in lines])


def parse_theory(text: str) -> Theory:
    """Parse a sequence of ``FORMULA.`` statements into a theory."""
    return Theory(_Parser(_tokenize(text)).statements(_Parser.theory_statement))


def parse_program(text: str) -> Program:
    """Parse ``BODY -> HEAD.`` and bare ``HEAD.`` statements into a program.

    Both sides of a rule must be nested expressions; an inner ``->`` is
    reported as an error at its own position.
    """
    return Program(_Parser(_tokenize(text)).statements(_Parser.rule_statement))


def parse_interpretation(text: str) -> Interpretation:
    """Parse a literal set such as ``{~bird, flies}``; braces are optional."""
    p = _Parser(_tokenize(text))
    kinds = p.kinds
    braced = kinds[0] == "{"
    i = 1 if braced else 0
    literals = []
    while kinds[i] in ("~", "atom") or kinds[i] in _KEYWORDS:
        negated = kinds[i] == "~"
        if negated:
            i += 1
        if kinds[i] != "atom":
            raise p.error(f"reserved word used as atom: {p.tokens.text_of(i)!r}", i)
        try:
            literals.append(ExplicitLiteral(Atom(p.lexemes[i]), negated))
        except ValueError as exc:
            raise ParseError(str(exc), p.tokens.span(i)) from None
        i += 1
        if kinds[i] != ",":
            break
        i += 1
    if braced:
        i = p.expect("}", i)
    if kinds[i] != "EOF":
        raise p.unexpected(i)
    return Interpretation(literals)
