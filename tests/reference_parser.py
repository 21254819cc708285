"""The lexer and parser that ``eqlx.parser`` replaced, kept verbatim as the
oracle its tests compare against: a ``_Token`` object per lexeme with its
line and column, and one recursive method per grammar level.

Only the imports differ: ``SourceSpan`` and ``ParseError`` come from
``eqlx.parser``, so errors from both parsers compare equal.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Dict, List, Optional

from eqlx.core import (
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
    iff,
    strong_iff,
)
from eqlx.parser import ParseError, SourceSpan


# Single-character Unicode aliases, normalised during lexing.
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


class _Token:
    """One lexeme and the 1-based position where it starts."""

    __slots__ = ("kind", "text", "line", "column", "length")

    def __init__(self, kind: str, text: str, line: int, column: int, length: int):
        self.kind = kind  # one of: atom bot top not ~ & | -> <-> <=> ( ) { } , . EOF
        self.text = text
        self.line = line
        self.column = column
        self.length = length

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, self.length)


# One alternative per lexeme; whitespace and comments match no named group.
_LEXEME = re.compile(r"""
    (?P<newline>\n) | [ \t\r]+ | %[^\n]*
  | (?P<op><->|<=>|->|[~&|(){},.]) | (?P<bang>!)
  | (?P<alias>[""" + "".join(_UNICODE_ALIASES) + r"""]) | (?P<word>\w+) | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        lexeme = m.group()
        column = m.start() - line_start + 1
        if kind == "op":
            tokens.append(_Token(lexeme, lexeme, line, column, len(lexeme)))
        elif kind == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(_Token(lexeme if lexeme in _KEYWORDS else "atom", lexeme,
                                 line, column, len(lexeme)))
        elif kind == "bang":
            tokens.append(_Token("not", lexeme, line, column, 1))
        elif kind == "alias":
            alias = _UNICODE_ALIASES[lexeme]
            tokens.append(_Token(alias, alias, line, column, 1))
        else:  # a stray character, or a word that starts with a digit such as 2 or ²
            raise ParseError(f"lexical error: unexpected character {lexeme[0]!r}",
                             SourceSpan(line, column, 1))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1, 1))
    return tokens


# Deepest nesting of parentheses, prefix negations and right-nested
# implications; each level costs the parser up to seven stack frames.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: List[_Token], refs: Optional[Dict[str, AtomRef]] = None):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        # one AtomRef per atom name, shared by every occurrence
        self.refs: Dict[str, AtomRef] = {} if refs is None else refs

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: Optional[str] = None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(self._expected_message(kind, tok), tok.span)
        self.pos += 1
        return tok

    @staticmethod
    def _expected_message(kind: str, tok: _Token) -> str:
        shown = tok.text or "end of input"
        if kind == ")":
            return f"unbalanced parenthesis: expected ')' before {shown!r}"
        return f"unexpected token {shown!r}: expected {kind!r}"

    def _unexpected(self, tok: _Token) -> ParseError:
        shown = tok.text or "end of input"
        return ParseError(f"unexpected token {shown!r}", tok.span)

    def _enter(self, tok: _Token) -> None:
        """Open one nesting level at ``tok``; the caller closes it."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError("nesting too deep", tok.span)

    # -- formula grammar ----------------------------------------------------
    #
    # equivalence := implication (("<->" | "<=>") implication)*
    # implication := disjunction ("->" implication)?
    # disjunction := conjunction ("|" conjunction)*
    # conjunction := prefix ("&" prefix)*
    # prefix      := ("~" | "not") prefix | primary
    # primary     := "bot" | "top" | atom | "(" expr ")"

    def formula(self, nested: bool = False) -> Formula:
        if nested:
            f = self._disjunction(nested=True)
            self._reject_rule_operators()
            return f
        return self._equivalence()

    def _reject_rule_operators(self) -> None:
        tok = self.peek()
        if tok.kind in ("->", "<->", "<=>"):
            raise ParseError("implication nested inside rule body/head", tok.span)

    def _equivalence(self) -> Formula:
        left = self._implication()
        while self.peek().kind in ("<->", "<=>"):
            op = self.take()
            right = self._implication()
            left = iff(left, right) if op.kind == "<->" else strong_iff(left, right)
        return left

    def _implication(self) -> Formula:
        left = self._disjunction(nested=False)
        if self.peek().kind == "->":
            self._enter(self.take())
            right = self._implication()
            self.depth -= 1
            return Impl(left, right)
        return left

    def _disjunction(self, nested: bool) -> Formula:
        left = self._conjunction(nested)
        while self.peek().kind == "|":
            self.take()
            left = Or(left, self._conjunction(nested))
        return left

    def _conjunction(self, nested: bool) -> Formula:
        left = self._prefix(nested)
        while self.peek().kind == "&":
            self.take()
            left = And(left, self._prefix(nested))
        return left

    def _prefix(self, nested: bool) -> Formula:
        tok = self.peek()
        if tok.kind not in ("~", "not"):
            return self._primary(nested)
        self._enter(self.take())
        child = self._prefix(nested)
        self.depth -= 1
        return XNeg(child) if tok.kind == "~" else DNeg(child)

    def _primary(self, nested: bool) -> Formula:
        tok = self.peek()
        if tok.kind == "bot":
            self.take()
            return BOT
        if tok.kind == "top":
            self.take()
            return TOP
        if tok.kind == "atom":
            self.take()
            ref = self.refs.get(tok.text)
            if ref is None:
                try:
                    ref = self.refs[tok.text] = AtomRef(Atom(tok.text))
                except ValueError as exc:
                    raise ParseError(str(exc), tok.span) from None
            return ref
        if tok.kind == "(":
            self._enter(self.take())
            inner = self.formula(nested=nested)
            if self.peek().kind != ")":
                bad = self.peek()
                if nested and bad.kind in ("->", "<->", "<=>"):
                    raise ParseError("implication nested inside rule body/head", bad.span)
                raise ParseError(self._expected_message(")", bad), bad.span)
            self.take(")")
            self.depth -= 1
            return inner
        raise self._unexpected(tok)

    # -- statements ----------------------------------------------------------

    def rule_statement(self) -> Rule:
        first = self._disjunction(nested=True)
        tok = self.peek()
        if tok.kind in ("<->", "<=>"):
            raise ParseError("implication nested inside rule body/head", tok.span)
        if tok.kind == "->":
            self.take()
            head = self.formula(nested=True)
            self.take(".")
            return Rule(first, head)
        self.take(".")
        return Rule(TOP, first)

    def theory_statement(self) -> Formula:
        f = self.formula()
        self.take(".")
        return f

    def at_eof(self) -> bool:
        return self.peek().kind == "EOF"

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self._unexpected(self.peek())


def _whole_formula(p: _Parser) -> Formula:
    f = p.formula()
    p.expect_eof()
    return f


def parse_formula(text: str) -> Formula:
    """Parse one formula; the whole input must be consumed."""
    return _whole_formula(_Parser(_tokenize(text)))


def parse_lines(text: str) -> Theory:
    """Parse one formula per non-empty line into a theory.

    Error positions are positions in ``text``; the end of a line's formula is
    the point just after its last token.
    """
    tokens = _tokenize(text)
    refs: Dict[str, AtomRef] = {}
    formulas = []
    for _, group in itertools.groupby(tokens[:-1], key=operator.attrgetter("line")):
        line = list(group)
        last = line[-1]
        line.append(_Token("EOF", "", last.line, last.column + last.length, 1))
        formulas.append(_whole_formula(_Parser(line, refs)))
    return Theory(formulas)


def parse_theory(text: str) -> Theory:
    """Parse a sequence of ``FORMULA.`` statements into a theory."""
    p = _Parser(_tokenize(text))
    formulas = []
    while not p.at_eof():
        formulas.append(p.theory_statement())
    return Theory(formulas)


def parse_program(text: str) -> Program:
    """Parse ``BODY -> HEAD.`` and bare ``HEAD.`` statements into a program.

    Both sides of a rule must be nested expressions; an inner ``->`` is
    reported as an error at its own position.
    """
    p = _Parser(_tokenize(text))
    rules = []
    while not p.at_eof():
        rules.append(p.rule_statement())
    return Program(rules)


def parse_interpretation(text: str) -> Interpretation:
    """Parse a literal set such as ``{~bird, flies}``; braces are optional."""
    p = _Parser(_tokenize(text))
    braced = False
    if p.peek().kind == "{":
        p.take()
        braced = True
    literals = []
    while p.peek().kind in ("~", "atom") or (p.peek().kind in _KEYWORDS):
        negated = False
        if p.peek().kind == "~":
            p.take()
            negated = True
        tok = p.peek()
        if tok.kind != "atom":
            raise ParseError(f"reserved word used as atom: {tok.text!r}", tok.span)
        p.take()
        try:
            literals.append(ExplicitLiteral(Atom(tok.text), negated))
        except ValueError as exc:
            raise ParseError(str(exc), tok.span) from None
        if p.peek().kind == ",":
            p.take()
            continue
        break
    if braced:
        p.take("}")
    p.expect_eof()
    return Interpretation(literals)
