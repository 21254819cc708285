import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import formulas, lexer_texts, programs
from eqlx import (
    BOT,
    TOP,
    And,
    AtomRef,
    DNeg,
    Impl,
    InconsistentLiterals,
    Interpretation,
    Or,
    ParseError,
    Program,
    Rule,
    SourceSpan,
    Theory,
    XNeg,
    atom,
    canonical_print,
    iff,
    parse_formula,
    parse_interpretation,
    parse_program,
    parse_theory,
    strong_iff,
)
import eqlx.parser
import reference_parser
from eqlx.parser import _tokenize, parse_lines

p, q, r = atom("p"), atom("q"), atom("r")
bird, flies = atom("bird"), atom("flies")


class TestFormulaGrammar:
    def test_double_negation_rule_body(self):
        assert parse_formula("~ not p -> p") == Impl(XNeg(DNeg(p)), p)

    def test_bird_rule(self):
        f = parse_formula("not (bird & ~flies) -> ~(bird & ~flies)")
        inner = And(bird, XNeg(flies))
        assert f == Impl(DNeg(inner), XNeg(inner))

    def test_and_binds_tighter_than_or(self):
        assert parse_formula("p & q | r") == Or(And(p, q), r)

    def test_prefix_binds_smallest(self):
        assert parse_formula("~p & q") == And(XNeg(p), q)
        assert parse_formula("not p | q") == Or(DNeg(p), q)

    def test_prefix_chain_associates_inward(self):
        assert parse_formula("not not not p") == DNeg(DNeg(DNeg(p)))
        assert parse_formula("~ ~p") == XNeg(XNeg(p))

    def test_implication_right_associative(self):
        assert parse_formula("p -> q -> r") == Impl(p, Impl(q, r))

    def test_constants(self):
        assert parse_formula("bot") == BOT
        assert parse_formula("top") == TOP

    def test_bang_is_default_negation(self):
        assert parse_formula("!p") == DNeg(p)

    def test_iff_expands(self):
        assert parse_formula("p <-> q") == iff(p, q)

    def test_strong_iff_expands(self):
        assert parse_formula("p <=> q") == strong_iff(p, q)

    def test_unicode_aliases(self):
        assert parse_formula("¬p → ∼p") == Impl(DNeg(p), XNeg(p))
        assert parse_formula("p ∧ q ∨ ⊥") == Or(And(p, q), BOT)

    def test_parens_override(self):
        assert parse_formula("p & (q | r)") == And(p, Or(q, r))


class TestFormulaErrors:
    def test_lexical_error_with_span(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p @ q")
        assert err.value.span.column == 3

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError, match="unbalanced parenthesis"):
            parse_formula("(p & q")

    def test_uppercase_atom_rejected(self):
        with pytest.raises(ParseError, match="not a valid atom name"):
            parse_formula("p & Queue")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse_formula("p q")

    def test_multiline_span(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p &\n  )")
        assert err.value.span.line == 2
        assert err.value.span.column == 3


def _old_tokenize(text):
    """The character-by-character lexer that the regular expression replaced,
    returning ``(kind, text, (line, column, length))`` tuples."""
    aliases = {"∼": "~", "¬": "not", "∧": "&", "∨": "|", "→": "->", "⊤": "top",
               "⊥": "bot", "↔": "<->", "⇔": "<=>", "⟺": "<=>"}
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)

    def emit(kind, tok_text, length=None):
        tokens.append((kind, tok_text, (line, col, length or len(tok_text))))

    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch in " \t\r":
            col, i = col + 1, i + 1
        elif ch == "%":
            while i < n and text[i] != "\n":
                i, col = i + 1, col + 1
        elif ch in aliases:
            emit(aliases[ch], aliases[ch], length=1)
            col, i = col + 1, i + 1
        elif text.startswith(("<->", "<=>"), i):
            emit(text[i:i + 3], text[i:i + 3])
            col, i = col + 3, i + 3
        elif text.startswith("->", i):
            emit("->", "->")
            col, i = col + 2, i + 2
        elif ch in "~&|(){},.":
            emit(ch, ch)
            col, i = col + 1, i + 1
        elif ch == "!":
            emit("not", "!")
            col, i = col + 1, i + 1
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            emit(word if word in ("bot", "top", "not") else "atom", word)
            col, i = col + j - i, j
        else:
            raise ParseError(f"lexical error: unexpected character {ch!r}",
                             SourceSpan(line, col, 1))
    tokens.append(("EOF", "", (line, col, 1)))
    return tokens


def _lex(lexer, text):
    try:
        return lexer(text)
    except ParseError as exc:
        return str(exc), exc.span


class TestLexer:
    @settings(max_examples=1000)
    @given(lexer_texts)
    def test_matches_the_character_lexer(self, text):
        new = _lex(_tokenize, text)
        if not isinstance(new, tuple):  # the tokens, not an error
            new = [(kind, new.text_of(i), (span.line, span.column, span.length))
                   for i, kind in enumerate(new.kinds) for span in [new.span(i)]]
        assert new == _lex(_old_tokenize, text)

    @pytest.mark.parametrize("text, char, column", [
        ("p & 2q", "2", 5), ("p & ²", "²", 5), ("q | 3", "3", 5), ("é2 & ½", "½", 6)])
    def test_words_must_start_with_a_letter(self, text, char, column):
        with pytest.raises(ParseError, match=f"unexpected character '{char}'") as err:
            _tokenize(text)
        assert err.value.span == SourceSpan(1, column, 1)


def _atom_refs(f):
    """Every ``AtomRef`` node of ``f``, repeats included."""
    if isinstance(f, AtomRef):
        yield f
    for name in ("child", "left", "right"):
        child = getattr(f, name, None)
        if child is not None:
            yield from _atom_refs(child)


class TestSharedAtoms:
    LINES = ["p & (q | not p) -> ~p | q", "q", "not (p & r) -> r"]

    @pytest.mark.parametrize("parse, text", [
        (parse_formula, " & ".join(f"({line})" for line in LINES)),
        (parse_theory, "".join(f"{line}.\n" for line in LINES)),
        (parse_program, "".join(f"{line}.\n" for line in LINES)),
        (parse_lines, "".join(f"{line}\n" for line in LINES)),
    ])
    def test_one_node_per_atom_name_in_one_call(self, parse, text):
        parsed = parse(text)
        if isinstance(parsed, Program):
            parsed = parsed.as_theory()
        refs = [ref for f in (parsed if isinstance(parsed, Theory) else [parsed])
                for ref in _atom_refs(f)]
        assert len(refs) == 9
        by_name = {}
        for ref in refs:
            assert by_name.setdefault(ref.atom, ref) is ref
        assert len(by_name) == 3

    @given(formulas)
    def test_separate_calls_build_equal_trees_with_equal_hashes(self, phi):
        text = canonical_print(phi)
        first, second = parse_formula(text), parse_formula(text)
        assert first == second == phi and hash(first) == hash(second) == hash(phi)
        assert not {id(x) for x in _atom_refs(first)} & {id(x) for x in _atom_refs(second)}

    @pytest.mark.parametrize("parse, text, span", [
        (parse_formula, "p & Q & Q", SourceSpan(1, 5, 1)),
        (parse_theory, "p.\nq | Q.\nQ.", SourceSpan(2, 5, 1)),
        (parse_program, "p.\nq | Q.\nQ.", SourceSpan(2, 5, 1)),
        (parse_lines, "p\nq | Q\nQ", SourceSpan(2, 5, 1)),
    ])
    def test_an_invalid_name_fails_at_its_first_occurrence(self, parse, text, span):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line {span.line}, column {span.column}: " \
                                 "not a valid atom name: 'Q'"
        assert err.value.span == span

    @pytest.mark.parametrize("text, span", [
        ("p\n\n   q & \n", SourceSpan(3, 7, 1)),
        ("p\n\nq & (r |", SourceSpan(3, 9, 1)),
    ])
    def test_line_mode_errors_end_after_the_last_token_of_their_line(self, text, span):
        with pytest.raises(ParseError, match="unexpected token 'end of input'") as err:
            parse_lines(text)
        assert err.value.span == span

    def test_tokens_build_their_span_on_demand(self):
        tokens = _tokenize("p ->\n  q")
        eof = len(tokens.kinds) - 1
        assert (tokens.kinds[eof], tokens.text_of(eof)) == ("EOF", "")
        assert tokens.span(eof) == SourceSpan(2, 4, 1)
        assert not hasattr(tokens, "__dict__")


class TestNestingBound:
    def test_hundred_levels_parse(self):
        assert parse_formula("(" * 100 + "p" + ")" * 100) == p
        f = parse_formula("~" * 100 + "p")
        for _ in range(100):
            assert isinstance(f, XNeg)
            f = f.child
        assert f == p
        chain = parse_formula(" -> ".join(["p"] * 101))
        assert isinstance(chain, Impl)

    @pytest.mark.parametrize("text,column", [
        ("(" * 101 + "p" + ")" * 101, 101),
        ("~" * 60 + "not " * 41 + "p", 221),
        (" -> ".join(["p"] * 102), 3 + 100 * 5),
        ("(~" * 50 + "(p" + ")" * 51, 101),
    ])
    def test_deeper_is_a_parse_error_at_the_offending_token(self, text, column):
        with pytest.raises(ParseError, match="nesting too deep") as err:
            parse_formula(text)
        assert err.value.span.column == column

    def test_left_associative_chains_are_unbounded(self):
        f = parse_formula(" & ".join(["p"] * 3000))
        for _ in range(2999):
            assert isinstance(f, And)
            f = f.left
        assert f == p

    def test_rule_statements_are_bounded(self):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_program("(" * 101 + "p" + ")" * 101 + ".")


class TestProgramGrammar:
    def test_single_rule(self):
        assert parse_program("~ not p -> p.") == Program([Rule(XNeg(DNeg(p)), p)])

    def test_fact_gets_true_body(self):
        assert parse_program("bird.") == Program([Rule(TOP, bird)])

    def test_comment_and_blank_lines(self):
        text = "% birds usually fly\nbird.\n\n% that is all\n"
        assert parse_program(text) == Program([Rule(TOP, bird)])

    def test_implication_in_head_rejected(self):
        with pytest.raises(ParseError, match="implication nested inside rule") as err:
            parse_program("p -> (q -> r).")
        assert err.value.span.column == 9

    def test_second_arrow_rejected(self):
        with pytest.raises(ParseError, match="implication nested inside rule"):
            parse_program("p -> q -> r.")

    def test_iff_rejected_in_rules(self):
        with pytest.raises(ParseError, match="implication nested inside rule"):
            parse_program("p <-> q.")

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_program("p -> q")

    @given(programs)
    def test_roundtrip(self, prog):
        assert parse_program(canonical_print(prog)) == prog

    @given(programs)
    def test_parsed_rules_are_nested(self, prog):
        from eqlx import is_nested
        reparsed = parse_program(canonical_print(prog))
        assert all(is_nested(r.body) and is_nested(r.head) for r in reparsed)


class TestTheoryGrammar:
    def test_nested_implications_allowed(self):
        theory = parse_theory("p -> (q -> r).\nnot p.")
        assert list(theory) == [Impl(p, Impl(q, r)), DNeg(p)]

    @given(formulas)
    def test_roundtrip_via_statement(self, phi):
        text = canonical_print(phi) + "."
        assert list(parse_theory(text)) == [phi]


class TestInterpretationGrammar:
    def test_singleton(self):
        t = parse_interpretation("{~p}")
        assert canonical_print(t) == "{~p}"

    def test_empty(self):
        assert parse_interpretation("{}") == Interpretation()
        assert parse_interpretation("") == Interpretation()

    def test_braces_optional(self):
        assert parse_interpretation("~bird, flies") == parse_interpretation("{~bird, flies}")

    def test_inconsistent_rejected(self):
        with pytest.raises(InconsistentLiterals, match="inconsistent interpretation: p and ~p"):
            parse_interpretation("{p, ~p}")

    def test_reserved_word_rejected(self):
        with pytest.raises(ParseError, match="reserved word used as atom"):
            parse_interpretation("{not}")


# ---------------------------------------------------------------------------
# The flat parser against the recursive one it replaced


# text spliced into a valid text: stray characters, words that start with a
# digit, Unicode aliases, comments and newlines
_MUTATIONS = ["@", "2", "²", "½", "é", "Q", "_", "(", ")", "{", "}", ",", ".", "~", "!",
              "&", "|", "-", "<", ">", "=", "->", "<->", "<=>", "not ", "bot", "top",
              "\n", "% c\n", "%", " ", "\t", "\r", "¬", "∧", "∨", "→", "⊤", "⊥", "∼",
              "↔", "⇔", "⟺"]
_ALIASES = [(" & ", " ∧ "), (" | ", " ∨ "), (" -> ", " → "), ("not ", "¬"), ("~", "∼"),
            ("top", "⊤"), ("bot", "⊥"), (" ", "\n"), (" ", " % c\n"), ("not ", "!")]


@st.composite
def _variants(draw, texts):
    """A valid text, respelled with aliases, comments and newlines, then
    perhaps cut or extended by one character or lexeme."""
    text = draw(texts)
    for old, new in draw(st.lists(st.sampled_from(_ALIASES), max_size=3)):
        text = text.replace(old, new, draw(st.integers(-1, 3)))
    how = draw(st.sampled_from(["keep", "delete", "insert", "digit"]))
    i = draw(st.integers(0, len(text)))
    if how == "delete" and text:
        i = min(i, len(text) - 1)
        text = text[:i] + text[i + 1:]
    elif how == "insert":
        text = text[:i] + draw(st.sampled_from(_MUTATIONS)) + text[i:]
    elif how == "digit":
        text = draw(st.sampled_from(["0", "7", "²"])) + text
    return text


def _outcome(parse, text):
    """The parsed value (a list for a theory or a program, whose equality
    ignores order), or the error's type, text and span."""
    try:
        parsed = parse(text)
    except ValueError as exc:  # ParseError, or InconsistentLiterals for a literal set
        return type(exc).__name__, str(exc), getattr(exc, "span", None)
    return list(parsed) if isinstance(parsed, (Theory, Program)) else parsed


_formula_texts = formulas.map(canonical_print)
_statement_texts = st.lists(formulas, max_size=4).map(
    lambda fs: "".join(canonical_print(f) + ".\n" for f in fs))
_literal_texts = st.lists(st.tuples(st.sampled_from(["p", "q", "bird", "not", "Q"]),
                                    st.booleans()), max_size=4).map(
    lambda lits: "{" + ", ".join(("~" if neg else "") + name for name, neg in lits) + "}")

_PARSERS = ["parse_formula", "parse_theory", "parse_program", "parse_lines",
            "parse_interpretation"]


def _same_outcome(name, text):
    assert _outcome(getattr(eqlx.parser, name), text) == \
        _outcome(getattr(reference_parser, name), text)


class TestMatchesTheReferenceParser:
    @settings(max_examples=400)
    @given(_variants(_formula_texts), st.sampled_from(_PARSERS))
    def test_formula_texts(self, text, name):
        _same_outcome(name, text)

    @settings(max_examples=400)
    @given(_variants(st.one_of(_statement_texts, programs.map(canonical_print))),
           st.sampled_from(_PARSERS))
    def test_statement_texts(self, text, name):
        _same_outcome(name, text)

    @settings(max_examples=200)
    @given(_variants(st.lists(_formula_texts, max_size=4).map("\n".join)))
    @example("p\r\nq & \t\r\n")  # a line's end of input is before its trailing "\r"
    @example("p % q.\n  q -> % r\n")
    def test_line_texts(self, text):
        _same_outcome("parse_lines", text)

    @settings(max_examples=200)
    @given(_variants(_literal_texts))
    def test_literal_sets(self, text):
        _same_outcome("parse_interpretation", text)

    @settings(max_examples=300)
    @given(lexer_texts, st.sampled_from(_PARSERS))
    def test_lexer_texts(self, text, name):
        _same_outcome(name, text)

    @pytest.mark.parametrize("levels", [100, 101])
    @pytest.mark.parametrize("make", [
        lambda n: "(" * n + "p" + ")" * n,
        lambda n: "~" * n + "p",
        lambda n: "not " * n + "p",
        lambda n: "! ~ " * (n // 2) + "~" * (n % 2) + "p",
        lambda n: "p -> " * n + "p",
        lambda n: "(~" * (n // 2) + "(" * (n % 2) + "p" + ")" * (n // 2 + n % 2),
        lambda n: "(" * (n // 2) + "p -> " * (n - n // 2) + "q" + ")" * (n // 2),
        lambda n: "q & (" * n + "p" + ")" * n + " | r",
    ], ids=["parens", "tildes", "nots", "mixed_prefixes", "arrows", "paren_prefix",
            "paren_arrow", "in_a_chain"])
    @pytest.mark.parametrize("name", ["parse_formula", "parse_theory", "parse_program",
                                      "parse_lines"])
    def test_the_nesting_bound(self, levels, make, name):
        text = make(levels) + ("." if name in ("parse_theory", "parse_program") else "")
        _same_outcome(name, text)
        if name != "parse_program" or "->" not in text:  # a rule may hold one arrow
            outcome = _outcome(getattr(reference_parser, name), text)
            too_deep = isinstance(outcome, tuple) and "nesting too deep" in outcome[1]
            assert too_deep is (levels == 101)

    @pytest.mark.parametrize("text", [
        "bird.\n% ~flies.", "p. % ~flies.", "p -> q.%", "% ~flies.", "%", "", " \t ",
        "p.\r\n\r\n  \t", "p -> q.\r\n% c\r\n", "p & q  \r\n", "p\r\nq & \t",
        "{p, ~q} % c", "p & % c\n q. % d \n\n"])
    @pytest.mark.parametrize("name", _PARSERS)
    def test_texts_that_end_in_comments_and_blanks(self, text, name):
        # the lexer's last match takes the comment and blanks before the end
        _same_outcome(name, text)
        assert _tokenize(text).lexemes.count("") == 1  # the end of input only

    @pytest.mark.parametrize("text", ["{~bird, ~}", "{bird flies}", "{~not}", "{p, ~p}",
                                      "~bird, flies", "{p,}", "{", "{Q}", "{é}", "{¬p}"])
    def test_literal_set_examples(self, text):
        _same_outcome("parse_interpretation", text)
