import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from eqlx import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    DNeg,
    Impl,
    Interpretation,
    Or,
    Program,
    Rule,
    X5Interpretation,
    XNeg,
)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("default")

ATOMS = (Atom("p"), Atom("q"), Atom("r"))

FIVE_VALUES = (-2, -1, 0, 1, 2)


def formula_strategy(allow_impl=True, atom_pool=ATOMS, max_leaves=6):
    leaves = st.sampled_from([AtomRef(a) for a in atom_pool] + [BOT, TOP])
    nodes = [lambda ch: st.builds(XNeg, ch),
             lambda ch: st.builds(DNeg, ch),
             lambda ch: st.builds(And, ch, ch),
             lambda ch: st.builds(Or, ch, ch)]
    if allow_impl:
        nodes.append(lambda ch: st.builds(Impl, ch, ch))
    return st.recursive(leaves, lambda ch: st.one_of(*[n(ch) for n in nodes]),
                        max_leaves=max_leaves)


@st.composite
def shared_nodes(draw, atom_pool=ATOMS, kinds=(XNeg, DNeg, And, Or, Impl), max_steps=14):
    """Formula nodes that share subformulas, leaves first: each new node takes
    its operands from the atoms, the constants and the nodes built before it,
    so one node is often the operand of several others."""
    pool = [AtomRef(a) for a in atom_pool] + [BOT, TOP]
    steps = draw(st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 99),
                                    st.integers(0, 99)), min_size=1, max_size=max_steps))
    for kind, i, j in steps:
        left, right = pool[-1 - i % len(pool)], pool[-1 - j % len(pool)]
        pool.append(kind(left) if kind in (XNeg, DNeg) else kind(left, right))
    return pool


# Lexer input: every operator and Unicode alias, comments, the whitespace the
# lexer skips, and characters a word may contain but not start with.
LEXER_PIECES = ["p", "q1", "_x", "bot", "top", "not", "~", "!", "&", "|", "->",
                "<->", "<=>", "<", "-", "=", ">", "(", ")", "{", "}", ",", ".",
                "%", "% c\n", " ", "\t", "\r", "\n", "0", "7", "_", "é", "²", "@",
                "∼", "¬", "∧", "∨", "→", "⊤", "⊥", "↔", "⇔", "⟺"]
lexer_texts = st.lists(st.sampled_from(LEXER_PIECES), max_size=30).map("".join)

formulas = formula_strategy()
nested_formulas = formula_strategy(allow_impl=False)


def x5_strategy(atom_pool=ATOMS):
    return st.builds(
        X5Interpretation.from_values,
        st.fixed_dictionaries({a: st.sampled_from(FIVE_VALUES) for a in atom_pool}),
    )


def interpretation_strategy(atom_pool=ATOMS):
    def build(states):
        from eqlx import ExplicitLiteral
        lits = [ExplicitLiteral(a, negated=s < 0)
                for a, s in states.items() if s != 0]
        return Interpretation(lits)

    return st.builds(build, st.fixed_dictionaries(
        {a: st.sampled_from((-1, 0, 1)) for a in atom_pool}))


x5_interps = x5_strategy()
interpretations = interpretation_strategy()

rules = st.builds(Rule, nested_formulas, nested_formulas)
programs = st.builds(Program, st.lists(rules, max_size=3))
