"""Exhaustive enumeration engines for models, answer sets and equilibria.

Everything here is brute force by design: the search spaces are 3^n literal
sets and 5^n here/there pairs, and the point of the artifact is checkable
correctness, not scale.  A guard refuses signatures that would blow up.

All four engines share one scan, ``_minimal_models``: a candidate literal set
is kept when it passes the engine's model test and none of its strict subsets
does.  The three engines that ``solve`` compares keep independent tests:
``answer_sets`` reads each rule's nested reduct with ``_nsat``,
``equilibrium_models`` reads the theory with ``_sat`` below the candidate, and
``equilibrium_models_ferraris`` reads the positive reduct (``ferraris_theory``)
with ``_sat`` at single worlds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .core import (
    Atom,
    ExplicitLiteral,
    Formula,
    Interpretation,
    Program,
    Theory,
    X5Interpretation,
    atoms,
    is_explicit,
)
from .reduct import (
    _reduct,
    ferraris_theory,
    reduct_program,  # noqa: F401  bench/tracing.py wraps this module binding
)
from .semantics import _nsat, _sat

__all__ = [
    "DEFAULT_MAX_ATOMS",
    "SignatureTooLarge",
    "InternalInconsistency",
    "NotExplicit",
    "SolveOptions",
    "enumerate_interpretations",
    "enumerate_x5",
    "minimal_models_explicit",
    "answer_sets",
    "equilibrium_models",
    "equilibrium_models_ferraris",
]

DEFAULT_MAX_ATOMS = 12


class SignatureTooLarge(ValueError):
    """Enumeration over this many atoms was refused; raise the guard to force it."""


class InternalInconsistency(RuntimeError):
    """Two routes that must agree did not: an engine, a truth table or a
    self-check is wrong.  The command line reports it with exit code 4."""


class NotExplicit(ValueError):
    """A program containing default negation was passed where an explicit one is required."""


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


def _effective_signature(opts: SolveOptions, *inputs) -> List[Atom]:
    """Sorted atoms of the inputs plus the extra atoms; the enumerators guard it."""
    sig = set()
    for x in inputs:
        sig |= atoms(x)
    if opts.signature:
        sig |= opts.signature
    return sorted(sig)


# ---------------------------------------------------------------------------
# Candidate spaces

# Per-atom states in enumeration order: absent < positive < negative.
_TRI_STATES = (0, 1, -1)

# Five-valued per-atom states in enumeration order.
_FIVE_STATES = (0, 1, 2, -1, -2)


def _guarded(signature: Iterable[Atom], max_atoms: int) -> List[Atom]:
    ordered = sorted(set(signature))
    if len(ordered) > max_atoms:
        raise SignatureTooLarge(
            f"signature has {len(ordered)} atoms, guard allows {max_atoms}")
    return ordered


def enumerate_interpretations(signature: Iterable[Atom],
                              max_atoms: int = DEFAULT_MAX_ATOMS) -> Iterator[Interpretation]:
    """All 3^n consistent literal sets over the signature, in a fixed order."""
    ordered = _guarded(signature, max_atoms)
    for states in itertools.product(_TRI_STATES, repeat=len(ordered)):
        lits = [ExplicitLiteral(a, negated=s < 0)
                for a, s in zip(ordered, states) if s != 0]
        yield Interpretation(lits)


def enumerate_x5(signature: Iterable[Atom],
                 max_atoms: int = DEFAULT_MAX_ATOMS) -> Iterator[X5Interpretation]:
    """All 5^n here/there pairs over the signature, in a fixed order."""
    ordered = _guarded(signature, max_atoms)
    for states in itertools.product(_FIVE_STATES, repeat=len(ordered)):
        here = []
        there = []
        for a, v in zip(ordered, states):
            if v == 0:
                continue
            lit = ExplicitLiteral(a, negated=v < 0)
            there.append(lit)
            if abs(v) == 2:
                here.append(lit)
        yield X5Interpretation(Interpretation(here), Interpretation(there))


def _strict_subsets(t: Interpretation) -> Iterator[frozenset]:
    lits = sorted(t.literals)
    for k in range(len(lits)):
        for combo in itertools.combinations(lits, k):
            yield frozenset(combo)


def _candidates(opts: Optional[SolveOptions], gamma) -> Iterator[Interpretation]:
    """The 3^n literal sets over ``gamma``'s atoms and the requested extra atoms."""
    opts = opts or SolveOptions()
    return enumerate_interpretations(_effective_signature(opts, gamma), opts.max_atoms)


# ---------------------------------------------------------------------------
# Engines


def _minimal_models(opts: Optional[SolveOptions], gamma,
                    models_at: Callable[[Interpretation], Callable[[frozenset], bool]],
                    ) -> List[Interpretation]:
    """The candidates ``t``, in order, whose literals pass the test
    ``models_at(t)`` while none of their strict subsets do."""
    found = []
    for t in _candidates(opts, gamma):
        is_model = models_at(t)
        if is_model(t.literals) and not any(map(is_model, _strict_subsets(t))):
            found.append(t)
    return found


def _rule_wise(rules: Sequence[Tuple[Formula, Formula]]) -> Callable[[frozenset], bool]:
    """Model test of the explicit ``(body, head)`` rules on a literal set."""
    return lambda s: all(not _nsat(s, body) or _nsat(s, head) for body, head in rules)


def minimal_models_explicit(p: Program, opts: Optional[SolveOptions] = None) -> List[Interpretation]:
    """Inclusion-minimal models of an explicit program."""
    if not is_explicit(p):
        raise NotExplicit("minimal_models_explicit requires a program without default negation")
    models = _rule_wise([(r.body, r.head) for r in p])
    # minimal among all models, since every strict subset of a candidate is a candidate
    return _minimal_models(opts, p, lambda t: models)


def answer_sets(p: Program, opts: Optional[SolveOptions] = None) -> List[Interpretation]:
    """All literal sets that are minimal models of their own reduct."""
    return _minimal_models(opts, p, lambda t: _rule_wise(
        [(_reduct(r.body, t.literals), _reduct(r.head, t.literals)) for r in p]))


def equilibrium_models(gamma: Union[Theory, Program],
                       opts: Optional[SolveOptions] = None) -> List[Interpretation]:
    """Total models admitting no strictly smaller here world."""
    theory = gamma.as_theory() if isinstance(gamma, Program) else gamma
    return _minimal_models(opts, gamma, lambda t: lambda h: all(
        _sat(h, t.literals, f) for f in theory))


def equilibrium_models_ferraris(gamma: Union[Theory, Program],
                                opts: Optional[SolveOptions] = None) -> List[Interpretation]:
    """Equilibrium models computed as minimal models of the positive reduct."""
    theory = gamma.as_theory() if isinstance(gamma, Program) else gamma

    def models_at(t: Interpretation) -> Callable[[frozenset], bool]:
        reduced = ferraris_theory(theory, t)
        return lambda h: all(_sat(h, h, f) for f in reduced)

    return _minimal_models(opts, gamma, models_at)
