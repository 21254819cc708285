"""The value classes declare their fields once, in ``_fields``, and take
equality, hashing, pickling and order from ``core._Frozen`` and
``core._Ordered``: the fields match the dataclasses they replaced
(``reference_values``), and no class grows its own copy back.  The formula
nodes take their fields and constructor from three arity bases.  No module
of eqlx imports ``dataclasses`` on import."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import eqlx
import reference_values as ref
from eqlx.core import _Binary, _Constant, _Frozen, _Ordered, _Unary

TWINS = ["Atom", "ExplicitLiteral", "Bot", "Top", "AtomRef", "XNeg", "DNeg", "And", "Or",
         "Impl", "Rule", "SourceSpan", "RewriteRule", "SolveOptions", "EquivVerdict"]
# records that replaced no dataclass
UNTWINNED = ["Interpretation", "X5Interpretation"]

# the only classes that define these methods themselves, and which they define
COMPARISON = ("__eq__", "__hash__", "__reduce__", "__lt__", "__le__")
OWN_COMPARISON = {
    "_Frozen": {"__eq__", "__hash__", "__reduce__"},
    "_Ordered": {"__lt__", "__le__"},
    "Atom": {"__eq__", "__hash__", "__lt__", "__le__"},  # by name; the stored hash
    "Formula": {"__eq__", "__hash__"},  # a loop, and the stored hash
    "RewriteRule": {"__eq__", "__hash__"},  # identity
    "Interpretation": {"__lt__", "__le__"},  # by inclusion
    # not a record
    "_Collection": {"__eq__", "__hash__"},
}


def _records():
    found, stack = [], [_Frozen]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.append(sub)
            stack.append(sub)
    bases = (_Ordered, eqlx.Formula, _Constant, _Unary, _Binary)
    return {cls.__name__: cls for cls in found if cls not in bases}


def _eqlx_classes():
    modules = [eqlx] + [importlib.import_module(f"eqlx.{m.name}")
                        for m in pkgutil.iter_modules(eqlx.__path__)]
    classes = {cls for module in modules for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__.startswith("eqlx")}
    return classes | {_Frozen, _Ordered, *_records().values()}


def test_each_record_declares_the_fields_of_its_dataclass_twin():
    records = _records()
    assert sorted(records) == sorted(TWINS + UNTWINNED)
    for name in TWINS:
        cls = records[name]
        assert cls._fields == tuple(f.name for f in dataclasses.fields(getattr(ref, name))), name
        slots = {slot for base in cls.__mro__ for slot in vars(base).get("__slots__", ())}
        assert set(cls._fields) <= slots, name


def test_only_the_ordered_records_are_ordered():
    ordered = {name for name, cls in _records().items() if issubclass(cls, _Ordered)}
    assert ordered == {name for name in TWINS if getattr(ref, name).__dataclass_params__.order}


def test_no_class_grows_its_own_comparison_back():
    own = {cls.__name__: {m for m in COMPARISON if m in vars(cls)} for cls in _eqlx_classes()}
    assert {name: methods for name, methods in own.items() if methods} == OWN_COMPARISON


# each concrete formula node and the base it takes its fields and constructor from
NODE_BASES = {"Bot": _Constant, "Top": _Constant, "XNeg": _Unary, "DNeg": _Unary,
              "And": _Binary, "Or": _Binary, "Impl": _Binary, "AtomRef": eqlx.Formula}


def test_only_the_arity_bases_and_atom_refs_construct_formula_nodes():
    nodes = [cls for cls in _eqlx_classes() if issubclass(cls, eqlx.Formula)]
    assert sorted(cls.__name__ for cls in nodes if "__init__" in vars(cls)) == \
        ["AtomRef", "_Binary", "_Constant", "_Unary"]
    concrete = {cls.__name__: cls for cls in nodes if cls.__name__ in NODE_BASES}
    assert sorted(concrete) == sorted(NODE_BASES)
    for name, cls in concrete.items():
        assert cls.__bases__ == (NODE_BASES[name],), name
        if name != "AtomRef":
            assert cls._fields is NODE_BASES[name]._fields and cls.__slots__ == (), name


def _imports_on_import(tree):
    """The modules named by the imports that run when ``tree`` is imported:
    those outside any function body."""
    names, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += ast.iter_child_nodes(node)
    return names


def test_no_module_imports_dataclasses_on_import():
    # dataclasses imports inspect; _Frozen imports it only to raise
    sources = sorted(Path(eqlx.__file__).parent.glob("*.py"))
    imported = {path.name: _imports_on_import(ast.parse(path.read_text("utf-8")))
                for path in sources}
    assert "re" in imported["core.py"] and "core" in imported["__init__.py"]
    assert {name: [m for m in modules if m.split(".")[0] in ("dataclasses", "inspect")]
            for name, modules in imported.items()} == {path.name: [] for path in sources}
