"""The package namespace is the union of its library modules' ``__all__``."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import schreier

SOURCES = sorted(Path(schreier.__file__).parent.glob("*.py"))
MODULES = [importlib.import_module(f"schreier.{name}")
           for name in ("actions", "basis", "checks", "cosets", "induce", "rewrite", "words")]


def test_no_name_is_exported_by_two_modules():
    # The package star-imports every module, so a shared name would
    # silently resolve to the last module's object.
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_each_exported_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(schreier, name) is getattr(module, name), (module.__name__, name)


def test_package_all_is_the_union_of_module_lists():
    assert len(schreier.__all__) == len(set(schreier.__all__))
    assert set(schreier.__all__) == {name for module in MODULES for name in module.__all__}


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from schreier import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(schreier.__all__)


def test_public_surface_is_pinned():
    # Adding or removing a public name must show up as a change to this list.
    assert sorted(schreier.__all__) == [
        "ActionParseError", "Alphabet", "AlphabetTooWideError", "BWord", "BasisElement", "CheckResult",
        "CosetTable", "FiniteAction", "HAction", "InducedAction", "InvariantError", "Letter", "NotInSubgroupError",
        "Permutation", "SchreierBasis", "SchreierTransversal", "Word", "WordParseError",
        "build_table", "check_claim", "compute_basis", "concat", "contains", "coset_of", "degenerate_count",
        "evaluate", "expand", "format_action_text", "format_word", "haction_from_action", "identity", "induce",
        "invert", "iter_reduced_words", "parse", "parse_action_text", "perm_of_word", "prefixes",
        "read_action_file", "reduce", "rep", "restrict_to_h", "rewrite", "run_checks", "single",
        "tensor_action_generic",
    ]


def test_every_module_parses_under_the_python_3_10_grammar():
    """``requires-python = ">=3.10"``: every module parses as Python 3.10.

    This checks the grammar only, such as ``except*``; a library name added
    after 3.10 still parses.
    """
    assert {path.stem for path in SOURCES} >= {module.__name__.rpartition(".")[2] for module in MODULES}
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
