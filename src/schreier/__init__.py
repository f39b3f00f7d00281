"""Free groups acting on finite sets.

Words over a finite alphabet form a free group under free reduction.  A
permutation of each generator extends to an action of the whole group;
the stabilizer of a basepoint is itself free, and this package computes
everything that statement promises: a prefix closed transversal of
shortlex least coset representatives, a free basis of the stabilizer,
rewriting of stabilizer elements over that basis, and the action of the
whole group induced from an action of the stabilizer on its basis.
"""

from .actions import (
    ActionParseError,
    FiniteAction,
    Permutation,
    evaluate,
    format_action_text,
    is_transitive,
    orbit,
    parse_action_text,
    perm_of_word,
    read_action_file,
    write_action_file,
)
from .basis import (
    BasisElement,
    InvariantError,
    SchreierBasis,
    compute_basis,
    degenerate_count,
    degenerate_pair_of_rep,
)
from .checks import CheckResult, run_checks
from .cosets import CosetTable, SchreierTransversal, build_table, coset_of, rep
from .induce import (
    HAction,
    InducedAction,
    check_claim,
    haction_from_action,
    induce,
    restrict_to_h,
    tensor_action_generic,
)
from .rewrite import BWord, NotInSubgroupError, contains, expand, rewrite
from .words import (
    Alphabet,
    Letter,
    Word,
    WordParseError,
    concat,
    format_word,
    identity,
    invert,
    iter_reduced_words,
    parse,
    prefixes,
    reduce,
    single,
)

__version__ = "0.1.0"

__all__ = [
    "ActionParseError",
    "Alphabet",
    "BWord",
    "BasisElement",
    "CheckResult",
    "CosetTable",
    "FiniteAction",
    "HAction",
    "InducedAction",
    "InvariantError",
    "Letter",
    "NotInSubgroupError",
    "Permutation",
    "SchreierBasis",
    "SchreierTransversal",
    "Word",
    "WordParseError",
    "build_table",
    "check_claim",
    "compute_basis",
    "concat",
    "contains",
    "coset_of",
    "degenerate_count",
    "degenerate_pair_of_rep",
    "evaluate",
    "expand",
    "format_action_text",
    "format_word",
    "haction_from_action",
    "identity",
    "induce",
    "invert",
    "is_transitive",
    "iter_reduced_words",
    "orbit",
    "parse",
    "parse_action_text",
    "perm_of_word",
    "prefixes",
    "read_action_file",
    "reduce",
    "rep",
    "restrict_to_h",
    "rewrite",
    "run_checks",
    "single",
    "tensor_action_generic",
    "write_action_file",
]
