"""Nonrecursive-datalog substrate: programs, evaluation, transforms
and optimisation."""

from .analysis import (
    is_linear,
    is_skinny,
    max_edb_atoms,
    minimal_weight_function,
    skinny_depth,
)
from .evaluate import EvaluationResult, evaluate, evaluate_on
from .parser import ProgramParseError, parse_program, parse_query
from .optimize import (
    inline_single_definition,
    optimize,
    prune_empty_predicates,
    remove_duplicate_clauses,
)
from .program import ADOM, Clause, Equality, Literal, NDLQuery, Program
from .transform import linear_star_transform, skinny_transform, star_transform

__all__ = [
    "ADOM",
    "Clause",
    "Equality",
    "EvaluationResult",
    "Literal",
    "NDLQuery",
    "Program",
    "evaluate",
    "evaluate_on",
    "inline_single_definition",
    "is_linear",
    "is_skinny",
    "linear_star_transform",
    "max_edb_atoms",
    "minimal_weight_function",
    "optimize",
    "parse_program",
    "parse_query",
    "ProgramParseError",
    "prune_empty_predicates",
    "remove_duplicate_clauses",
    "skinny_depth",
    "skinny_transform",
    "star_transform",
]
