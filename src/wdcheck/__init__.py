"""Qualifier-aware constraint checking for Wikidata-style knowledge bases."""

from .model import (
    AnonConst,
    AttrSet,
    DatatypeError,
    EMPTY_ATTRS,
    EntityId,
    KnowledgeBase,
    ModelError,
    P,
    Pseudo,
    Q,
    QuantityVal,
    Statement,
    StringVal,
    TimeVal,
    Value,
    make_no_value,
    make_statement,
)
from .formula import (
    Formula,
    FormulaError,
    ParseError,
    free_variables,
    negate,
    negate_to_violation_query,
    parse,
    print_formula,
)
from .evaluator import (
    Binding,
    EvalConfig,
    EvalError,
    UnsafeFormulaError,
    check_safe_range,
    evaluate,
)

__version__ = "0.1.0"
