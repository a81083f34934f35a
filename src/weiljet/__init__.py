"""Exact higher-order differentiation in truncated polynomial algebras.

Evaluate an expression at a point perturbed by nilpotent generators and the
coefficients of the result are its derivatives, exactly, with no rewriting
and no rounding. The package exposes the algebra (``weil``), the
expression language (``expression``), the derivative operators
(``calculus``), independent validation oracles (``oracle``), named identity
suites (``suites``), and a CLI (``cli``).

``import weiljet`` loads no submodule: each name below is imported from its
module on first use (PEP 562), so a process pays only for what it touches.
"""

import sys

_EXPORTS = {
    "calculus": (
        "DerivTable", "IdentityViolationError", "InstanceRejectedError", "RuleVerdict", "check_rule",
        "derivative", "derivtable_to_json", "expand_sum_of_D", "iterated_partial", "jet_evaluate",
        "kl_decompose", "mixed_derivative", "nth_derivative", "partial_derivative", "taylor_box",
        "taylor_simplex", "taylor_squarefree", "taylor_sum",
    ),
    "errors": ("WeiljetError",),
    "expression": (
        "Add", "Compose", "Const", "Div", "EvaluationError", "Expr", "Mul", "Neg", "ParseError", "Pow",
        "Sub", "Var", "arity", "evaluate", "expr_from_json", "expr_to_json", "parse", "pretty_print",
        "substitute", "variables",
    ),
    "multiindex": (
        "ArityMismatchError", "MultiIndex", "enumerate_box", "enumerate_simplex", "factorial", "leq", "norm",
    ),
    "oracle": (
        "NotPolynomialError", "SparsePoly", "finite_difference", "oracle_mixed", "poly_eval", "poly_partial",
        "to_poly",
    ),
    "suites": ("SuiteConfig", "SuiteResult", "run_suite", "run_suites", "suite_names"),
    "weil": (
        "CoefficientIndexError", "DegenerateGeneratorError", "NonInvertibleError", "Rational", "Shape",
        "ShapeMismatchError", "WeilElement", "constant", "element_from_json", "element_to_json",
        "from_coefficients", "generator", "monomial", "one", "zero",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def __getattr__(name):
    """Import a submodule, or the module that owns an exported name, on first
    use; an exported name is then cached in this module's globals."""
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The builtin __import__, unlike importlib.import_module, is timed by
    # ``python -X importtime``.
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
