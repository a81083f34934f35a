"""Expression language for rational functions of several variables.

Variables are positional (``x0``, ``x1``, ...). The same AST evaluates over
any commutative Q-algebra carrier supplied duck-typed: exact rationals,
binary64 floats, or jets (``weil.WeilElement``). There are no transcendental
primitives; division is first class but partial, failing at evaluation time
when the denominator is not invertible in the carrier.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)* ;
    term   := factor (('*'|'/') factor)* ;
    factor := '-' factor | atom ('^' nat)? ;
    atom   := rational | var | '(' expr ')' ;
    var    := 'x' nat ;
    rational := nat ('/' nat)? | nat '.' digits ;

Whitespace is insignificant between tokens. A slash directly between two
integer literals, with no whitespace on either side, is part of a rational
literal ("1/2" is the constant one half); any other slash is division
("1 / 2" and "1/(2)" are quotients). Decimal literals convert exactly to
rationals. ``^`` is non-associative ("x0^2^3" is a syntax error) and its
exponent must be a bare natural literal.

``parse(pretty_print(e)) == e`` for every AST reachable from the grammar.
Two kinds of nodes fall outside that fragment and print as their closest
grammar form: constants with negative values print parenthesized with a
leading minus (reparsing as a negation node), and composition nodes print
flattened (reparsing as the substituted expression).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import WeiljetError, int_digit_limit
from .multiindex import ArityMismatchError


class ParseError(WeiljetError):
    """Syntax error with position and the token kinds that were acceptable."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"{message} at line {line}, column {column}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class EvaluationError(WeiljetError):
    """Evaluation failure, carrying the path to the offending sub-expression."""

    def __init__(self, message: str, path: tuple[int, ...], subexpr: "Expr"):
        self.path = path
        self.subexpr = subexpr
        super().__init__(f"{message} in sub-expression '{pretty_print(subexpr)}' at path {path}")


# -- AST ----------------------------------------------------------------------


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Var(Expr):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be a natural")


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("exponent must be a nonnegative integer literal")


@dataclass(frozen=True)
class Compose(Expr):
    """outer with Var(j) replaced by substitutions[j]; no surface syntax."""

    outer: Expr
    substitutions: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "substitutions", tuple(self.substitutions))
        if len(self.substitutions) < arity(self.outer):
            raise ArityMismatchError(
                f"composition needs {arity(self.outer)} substitutions, "
                f"got {len(self.substitutions)}"
            )


def variables(e: Expr) -> frozenset[int]:
    """Indices of the variables the expression actually depends on."""
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.index,))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Neg):
        return variables(e.operand)
    if isinstance(e, Pow):
        return variables(e.base)
    if isinstance(e, Compose):
        used = variables(e.outer)
        out: frozenset[int] = frozenset()
        for j in used:
            out |= variables(e.substitutions[j])
        return out
    raise TypeError(f"not an Expr node: {e!r}")


def arity(e: Expr) -> int:
    """1 + the largest variable index occurring; 0 for closed expressions."""
    used = variables(e)
    return max(used) + 1 if used else 0


# -- Parser -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\d+\.\d+|\d+|x\d+|[+\-*/^()]|\s+|.")

_NAT = "nat"
_DEC = "dec"
_VAR = "var"
_EOF = "end of input"


@dataclass(frozen=True)
class _Token:
    kind: str  # _NAT, _DEC, _VAR, or the operator character itself
    text: str
    line: int
    column: int
    offset: int

    @property
    def end(self) -> int:
        return self.offset + len(self.text)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    for m in _TOKEN_RE.finditer(source):
        text = m.group()
        assert m.start() == pos
        pos = m.end()
        here_line, here_col = line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        if text.isspace():
            continue
        if text[0].isdigit():
            kind = _DEC if "." in text else _NAT
        elif text[0] == "x" and len(text) > 1:
            kind = _VAR
        elif text in "+-*/^()":
            kind = text
        else:
            raise ParseError(
                f"unexpected character {text!r}", here_line, here_col,
                ("number", "variable", "operator", "parenthesis"),
            )
        tokens.append(_Token(kind, text, here_line, here_col, m.start()))
    tokens.append(_Token(_EOF, "", line, col, len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != _EOF:
            self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> None:
        tok = self.peek()
        found = tok.kind if tok.kind == _EOF else repr(tok.text)
        raise ParseError(f"unexpected {found}", tok.line, tok.column, expected)

    @staticmethod
    def integer(tok: _Token, digits: str) -> int:
        # The lexer admits digits only, so the one way int() fails is a
        # literal over the interpreter's digit cap.
        try:
            return int(digits)
        except ValueError:
            raise ParseError(
                f"literal of {len(digits)} digits is over the limit of {int_digit_limit()} "
                "digits for integer conversion",
                tok.line, tok.column,
            ) from None

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek().kind != _EOF:
            self.fail(("'+'", "'-'", "'*'", "'/'", _EOF))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        e = self.atom()
        if self.peek().kind == "^":
            self.advance()
            if self.peek().kind != _NAT:
                tok = self.peek()
                raise ParseError(
                    "exponent must be a nonnegative integer literal",
                    tok.line, tok.column, ("natural number",),
                )
            tok = self.advance()
            e = Pow(e, self.integer(tok, tok.text))
        return e

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == _NAT:
            self.advance()
            slash, den = self.peek(), self.peek(1)
            if (
                slash.kind == "/"
                and den.kind == _NAT
                and slash.offset == tok.end
                and den.offset == slash.end
            ):
                # Adjacent nat/nat is a rational literal, not a quotient.
                self.advance()
                self.advance()
                q = self.integer(den, den.text)
                if q == 0:
                    raise ParseError(
                        "zero denominator in rational literal",
                        den.line, den.column, ("nonzero natural",),
                    )
                return Const(Fraction(self.integer(tok, tok.text), q))
            return Const(Fraction(self.integer(tok, tok.text)))
        if tok.kind == _DEC:
            self.advance()
            whole, frac = tok.text.split(".")
            return Const(Fraction(self.integer(tok, whole + frac), 10 ** len(frac)))
        if tok.kind == _VAR:
            self.advance()
            return Var(self.integer(tok, tok.text[1:]))
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.advance()
            return e
        self.fail(("number", "variable", "'('", "'-'"))
        raise AssertionError("unreachable")


def parse(source: str) -> Expr:
    """Parse source text into an AST, or raise ParseError with position."""
    return _Parser(_tokenize(source)).parse()


# -- Printing -----------------------------------------------------------------


def pretty_print(e: Expr) -> str:
    """Canonical fully-parenthesized text; inverse of parse on its image."""
    if isinstance(e, Const):
        if e.value < 0:
            return f"(-{-e.value})"
        return str(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Add):
        return f"({pretty_print(e.left)} + {pretty_print(e.right)})"
    if isinstance(e, Sub):
        return f"({pretty_print(e.left)} - {pretty_print(e.right)})"
    if isinstance(e, Neg):
        return f"(-{pretty_print(e.operand)})"
    if isinstance(e, Mul):
        return f"({pretty_print(e.left)} * {pretty_print(e.right)})"
    if isinstance(e, Div):
        return f"({pretty_print(e.left)} / {pretty_print(e.right)})"
    if isinstance(e, Pow):
        return f"({pretty_print(e.base)} ^ {e.exponent})"
    if isinstance(e, Compose):
        return pretty_print(substitute(e.outer, e.substitutions))
    raise TypeError(f"not an Expr node: {e!r}")


# -- Substitution -------------------------------------------------------------


def substitute(e: Expr, substitutions) -> Expr:
    """Replace Var(j) by substitutions[j] structurally, flattening Compose."""
    subs = tuple(substitutions)
    if len(subs) < arity(e):
        raise ArityMismatchError(f"need {arity(e)} substitutions, got {len(subs)}")
    return _substitute(e, subs)


def _substitute(e: Expr, subs: tuple[Expr, ...]) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return subs[e.index]
    if isinstance(e, Add):
        return Add(_substitute(e.left, subs), _substitute(e.right, subs))
    if isinstance(e, Sub):
        return Sub(_substitute(e.left, subs), _substitute(e.right, subs))
    if isinstance(e, Neg):
        return Neg(_substitute(e.operand, subs))
    if isinstance(e, Mul):
        return Mul(_substitute(e.left, subs), _substitute(e.right, subs))
    if isinstance(e, Div):
        return Div(_substitute(e.left, subs), _substitute(e.right, subs))
    if isinstance(e, Pow):
        return Pow(_substitute(e.base, subs), e.exponent)
    if isinstance(e, Compose):
        inner = tuple(_substitute(s, subs) for s in e.substitutions)
        return _substitute(e.outer, inner)
    raise TypeError(f"not an Expr node: {e!r}")


# -- Evaluation ---------------------------------------------------------------


def _identity_lift(c: Fraction) -> Fraction:
    return c


def evaluate(e: Expr, args, lift=None):
    """Evaluate over the carrier of ``args``.

    ``lift`` embeds a Fraction constant into the carrier (identity by
    default, so rational arguments need nothing extra; pass ``float`` for
    binary64, or a jet-constant embedding for Weil carriers). Arguments must
    cover arity(e). Division multiplies by the carrier inverse of the
    denominator and fails with EvaluationError when that inverse does not
    exist.
    """
    args = tuple(args)
    if len(args) < arity(e):
        raise ArityMismatchError(
            f"expression has arity {arity(e)} but got {len(args)} arguments"
        )
    return _evaluate(e, args, lift or _identity_lift, ())


def _evaluate(e: Expr, args, lift, path):
    if isinstance(e, Const):
        return lift(e.value)
    if isinstance(e, Var):
        return args[e.index]
    if isinstance(e, Add):
        return _evaluate(e.left, args, lift, path + (0,)) + _evaluate(e.right, args, lift, path + (1,))
    if isinstance(e, Sub):
        return _evaluate(e.left, args, lift, path + (0,)) - _evaluate(e.right, args, lift, path + (1,))
    if isinstance(e, Neg):
        return -_evaluate(e.operand, args, lift, path + (0,))
    if isinstance(e, Mul):
        return _evaluate(e.left, args, lift, path + (0,)) * _evaluate(e.right, args, lift, path + (1,))
    if isinstance(e, Div):
        num = _evaluate(e.left, args, lift, path + (0,))
        den = _evaluate(e.right, args, lift, path + (1,))
        try:
            return num * _reciprocal(den)
        except (ZeroDivisionError, WeiljetError):
            raise EvaluationError("division by a non-invertible value", path, e) from None
    if isinstance(e, Pow):
        return _evaluate(e.base, args, lift, path + (0,)) ** e.exponent
    if isinstance(e, Compose):
        used = variables(e.outer)
        inner_args = [None] * len(e.substitutions)
        for j in used:
            inner_args[j] = _evaluate(e.substitutions[j], args, lift, path + (1 + j,))
        return _evaluate(e.outer, tuple(inner_args), lift, path + (0,))
    raise TypeError(f"not an Expr node: {e!r}")


def _reciprocal(v):
    invert = getattr(v, "invert", None)
    if invert is not None:
        return invert()
    return 1 / v


# -- JSON ---------------------------------------------------------------------

_BINARY_OPS = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}


def expr_to_json(e: Expr) -> dict:
    """Nested tagged objects, e.g. {"op": "add", "args": [...]}."""
    if isinstance(e, Const):
        return {"op": "const", "num": str(e.value.numerator), "den": str(e.value.denominator)}
    if isinstance(e, Var):
        return {"op": "var", "index": e.index}
    if isinstance(e, Add):
        return {"op": "add", "args": [expr_to_json(e.left), expr_to_json(e.right)]}
    if isinstance(e, Sub):
        return {"op": "sub", "args": [expr_to_json(e.left), expr_to_json(e.right)]}
    if isinstance(e, Neg):
        return {"op": "neg", "args": [expr_to_json(e.operand)]}
    if isinstance(e, Mul):
        return {"op": "mul", "args": [expr_to_json(e.left), expr_to_json(e.right)]}
    if isinstance(e, Div):
        return {"op": "div", "args": [expr_to_json(e.left), expr_to_json(e.right)]}
    if isinstance(e, Pow):
        return {"op": "pow", "args": [expr_to_json(e.base)], "exponent": e.exponent}
    if isinstance(e, Compose):
        return {
            "op": "compose",
            "outer": expr_to_json(e.outer),
            "subs": [expr_to_json(s) for s in e.substitutions],
        }
    raise TypeError(f"not an Expr node: {e!r}")


def expr_from_json(obj) -> Expr:
    op = obj["op"]
    if op == "const":
        return Const(Fraction(int(obj["num"]), int(obj["den"])))
    if op == "var":
        return Var(int(obj["index"]))
    if op in _BINARY_OPS:
        left, right = obj["args"]
        return _BINARY_OPS[op](expr_from_json(left), expr_from_json(right))
    if op == "neg":
        return Neg(expr_from_json(obj["args"][0]))
    if op == "pow":
        return Pow(expr_from_json(obj["args"][0]), int(obj["exponent"]))
    if op == "compose":
        return Compose(expr_from_json(obj["outer"]), tuple(expr_from_json(s) for s in obj["subs"]))
    raise ValueError(f"unknown op tag {op!r}")
