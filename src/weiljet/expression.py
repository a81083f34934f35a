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
exponent must be a bare natural literal. At most ``MAX_NESTING``
parentheses and unary minus signs may be open at once, and the tree may be
at most ``MAX_DEPTH`` operators deep. The tokenizer is one
``findall`` giving a (whitespace, text) pair per token, and the parser
dispatches on the text; a position is worked out only for a ParseError.

``parse(pretty_print(e)) == e`` for every AST reachable from the grammar
whose printed form stays within that nesting limit: the printer brackets
every operator node, and a negation opens a minus sign besides.
Two kinds of nodes fall outside that fragment and print as their closest
grammar form: constants with negative values print parenthesized with a
leading minus (reparsing as a negation node), and composition nodes print
flattened (reparsing as the substituted expression).
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import chain

from .errors import WeiljetError, int_digit_limit
from .multiindex import ArityMismatchError
from .value import Value, setfield


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


_CLOSE = object()  # what follows a node's closing parenthesis in a repr walk


class Expr(Value):
    """Base class for AST nodes. Comparing, hashing and printing walk the
    tree over an explicit stack, so a tree of any height takes no recursion."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            for x, y in zip(a._values, b._values):
                if x is y:
                    continue
                if isinstance(x, Expr) and x.__class__ is y.__class__:
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        # Every node's fields, depth first, each operand standing as None.
        flat, todo = [], [self]
        while todo:
            for x in todo.pop()._values:
                if isinstance(x, Expr):
                    todo.append(x)
                    x = None
                flat.append(x)
        return hash(tuple(flat))

    def __repr__(self) -> str:
        out, todo = [], [("", self)]  # (text to write, value to write after it)
        while todo:
            text, value = todo.pop()
            out.append(text)
            if isinstance(value, Expr):
                out.append(f"{value.__class__.__qualname__}(")
                todo.append((")", _CLOSE))
                fields = zip(value.__match_args__, value._values)
                todo.extend(reversed([(f"{', ' * (i > 0)}{name}=", x) for i, (name, x) in enumerate(fields)]))
            elif value is not _CLOSE:
                out.append(repr(value))
        return "".join(out)


class Const(Expr):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: Fraction):
        setfield(self, "value", value if type(value) is Fraction else Fraction(value))


class Var(Expr):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("variable index must be a natural")
        setfield(self, "index", index)


class _Binary(Expr):
    """A node with two operands. Each kind sets its printed ``symbol``, JSON
    ``tag`` and carrier operation ``op``; division is partial, so Div's
    ``op`` is None and evaluation divides itself."""

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Add(_Binary):
    __slots__, symbol, tag, op = (), "+", "add", operator.add


class Sub(_Binary):
    __slots__, symbol, tag, op = (), "-", "sub", operator.sub


class Mul(_Binary):
    __slots__, symbol, tag, op = (), "*", "mul", operator.mul


class Div(_Binary):
    __slots__, symbol, tag, op = (), "/", "div", None


class Neg(Expr):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: Expr):
        setfield(self, "operand", operand)


class Pow(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer literal")
        setfield(self, "base", base)
        setfield(self, "exponent", exponent)


class Compose(Expr):
    """outer with Var(j) replaced by substitutions[j]; no surface syntax.
    ``_used`` holds the variables of outer, which evaluation substitutes."""

    __slots__ = ("outer", "substitutions", "_used")
    __match_args__ = ("outer", "substitutions")

    def __init__(self, outer: Expr, substitutions: tuple[Expr, ...]):
        substitutions = tuple(substitutions)
        used = variables(outer)
        if used and len(substitutions) <= max(used):
            raise ArityMismatchError(f"composition needs {max(used) + 1} substitutions, got {len(substitutions)}")
        setfield(self, "outer", outer)
        setfield(self, "substitutions", substitutions)
        setfield(self, "_used", used)


def variables(e: Expr) -> frozenset[int]:
    """Indices of the variables the expression actually depends on."""
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.index,))
    if isinstance(e, _Binary):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Neg):
        return variables(e.operand)
    if isinstance(e, Pow):
        return variables(e.base)
    if isinstance(e, Compose):
        out: frozenset[int] = frozenset()
        for j in e._used:
            out |= variables(e.substitutions[j])
        return out
    raise TypeError(f"not an Expr node: {e!r}")


def arity(e: Expr) -> int:
    """1 + the largest variable index occurring; 0 for closed expressions."""
    used = variables(e)
    return max(used) + 1 if used else 0


# -- Parser -------------------------------------------------------------------

# How many parentheses and unary minus signs may be open at once. An open
# parenthesis costs the parser four stack frames and a minus sign costs the
# AST walks after it one, so the deepest input accepted needs about 800
# frames, inside Python's default recursion limit of 1000; a deeper one is a
# positioned ParseError.
MAX_NESTING = 200

# How many levels deep the tree may be: each operator (binary, minus sign or
# power) sits one level above its deepest operand, so a left-deep chain of n
# operators counts n. The AST walks (``evaluate``, ``variables``,
# ``pretty_print``, ``substitute``, ``expr_to_json``, ``oracle.to_poly``)
# recurse once per level; the deepest needs about 12 frames more than the
# height (Python 3.11), so this leaves about 190 of the default 1000 for the
# caller's own. A deeper tree is a ParseError at its first operator past it.
MAX_DEPTH = 800

# One (whitespace, text) pair per token, listed by one findall. Its search
# skips any character no token may start with, so the pairs then fall short
# of the source without its trailing whitespace, and only then is that
# character located.
_TOKEN_RE = re.compile(r"(\s*)(\d+\.\d+|\d+|x\d+|[-+*/^()])")
_ADDITIVE = {"+": Add, "-": Sub}
_MULTIPLICATIVE = {"*": Mul, "/": Div}
_END = "end of input"


def _error(source: str, message: str, offset: int, expected: tuple[str, ...] = ()) -> ParseError:
    # Line and column of a character offset, worked out only for the error.
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset), expected)


def _tokenize(source: str) -> list:
    """(whitespace, text) per token, closed by an end-of-input token: the
    trailing whitespace and empty text."""
    tokens = _TOKEN_RE.findall(source)
    body = source.rstrip()
    if sum(map(len, chain.from_iterable(tokens))) != len(body):
        end = 0
        while m := _TOKEN_RE.match(source, end):
            end = m.end()
        start = len(source) - len(source[end:].lstrip())
        raise _error(
            source, f"unexpected character {source[start]!r}", start,
            ("number", "variable", "operator", "parenthesis"),
        )
    tokens.append((source[len(body):], ""))
    return tokens


class _Parser:
    # Recursive descent over the token list, dispatching on the token text;
    # the end-of-input token is never stepped over, so every lookahead stays
    # in range. Errors name a token by its index, whose offset is the length
    # of the pairs before it.

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0
        self.height = 0  # tree levels of the last operand parsed

    def error(self, message: str, pos: int, expected: tuple[str, ...] = ()) -> ParseError:
        offset = sum(map(len, chain.from_iterable(self.tokens[:pos]))) + len(self.tokens[pos][0])
        return _error(self.source, message, offset, expected)

    def unexpected(self, expected: tuple[str, ...]) -> ParseError:
        text = self.tokens[self.pos][1]
        return self.error(f"unexpected {repr(text) if text else _END}", self.pos, expected)

    def too_deep(self, pos: int) -> ParseError:
        return self.error(f"expression more than {MAX_DEPTH} levels deep", pos)

    def enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"more than {MAX_NESTING} parentheses and unary minus signs open at once", pos)

    def integer(self, pos: int, digits: str) -> int:
        # The lexer admits decimal digits only, so the one way int() fails is
        # a literal over the interpreter's digit cap.
        try:
            return int(digits)
        except ValueError:
            raise self.error(
                f"literal of {len(digits)} digits is over the limit of {int_digit_limit()} "
                "digits for integer conversion",
                pos,
            ) from None

    def parse(self) -> Expr:
        e = self.expr()
        if self.tokens[self.pos][1]:
            raise self.unexpected(("'+'", "'-'", "'*'", "'/'", _END))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (node := _ADDITIVE.get(self.tokens[self.pos][1])) is not None:
            # The new node sits one level above its deeper operand.
            pos = self.pos
            height = self.height
            self.pos = pos + 1
            e = node(e, self.term())
            if self.height > height:
                height = self.height
            if height >= MAX_DEPTH:
                raise self.too_deep(pos)
            self.height = height + 1
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (node := _MULTIPLICATIVE.get(self.tokens[self.pos][1])) is not None:
            pos = self.pos
            height = self.height
            self.pos = pos + 1
            e = node(e, self.factor())
            if self.height > height:
                height = self.height
            if height >= MAX_DEPTH:
                raise self.too_deep(pos)
            self.height = height + 1
        return e

    def factor(self) -> Expr:
        tokens = self.tokens
        start = self.pos
        negations = 0
        while tokens[self.pos][1] == "-":
            self.enter(self.pos)
            self.pos += 1
            negations += 1
        e = self.atom()
        if tokens[self.pos][1] == "^":
            pos = self.pos + 1
            text = tokens[pos][1]
            if not text.isdecimal():
                raise self.error("exponent must be a nonnegative integer literal", pos, ("natural number",))
            self.pos = pos + 1
            e = Pow(e, self.integer(pos, text))
            if self.height >= MAX_DEPTH:
                raise self.too_deep(pos - 1)
            self.height += 1
        if negations:
            # The minus sign at level MAX_DEPTH + 1 is the one to report.
            if self.height + negations > MAX_DEPTH:
                raise self.too_deep(start + negations - (MAX_DEPTH + 1 - self.height))
            self.height += negations
        self.depth -= negations
        for _ in range(negations):
            e = Neg(e)
        return e

    def atom(self) -> Expr:
        tokens = self.tokens
        pos = self.pos
        text = tokens[pos][1]
        self.height = 0
        if text.isdecimal():
            self.pos = pos + 1
            if tokens[pos + 1] == ("", "/"):
                space, den = tokens[pos + 2]
                if not space and den.isdecimal():
                    # Adjacent nat/nat is a rational literal, not a quotient.
                    self.pos = pos + 3
                    q = self.integer(pos + 2, den)
                    if q == 0:
                        raise self.error("zero denominator in rational literal", pos + 2, ("nonzero natural",))
                    return Const(Fraction(self.integer(pos, text), q))
            return Const(Fraction(self.integer(pos, text)))
        if text[:1] == "x":
            self.pos = pos + 1
            return Var(self.integer(pos, text[1:]))
        if "." in text:
            self.pos = pos + 1
            whole, frac = text.split(".")
            return Const(Fraction(self.integer(pos, whole + frac), 10 ** len(frac)))
        if text == "(":
            self.enter(pos)
            self.pos = pos + 1
            e = self.expr()
            if tokens[self.pos][1] != ")":
                raise self.unexpected(("')'",))
            self.pos += 1
            self.depth -= 1
            return e
        raise self.unexpected(("number", "variable", "'('", "'-'"))


def parse(source: str) -> Expr:
    """Parse source text into an AST, or raise ParseError with position.

    Nesting deeper than ``MAX_NESTING`` parentheses and unary minus signs is
    a ParseError at the first sign past the limit, and a tree deeper than
    ``MAX_DEPTH`` levels one at the first operator past it.
    """
    return _Parser(source).parse()


# -- Printing -----------------------------------------------------------------


def pretty_print(e: Expr) -> str:
    """Canonical fully-parenthesized text; inverse of parse on its image."""
    if isinstance(e, Const):
        if e.value < 0:
            return f"(-{-e.value})"
        return str(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, _Binary):
        return f"({pretty_print(e.left)} {e.symbol} {pretty_print(e.right)})"
    if isinstance(e, Neg):
        return f"(-{pretty_print(e.operand)})"
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
    if isinstance(e, _Binary):
        return type(e)(_substitute(e.left, subs), _substitute(e.right, subs))
    if isinstance(e, Neg):
        return Neg(_substitute(e.operand, subs))
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
    binary64, or a jet-constant embedding for Weil carriers). Jets divide by
    one triangular solve; other carriers multiply by ``1 / right``, so floats
    keep their bits. Division fails with EvaluationError when the denominator
    is not invertible.

    Arguments must cover arity(e), or ArityMismatchError is raised. The count
    is checked only when a variable is missing, not walked up front, so an
    EvaluationError met before the first missing variable is raised instead.
    """
    args = tuple(args)
    try:
        return _evaluate(e, args, lift or _identity_lift, ())
    except IndexError:
        if len(args) >= arity(e):
            raise
    raise ArityMismatchError(f"expression has arity {arity(e)} but got {len(args)} arguments")


def _evaluate(e: Expr, args, lift, path):
    if isinstance(e, Const):
        return lift(e.value)
    if isinstance(e, Var):
        return args[e.index]
    if isinstance(e, _Binary):
        left = _evaluate(e.left, args, lift, path + (0,))
        right = _evaluate(e.right, args, lift, path + (1,))
        if e.op is not None:
            return e.op(left, right)
        try:
            return left / right if hasattr(right, "invert") else left * (1 / right)
        except (ZeroDivisionError, WeiljetError):
            raise EvaluationError("division by a non-invertible value", path, e) from None
    if isinstance(e, Neg):
        return -_evaluate(e.operand, args, lift, path + (0,))
    if isinstance(e, Pow):
        return _evaluate(e.base, args, lift, path + (0,)) ** e.exponent
    if isinstance(e, Compose):
        inner_args = [None] * len(e.substitutions)
        for j in e._used:
            inner_args[j] = _evaluate(e.substitutions[j], args, lift, path + (1 + j,))
        return _evaluate(e.outer, tuple(inner_args), lift, path + (0,))
    raise TypeError(f"not an Expr node: {e!r}")


# -- JSON ---------------------------------------------------------------------

_BINARY_KINDS = {kind.tag: kind for kind in _Binary.__subclasses__()}


def expr_to_json(e: Expr) -> dict:
    """Nested tagged objects, e.g. {"op": "add", "args": [...]}."""
    if isinstance(e, Const):
        return {"op": "const", "num": str(e.value.numerator), "den": str(e.value.denominator)}
    if isinstance(e, Var):
        return {"op": "var", "index": e.index}
    if isinstance(e, _Binary):
        return {"op": e.tag, "args": [expr_to_json(e.left), expr_to_json(e.right)]}
    if isinstance(e, Neg):
        return {"op": "neg", "args": [expr_to_json(e.operand)]}
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
    if op in _BINARY_KINDS:
        left, right = obj["args"]
        return _BINARY_KINDS[op](expr_from_json(left), expr_from_json(right))
    if op == "neg":
        return Neg(expr_from_json(obj["args"][0]))
    if op == "pow":
        return Pow(expr_from_json(obj["args"][0]), int(obj["exponent"]))
    if op == "compose":
        return Compose(expr_from_json(obj["outer"]), tuple(expr_from_json(s) for s in obj["subs"]))
    raise ValueError(f"unknown op tag {op!r}")
