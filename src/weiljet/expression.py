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
exponent must be a bare natural literal. A source may hold ``MAX_SOURCE``
characters and open ``MAX_NESTING`` parentheses and unary minus signs at
once, since the parser recurses per parenthesis. ``evaluate`` walks left
operands in a loop and recurses one frame per right operand, negation,
power or composition nested in another, so it takes trees of any height
whose such nesting stays under the interpreter's recursion limit (up to
about 990 levels at the default limit of 1,000); a deeper tree is a
BudgetError. ``MAX_NESTING`` keeps parsed input far below that. Every other
walk (comparing, hashing, printing, pickling, ``variables``, ``substitute``,
JSON and ``oracle.to_poly``) goes through ``walk`` and ``fold``, which keep
an explicit stack, so they take any tree. A power of an ``int`` or
``Fraction`` value checks ``COEFF_BIT_BUDGET`` first, as a jet's does. The
tokenizer is one ``findall`` giving a (whitespace, text) pair per token, and
the parser dispatches on the text; a position is worked out only for a
ParseError.

``parse(pretty_print(e)) == e`` for every AST reachable from the grammar
whose printed form stays within those two limits: the printer brackets
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
from math import ldexp, log2

from .errors import COEFF_BIT_BUDGET, BudgetError, WeiljetError, int_digit_limit
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


class Expr(Value):
    """Base class for AST nodes. Every walk over a tree but evaluation goes
    through ``walk``, over an explicit stack, so it takes any height. Nodes
    are immutable, so a copy of one is the node itself."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return walk(self) == walk(other)

    def __hash__(self):
        return hash(tuple(walk(self)))

    def __repr__(self) -> str:
        return _text(fold(walk(self), _REPR))

    def __reduce__(self):
        return _unflatten, (walk(self),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


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


_BINARY_KINDS = {kind.tag: kind for kind in _Binary.__subclasses__()}


# -- Traversal ----------------------------------------------------------------

_OUTER, _BIND = "outer", "bind"  # a composition's markers in a substituting walk
# Per kind, a node's item and its operands; a marker is its own item.
_SPLIT = {
    Const: lambda e: ((Const, 0, e.value), ()),
    Var: lambda e: ((Var, 0, e.index), ()),
    **dict.fromkeys(_BINARY_KINDS.values(), lambda e: ((e.__class__, 2), (e.left, e.right))),
    Neg: lambda e: ((Neg, 1), (e.operand,)),
    Pow: lambda e: ((Pow, 1, e.exponent), (e.base,)),
    Compose: lambda e: ((Compose, 1 + len(e.substitutions)), (e.outer, *e.substitutions)),
    tuple: lambda marker: (marker, ()),
}


def walk(e: Expr, substituting: bool = False) -> list:
    """The flat form of ``e``: per node an item (kind, operand count, other
    fields...), before its operands' items, the last operand's first.
    Substituting, a Compose lists (_OUTER, 0), its outer expression, then
    (_BIND, k, j1, ..., jk) and the k substitutions the outer uses."""
    out, todo = [], [e]
    while todo:
        node = todo.pop()
        if substituting and node.__class__ is Compose:
            used = sorted(node._used)
            out.append((_OUTER, 0))
            todo += [node.substitutions[j] for j in used] + [(_BIND, len(used), *used), node.outer]
        else:
            item, operands = _SPLIT[node.__class__](node)
            out.append(item)
            todo += operands
    return out


def fold(flat: list, visit: dict):
    """Fold a flat form in reverse, so from the leaves up and left to right:
    a node's result is ``visit[kind](*its operands' results, *its other
    fields)``. Substituting, a composition's is its outer expression's, each
    Var(j) in that standing for the result of substitutions[j], passed once
    through ``visit[_BIND]`` if there is one."""
    done, scopes = [], []
    bind = visit.get(_BIND)
    for kind, count, *fields in reversed(flat):
        operands = done[len(done) - count :]
        del done[len(done) - count :]
        if kind is _BIND:
            scopes.append(dict(zip(fields, map(bind, operands) if bind else operands)))
        elif kind is _OUTER:
            scopes.pop()  # the outer's result is the composition's
        elif kind is Var and scopes:
            done.append(scopes[-1][fields[0]])
        else:
            done.append(visit[kind](*operands, *fields))
    return done[0]


def _unflatten(flat: list) -> Expr:
    """The tree whose flat form is ``flat``."""
    return fold(flat, _MAKE)


def _text(pieces) -> str:
    """The text of nested tuples of strings, joined once: a fold that joined
    text at every node would copy each node's once per level above it."""
    out, todo = [], [pieces]
    while todo:
        piece = todo.pop()
        if piece.__class__ is str:
            out.append(piece)
        else:
            todo += reversed(piece)
    return "".join(out)


_KINDS = (Const, Var, *_BINARY_KINDS.values(), Neg, Pow)
# Value's repr of each kind, in pieces joined once by ``_text``.
_REPR = {
    Const: "Const(value={!r})".format,
    Var: "Var(index={!r})".format,
    **{
        kind: lambda left, right, k=kind.__qualname__: (f"{k}(left=", left, ", right=", right, ")")
        for kind in _BINARY_KINDS.values()
    },
    Neg: lambda operand: ("Neg(operand=", operand, ")"),
    Pow: lambda base, exponent: ("Pow(base=", base, f", exponent={exponent!r})"),
    Compose: lambda outer, *subs: (
        "Compose(outer=", outer, ", substitutions=(", tuple(chain.from_iterable((", ", s) for s in subs))[1:],
        "," * (len(subs) == 1), "))",
    ),
}
_MAKE = {**{kind: kind for kind in _KINDS}, Compose: lambda outer, *subs: Compose(outer, subs)}


def variables(e: Expr) -> frozenset[int]:
    """Indices of the variables the expression actually depends on: the
    Vars outside every composition's outer expression."""
    return _variables(walk(e, True))


def _variables(flat: list) -> frozenset[int]:
    # ``variables`` read off a substituting walk's flat form.
    used, depth = set(), 0
    for item in flat:
        depth += (item[0] is _OUTER) - (item[0] is _BIND)
        if not depth and item[0] is Var:
            used.add(item[2])
    return frozenset(used)


def arity(e: Expr) -> int:
    """1 + the largest variable index occurring; 0 for closed expressions."""
    used = variables(e)
    return max(used) + 1 if used else 0


# -- Parser -------------------------------------------------------------------

# How many parentheses and unary minus signs may be open at once: the parser
# recurses four frames per parenthesis, so the deepest input takes about 800
# of Python's default limit of 1000, and a deeper one is a ParseError.
MAX_NESTING = 200

# How many characters a source may hold: Linux's limit on one command-line
# argument, so every ``--expr`` fits. A longer one is refused untokenized.
MAX_SOURCE = 2**17

# One (whitespace, text) pair per token, listed by one findall. Its search
# skips any character no token may start with, so the pairs then fall short
# of the source without its trailing whitespace, and only then is that
# character located.
_TOKEN_RE = re.compile(r"(\s*)(\d+\.\d+|\d+|x\d+|[-+*/^()])")
_LEVELS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})  # binary operators, loosest first
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

    def error(self, message: str, pos: int, expected: tuple[str, ...] = ()) -> ParseError:
        offset = sum(map(len, chain.from_iterable(self.tokens[:pos]))) + len(self.tokens[pos][0])
        return _error(self.source, message, offset, expected)

    def unexpected(self, expected: tuple[str, ...]) -> ParseError:
        text = self.tokens[self.pos][1]
        return self.error(f"unexpected {repr(text) if text else _END}", self.pos, expected)

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

    def expr(self, level: int = 0) -> Expr:
        # The operands of one precedence level, terms at level 0 and factors
        # at level 1, joined left to right by that level's operators.
        operators = _LEVELS[level]
        e = self.factor() if level else self.expr(1)
        while (node := operators.get(self.tokens[self.pos][1])) is not None:
            self.pos += 1
            e = node(e, self.factor() if level else self.expr(1))
        return e

    def factor(self) -> Expr:
        tokens = self.tokens
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
        self.depth -= negations
        for _ in range(negations):
            e = Neg(e)
        return e

    def atom(self) -> Expr:
        tokens = self.tokens
        pos = self.pos
        text = tokens[pos][1]
        self.pos = pos + 1  # one token, but for a rational literal or an error
        if text.isdecimal():
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
            return Var(self.integer(pos, text[1:]))
        if "." in text:
            whole, frac = text.split(".")
            return Const(Fraction(self.integer(pos, whole + frac), 10 ** len(frac)))
        if text == "(":
            self.enter(pos)
            e = self.expr()
            if tokens[self.pos][1] != ")":
                raise self.unexpected(("')'",))
            self.pos += 1
            self.depth -= 1
            return e
        self.pos = pos
        raise self.unexpected(("number", "variable", "'('", "'-'"))


def parse(source: str) -> Expr:
    """Parse source text into an AST, or raise ParseError with position.

    A source longer than ``MAX_SOURCE`` characters is a ParseError at its
    first character past that limit, and nesting deeper than ``MAX_NESTING``
    parentheses and unary minus signs one at the first sign past that limit.
    """
    if len(source) > MAX_SOURCE:
        raise _error(source, f"source of {len(source)} characters is over the limit of {MAX_SOURCE}", MAX_SOURCE)
    return _Parser(source).parse()


# -- Printing -----------------------------------------------------------------

# Each node's text in pieces, joined once by ``_text``.
_PRINT = {
    Const: lambda value: f"(-{-value})" if value < 0 else str(value),
    Var: "x{}".format,
    **{kind: lambda left, right, s=f" {kind.symbol} ": ("(", left, s, right, ")") for kind in _BINARY_KINDS.values()},
    Neg: lambda operand: ("(-", operand, ")"),
    Pow: lambda base, exponent: ("(", base, f" ^ {exponent})"),
}


def pretty_print(e: Expr) -> str:
    """Canonical fully-parenthesized text; inverse of parse on its image."""
    return _text(fold(walk(e, True), _PRINT))


# -- Substitution -------------------------------------------------------------


def substitute(e: Expr, substitutions) -> Expr:
    """Replace Var(j) by substitutions[j] structurally, flattening Compose."""
    subs = tuple(substitutions)
    if len(subs) < arity(e):
        raise ArityMismatchError(f"need {arity(e)} substitutions, got {len(subs)}")
    return fold(walk(e, True), {**_MAKE, Var: subs.__getitem__})


# -- Evaluation ---------------------------------------------------------------


def _identity_lift(c: Fraction) -> Fraction:
    return c


def evaluate(e: Expr, args, lift=None):
    """Evaluate over the carrier of ``args``, at any tree height: recursion
    follows only right operands and the operands of other nodes, and nesting
    those past the interpreter's recursion limit raises BudgetError.

    ``lift`` embeds a Fraction constant into the carrier (identity by
    default; pass ``float`` for binary64, or a jet-constant embedding for
    Weil carriers). Jets divide by one triangular solve, other carriers
    multiply by ``1 / right`` so floats keep their bits; a denominator that
    is not invertible is an EvaluationError naming the division's path.

    Arguments must cover arity(e), or ArityMismatchError is raised. The count
    is checked only when a variable is missing, so an EvaluationError met
    before the first missing variable is raised instead.
    """
    args = tuple(args)
    try:
        return _evaluate(e, args, lift or _identity_lift)
    except _Failure as failure:
        raise EvaluationError("division by a non-invertible value", tuple(failure.steps[::-1]), failure.node) from None
    except RecursionError:
        raise BudgetError("expression too deep to evaluate: its right operands, negations, powers "
                          "and compositions nest past the interpreter's recursion limit") from None
    except IndexError:
        if len(args) >= arity(e):
            raise
    raise ArityMismatchError(f"expression has arity {arity(e)} but got {len(args)} arguments")


def _power(base, exponent: int):
    """base ** exponent, refused with BudgetError where square-and-multiply
    over jets would be: its last square is of base^m, m = 2^(bits of the
    exponent - 2), whose numerator or denominator takes about m * log2 of
    base's. Only exact rationals are checked; floats overflow instead, and
    jets check themselves."""
    if exponent > 1 and isinstance(base, (int, Fraction)):
        top = max(abs(base.numerator), base.denominator)
        if log2(top) > ldexp(COEFF_BIT_BUDGET, 2 - exponent.bit_length()):
            raise BudgetError(f"a power would square a rational of over {COEFF_BIT_BUDGET} bits, the budget")
    return base ** exponent


class _Failure(Exception):
    # A failed division and its path's steps, last first, added as it leaves each ``_evaluate``.
    def __init__(self, node: Expr):
        self.node, self.steps = node, []


def _evaluate(e: Expr, args, lift):
    # Gathers the binary nodes down e's left operands (its spine) in a loop
    # and applies them bottom up, recursing only into their right operands.
    if isinstance(e, Var):
        return args[e.index]
    if isinstance(e, Const):
        return lift(e.value)
    spine, node, step = [], None, 0
    while isinstance(e, _Binary):
        spine.append(e)
        e = e.left
    try:
        if isinstance(e, Neg):
            value = -_evaluate(e.operand, args, lift)
        elif isinstance(e, Pow):
            value = _power(_evaluate(e.base, args, lift), e.exponent)
        elif isinstance(e, Compose):
            inner_args = [None] * len(e.substitutions)
            for j in e._used:
                step = 1 + j
                inner_args[j] = _evaluate(e.substitutions[j], args, lift)
            step = 0
            value = _evaluate(e.outer, tuple(inner_args), lift)
        elif spine:  # a Var or Const
            value = _evaluate(e, args, lift)
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        step = 1
        while spine:
            node = spine.pop()
            right = _evaluate(node.right, args, lift)
            if node.op is not None:
                value = node.op(value, right)
                continue
            try:
                value = value / right if hasattr(right, "invert") else value * (1 / right)
            except BudgetError:
                raise
            except (ZeroDivisionError, WeiljetError):
                raise _Failure(node) from None
    except _Failure as failure:
        if failure.node is not node:  # inside an operand, not node's own division
            failure.steps.append(step)
        failure.steps += [0] * len(spine)  # node's level, or the foot's
        raise
    return value


# -- JSON ---------------------------------------------------------------------

_JSON = {
    Const: lambda value: {"op": "const", "num": str(value.numerator), "den": str(value.denominator)},
    Var: lambda index: {"op": "var", "index": index},
    **{kind: lambda left, right, tag=kind.tag: {"op": tag, "args": [left, right]} for kind in _BINARY_KINDS.values()},
    Neg: lambda operand: {"op": "neg", "args": [operand]},
    Pow: lambda base, exponent: {"op": "pow", "args": [base], "exponent": exponent},
    Compose: lambda outer, *subs: {"op": "compose", "outer": outer, "subs": list(subs)},
}
_TAGS = {"const": Const, "var": Var, **_BINARY_KINDS, "neg": Neg, "pow": Pow, "compose": Compose}


def expr_to_json(e: Expr) -> dict:
    """Nested tagged objects, e.g. {"op": "add", "args": [...]}. The nesting
    follows the tree, so ``json.dumps`` of a deep tree's object recurses
    inside ``json`` and fails from about 500 levels (Python 3.11)."""
    return fold(walk(e), _JSON)


def expr_from_json(obj) -> Expr:
    """The tree ``expr_to_json`` wrote as ``obj``, through its flat form."""
    flat, todo = [], [obj]
    while todo:
        obj = todo.pop()
        if obj["op"] not in _TAGS:
            raise ValueError(f"unknown op tag {obj['op']!r}")
        operands = [obj["outer"], *obj["subs"]] if obj["op"] == "compose" else obj.get("args", [])
        fields = [int(obj[name]) for name in ("index", "exponent") if name in obj]
        if obj["op"] == "const":
            fields = [Fraction(int(obj["num"]), int(obj["den"]))]
        flat.append((_TAGS[obj["op"]], len(operands), *fields))
        todo += operands
    return fold(flat, _MAKE)
