"""``cli.main`` over generated argv: every subcommand and flag, with values
drawn from hostile alphabets next to valid ones.

The draws keep to a size budget, not a time bound: at most 40 expression
tokens, joined by spaces so that digits never run together into a large
exponent, arity and orders at most 4, and at most 3 instances per suite.
Every run must end in exit 0, 2 or 64 with no exception escaping; a nonzero
exit says why on its last stderr line (only a tolerance that ``fd-check``
finds unmet exits 2 without one); a JSON report carries an int seed.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from weiljet.cli import main
from weiljet.errors import int_digit_limit

# "--" was dropped from "--seed=--" before Python 3.13; "٣" is a decimal
# digit to str.isdecimal and int; the digit run passes the interpreter's cap.
HOSTILE = ["--", "-1", "", "٣", "1e99999999", "nan", "9" * (int_digit_limit() or 4300) + "9"]
SYMBOLS = ["+", "-", "*", "/", "^", "(", ")", "x3"]
SUITES = ["all", "lemma-3.1.2", "thm-4.1.4", "prop-4.2.2", "thm-5.2.1", "thm-5.2.4", "nope"]
ERROR_LINE = re.compile(r"weiljet( [a-z-]+)?: (usage )?error: ")


def _lists(items, arity):
    return st.lists(items, min_size=arity, max_size=arity).map(",".join)


def _expressions(arity):
    """Source text: a tree over the variables of the arity, or a soup of
    tokens that may name one past it; at most 40 tokens."""
    atoms = st.sampled_from([f"x{i}" for i in range(arity)] + ["0", "1", "2", "3", "1/2", "0.5"])
    trees = st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: "( " + " ".join(t) + " )"),
            sub.map(lambda a: "- " + a),
            st.tuples(sub, st.sampled_from("23")).map(lambda t: f"( {t[0]} ) ^ {t[1]}"),
        ),
        max_leaves=6,
    )
    soup = st.lists(atoms | st.sampled_from(SYMBOLS), max_size=40).map(" ".join)
    return st.one_of(trees, trees, soup).filter(lambda text: len(text.split()) <= 40)


@st.composite
def argvs(draw):
    arity = draw(st.integers(0, 4))
    expr = _expressions(arity)
    rationals = _lists(st.sampled_from(["0", "1", "-1", "1/3", "-7/2", "2.5", "1e3"]), arity)
    naturals = _lists(st.sampled_from(["0", "1", "2", "3", "4"]), arity)
    command = draw(st.sampled_from(["taylor", "derive", "check", "fd-check"]))
    values = st.sampled_from
    flags = {
        "taylor": {"--expr": expr, "--at": rationals, "--orders": naturals, "--mode": values(["box", "simplex"])},
        "derive": {"--expr": expr, "--at": rationals, "--alpha": naturals},
        "check": {
            "--suite": values(SUITES),
            "--instances": values(["0", "1", "3"]),
            "--seed": values(["0", "7", "-5", "123456789"]),
        },
        "fd-check": {
            "--expr": expr,
            "--at": _lists(values(["0", "1", "-1", "0.25", "2.5"]), arity),
            "--wrt": values(["0", "1", "3"]),
            "--h": values(["1e-4", "0.5", "0"]),
            "--rtol": values(["1e-6", "0.5", "0"]),
        },
    }[command]
    flags["--format"] = values(["table", "json"])
    hostile = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag in draw(st.permutations(list(flags))):
        # None leaves a flag out, but not --instances, which would then run 200.
        value = draw(st.sampled_from(HOSTILE + [None] * (flag != "--instances")) if flag in hostile else flags[flag])
        if value is None:
            continue
        # A hostile value is glued on, as "--" must be to reach the flag.
        argv += [f"{flag}={value}"] if flag in hostile or draw(st.booleans()) else [flag, value]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 64)
    if code and err:
        assert ERROR_LINE.match(err.splitlines()[-1]), err
    elif code:
        assert argv[0] == "fd-check" and ("NO" in out or '"within_tolerance": false' in out), out
    elif "--format=json" in argv or "json" in argv:
        assert isinstance(json.loads(out)["seed"], int)
