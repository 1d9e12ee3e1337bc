"""Grammar fuzzing of the `eval --json` contract.

Expressions are drawn as trees in the format of bench/workloads.py and
written out in the README grammar, with optional spaces, either quotient
form and redundant parentheses.  The draws lean towards the guard edges
(DIM_MAX, GL_MAX, NEST_MAX and the degree and height of a class), lopsided
products with constants such as (pt+pt)^64, and nested constant powers.
One-character mutations of the same strings cover syntax errors.

Every string runs through `cli.main` with --json, after "--" so that a
leading "-" is not read as an option: the exit status is 0, 1 or 2,
nothing goes to stderr, and a nonzero status prints the JSON error object.
On status 0, parse(render(parse(s))) == parse(s), the JSON class rebuilds
the printed text, and its values at l = 2 and l = 3 equal the tree
evaluated with Fractions by a copy of the bench oracle.  Each input
finishes within BUDGET_S.
"""

import json
import time
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from motivic.cli import main
from motivic.expr import parse, render
from motivic.guards import DIM_MAX, GL_MAX, NEST_MAX
from motivic.ratfield import RatFunc, canonical_str

# about three times the slowest accepted input known, 1.5 s near both
# DEGREE_MAX and HEIGHT_MAX (see guards.py); drawn inputs take under 0.5 s
BUDGET_S = 5.0

# ---------------------------------------------------------------------------
# the Fraction evaluator of bench/oracles.py, copied so the test needs no bench


def gl_class(m, x):
    acc = x ** (m * (m - 1) // 2)
    for k in range(1, m + 1):
        acc *= x**k - 1
    return acc


def group_class(g, x):
    if g[0] == "GL":
        return gl_class(g[1], x)
    if g[0] == "T":
        return (x - 1) ** g[1]
    acc = Fraction(1)
    for f in g[1:]:
        acc *= group_class(f, x)
    return acc


def tree_value(t, x):
    """Value of an expression tree at l = x."""
    kind = t[0]
    if kind == "pt":
        return Fraction(1)
    if kind == "A":
        return x ** t[1]
    if kind == "P":
        return sum((x**i for i in range(t[1] + 1)), Fraction(0))
    if kind == "Gm":
        return x - 1
    if kind == "GL":
        return gl_class(t[1], x)
    if kind == "BGL":
        return 1 / gl_class(t[1], x)
    if kind == "/":
        return tree_value(t[1], x) / group_class(t[2], x)
    if kind == "^":
        return tree_value(t[1], x) ** t[2]
    if kind == "*":
        acc = Fraction(1)
        for s in t[1:]:
            acc *= tree_value(s, x)
        return acc
    if kind == "+":
        return sum((tree_value(s, x) for s in t[1:]), Fraction(0))
    return tree_value(t[1], x) - tree_value(t[2], x)


def poly_value(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def json_value(obj, x):
    return poly_value(obj["num"], x) / poly_value(obj["den"], x)


# ---------------------------------------------------------------------------
# trees, leaning towards the guard edges


def near(small, edge):
    """Small values, or values at and just past a guard."""
    return st.one_of(st.integers(*small), st.sampled_from((edge - 1, edge, edge + 1)))


dims = near((0, 4), DIM_MAX)
ranks = near((1, 3), GL_MAX)
exponents = st.one_of(st.integers(0, 4), st.sampled_from((10, 11, 12, 31, 32, 33, 63, 64, 65)))

# 2^64 and its powers: constants whose size, not degree, is at a guard
two_64 = ["^", ["+", ["pt"], ["pt"]], 64]
constants = st.one_of(
    st.just(["+", ["pt"], ["pt"]]),
    st.just(two_64),
    exponents.map(lambda k: ["^", two_64, k]),
)

group_atoms = st.one_of(ranks.map(lambda m: ["GL", m]), dims.map(lambda k: ["T", k]))
groups = st.one_of(
    group_atoms, st.lists(group_atoms, min_size=2, max_size=3).map(lambda fs: ["x"] + fs)
)

atoms = st.one_of(
    st.just(["pt"]),
    st.just(["Gm"]),
    dims.map(lambda n: ["A", n]),
    dims.map(lambda n: ["P", n]),
    ranks.map(lambda m: ["GL", m]),
    ranks.map(lambda m: ["BGL", m]),
    constants,
)

# quotients by large tori and GL(m) put factors of high multiplicity into
# the denominators, where sums of them cost the most
leaves = st.one_of(atoms, st.tuples(atoms, groups).map(lambda tg: ["/", tg[0], tg[1]]))


def extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ["+"] + ts),
        st.tuples(children, children).map(lambda ab: ["-", ab[0], ab[1]]),
        st.lists(children, min_size=2, max_size=3).map(lambda ts: ["*"] + ts),
        st.tuples(children, exponents).map(lambda tk: ["^", tk[0], tk[1]]),
        st.tuples(children, groups).map(lambda tg: ["/", tg[0], tg[1]]),
    )


trees = st.recursive(leaves, extend, max_leaves=8)


# ---------------------------------------------------------------------------
# text in the README grammar


def group_text(draw, g):
    if g[0] == "GL":
        return "GL(%d)" % g[1]
    if g[0] == "T":
        return "Gm" if g[1] == 1 and draw(st.booleans()) else "Gm^%d" % g[1]
    return "(%s)" % " * ".join(group_text(draw, f) for f in g[1:])


def group_atom_text(draw, g):
    text = group_text(draw, g)
    return "(%s)" % text if g[0] == "T" and "^" in text else text


def text(draw, t):
    """Text of t: every compound operand in parentheses, quotients in either
    form, and sometimes a run of redundant parentheses near NEST_MAX."""
    kind = t[0]
    if kind in ("pt", "Gm"):
        out = kind
    elif kind in ("A", "P"):
        out = "%s^%d" % (kind, t[1])
    elif kind == "GL":
        out = "GL(%d)" % t[1]
    elif kind == "BGL":
        out = "B%sGL(%d)" % (draw(st.sampled_from(("", " "))), t[1])
    elif kind == "/":
        if draw(st.booleans()):
            out = "[%s / %s]" % (operand(draw, t[1]), group_text(draw, t[2]))
        else:
            out = "(%s) / %s" % (text(draw, t[1]), group_atom_text(draw, t[2]))
    elif kind == "^":
        out = "%s^%d" % (operand(draw, t[1], power=True), t[2])
    elif kind == "-":
        out = "%s - %s" % (operand(draw, t[1]), operand(draw, t[2]))
    else:
        sep = draw(st.sampled_from((" %s " % kind, kind)))
        out = sep.join(operand(draw, s) for s in t[1:])
    depth = draw(st.sampled_from((0,) * 24 + (1, NEST_MAX - 1, NEST_MAX, NEST_MAX + 1)))
    return "(" * depth + out + ")" * depth


def operand(draw, t, power=False):
    inner = text(draw, t)
    simple = t[0] in ("pt", "Gm", "GL", "BGL") or (t[0] in ("A", "P") and not power)
    return inner if simple and not inner.startswith("(") else "(%s)" % inner


@st.composite
def expressions(draw):
    tree = draw(trees)
    return tree, text(draw, tree)


@st.composite
def mutants(draw):
    """A drawn string with one character deleted, doubled or inserted, some
    of the inserted ones multi-byte in UTF-8."""
    s = draw(expressions())[1]
    i = draw(st.integers(0, len(s)))
    how = draw(st.sampled_from(("delete", "duplicate", "insert")))
    if how == "delete":
        return s[:i] + s[i + 1 :]
    if how == "duplicate":
        return s[:i] + s[i : i + 1] * 2 + s[i + 1 :]
    return s[:i] + draw(st.sampled_from(list("^*+-/()[]0 9AGPBlmé٣²"))) + s[i:]


# ---------------------------------------------------------------------------
# the contract


def run_eval(capsys, s, at_one):
    # after "--" a string that starts with "-" is the expression, not an option
    argv = ["eval", "--json"] + (["--at-one"] if at_one else []) + ["--", s]
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert elapsed < BUDGET_S, "%r took %.2f s" % (s, elapsed)
    assert code in (0, 1, 2) and err == "", (s, code, err)
    data = json.loads(out)
    if code:
        assert set(data) == {"error"} and {"type", "message"} <= set(data["error"]), s
        assert (code == 1) == (data["error"]["type"] == "PoleAtOne"), s
        return None
    ast = parse(s)
    assert parse(render(ast)) == ast, s
    assert canonical_str(RatFunc.from_json(data["class"])) == data["text"], s
    if at_one:
        assert Fraction(data["at_one"]) == json_value(data["class"], Fraction(1)), s
    return data["class"]


# found by this strategy: the degree and height bounds of x^0 are those of 1,
# while its base has degree over 16,000
FOUND_ZEROTH_POWER = ["^", ["*",
    ["/", ["^", ["GL", 16], 63], ["GL", 1]],
    ["^", ["GL", 3], 4],
    ["+", ["+", ["^", two_64, 32], ["BGL", 2]], ["^", ["GL", 16], 63], ["+", ["pt"], ["Gm"]]],
], 0]  # fmt: skip
FOUND_ZEROTH_POWER_TEXT = (
    "(((GL(16)^63) / GL(1)) * (GL(3)^4) * (((((pt + pt)^64)^32) + BGL(2))+(GL(16)^63)+(pt + Gm)))^0"
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expressions(), st.booleans())
@example((["^", ["^", two_64, 64], 4], "(((pt+pt)^64)^64)^4"), False)
@example((FOUND_ZEROTH_POWER, FOUND_ZEROTH_POWER_TEXT), False)
def test_eval_contract_on_drawn_expressions(capsys, drawn, at_one):
    tree, s = drawn
    obj = run_eval(capsys, s, at_one)
    if obj is not None:
        for x in (Fraction(2), Fraction(3)):
            assert json_value(obj, x) == tree_value(tree, x), (s, x)


# found by this strategy: "-pt" is an option to argparse unless it follows
# "--"; and in this sum the numerator's cofactor is about 2^1987 wide while
# the gcd point starts at 2^16, chosen from the denominator
FOUND_LOPSIDED_SUM = "(((((pt+pt)^64)^1)^31) - ((BGL(1)) / GL(3))) + (B GL(16)^1) + B GL(15)"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutants(), st.booleans())
@example("-pt", False)
@example(FOUND_LOPSIDED_SUM, False)
def test_eval_contract_on_mutated_expressions(capsys, s, at_one):
    run_eval(capsys, s, at_one)
