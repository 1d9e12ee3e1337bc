import itertools
import random
import time

import pytest

from motivic.errors import ExprSyntaxError, GuardError
from motivic.expr import (
    Affine,
    BStack,
    Diff,
    GLClass,
    Gm,
    Point,
    Power,
    Product,
    Projective,
    Quotient,
    Sum,
    _bounds,
    eval_class,
    parse,
    render,
)
from motivic.groups import GeneralLinear, product, torus
from motivic.guards import DEGREE_MAX, HEIGHT_MAX, NEST_MAX
from motivic.ratfield import ELL, ONE, RatFunc

L = ELL


def test_parse_examples():
    assert parse("GL(2)") == GLClass(2)
    assert parse("[pt / GL(2)]") == Quotient(Point(), GeneralLinear(2))
    assert parse("P^2 * Gm - A^1") == Diff(
        Product((Projective(2), Gm())), Affine(1)
    )


def test_parse_whitespace_insensitive():
    assert parse("[pt/GL(2)]") == parse("[ pt / GL( 2 ) ]")
    assert parse("BGL(3)") == parse("B GL(3)") == BStack(GeneralLinear(3))


def test_parse_division_sugar():
    assert parse("GL(2) / (Gm^2)") == Quotient(GLClass(2), torus(2))
    assert parse("GL(2)/Gm/Gm") == Quotient(Quotient(GLClass(2), torus(1)), torus(1))
    # inside brackets the closing slash belongs to the bracket
    assert parse("[A^1 - pt / Gm]") == Quotient(Diff(Affine(1), Point()), torus(1))
    # parentheses restore the sugar
    assert parse("[(pt/Gm) * A^1 / Gm]") == Quotient(
        Product((Quotient(Point(), torus(1)), Affine(1))), torus(1)
    )


def test_parse_group_products():
    assert parse("[pt / GL(2) * Gm]") == Quotient(
        Point(), product(GeneralLinear(2), torus(1))
    )
    assert parse("[pt / (GL(1) * GL(2))]") == Quotient(
        Point(), product(GeneralLinear(1), GeneralLinear(2))
    )


def test_parse_powers():
    assert parse("Gm^3") == Power(Gm(), 3)
    assert parse("A^2^3") == Power(Affine(2), 3)
    assert parse("(P^1)^2") == Power(Projective(1), 2)


def syntax_error_position(text):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    return err.value.position


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("GL(2", 4),
        ("A2", 1),
        ("pt pt", 3),
        ("[pt Gm]", 4),
        ("(Gm", 3),
        ("Gm @", 3),
        ("GL(x)", 3),
        ("[pt / ]", 6),
        ("Gm + ", 5),
        ("Gm * * Gm", 5),
        ("[pt / Gm", 8),
        ("A^\u0663 +", 6),
        ("[(pt/Gm)]", 8),
        ("[[pt / Gm]]", 10),
    ],
)
def test_syntax_error_offsets(text, position):
    assert syntax_error_position(text) == position


def test_syntax_error_expected_set():
    # the README grammar's bracket is "[" expr "/" group "]", so a quotient
    # alone in brackets lacks its "/" as much as a point does
    for text in ("[pt Gm]", "[(pt/Gm)]", "[[pt / Gm]]"):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.expected == ("/",)


def test_guard_errors():
    with pytest.raises(GuardError):
        parse("A^100")
    with pytest.raises(GuardError):
        parse("GL(0)")
    with pytest.raises(GuardError):
        parse("GL(99)")
    with pytest.raises(GuardError):
        parse("Gm^200")


def test_nodes_refuse_what_the_grammar_cannot_build():
    # the node classes are public, so they refuse by themselves what the
    # parser's guards refuse; eval_class and render may trust any node
    refused = [
        (ValueError, lambda: Affine(-2)),
        (ValueError, lambda: Projective(-3)),
        (ValueError, lambda: Power(Affine(1), -2)),
        (ValueError, lambda: GLClass(0)),
        (ValueError, lambda: Sum(())),
        (ValueError, lambda: Sum((Point(),))),
        (ValueError, lambda: Product(())),
        (ValueError, lambda: Quotient(Point(), torus(1, (2,)))),
        (ValueError, lambda: BStack(product(GeneralLinear(2), torus(1, (2,))))),
        # B takes one GL(m): "BGL(2) * Gm" parses to another tree, "BGm" not at all
        (ValueError, lambda: BStack(product(GeneralLinear(2), torus(1)))),
        (ValueError, lambda: BStack(torus(1))),
        (TypeError, lambda: Affine(1.5)),
        (TypeError, lambda: Projective("2")),
        (TypeError, lambda: Power(Gm(), 2.0)),
        (TypeError, lambda: GLClass(None)),
    ]
    for error, build in refused:
        with pytest.raises(error):
            build()
    # the split torus of rank 0 is no finite group, and its text parses back
    node = Quotient(Point(), torus(0))
    assert parse(render(node)) == node
    assert eval_class(node) == ONE


def test_eval_examples():
    assert eval_class(parse("GL(2) / (Gm^2)")) == L * (L + 1)
    assert eval_class(parse("P^2")) == L * L + L + 1
    assert eval_class(parse("[pt / GL(1)]")) == ONE / (L - 1)
    assert eval_class(parse("BGL(1)")) == ONE / (L - 1)
    assert eval_class(parse("A^0")) == ONE
    assert eval_class(parse("P^0")) == ONE
    assert eval_class(parse("pt + pt + pt")) == RatFunc(3)
    assert eval_class(parse("Gm^2")) == (L - 1) ** 2


def test_eval_projective_cell_sum():
    # P^n is covered by affine cells of every dimension up to n
    for n in range(6):
        cells = " + ".join("A^%d" % k for k in range(n + 1))
        assert eval_class(parse("P^%d" % n)) == eval_class(parse(cells))


def random_expr(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.45:
        return rng.choice(
            [
                Affine(rng.randint(0, 4)),
                Projective(rng.randint(0, 3)),
                Gm(),
                Point(),
                GLClass(rng.randint(1, 3)),
                BStack(GeneralLinear(rng.randint(1, 2))),
            ]
        )
    if roll < 0.6:
        return Sum(tuple(random_expr(rng, depth + 1) for _ in range(2)))
    if roll < 0.72:
        return Diff(random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if roll < 0.84:
        return Product(tuple(random_expr(rng, depth + 1) for _ in range(2)))
    if roll < 0.92:
        return Power(random_expr(rng, depth + 1), rng.randint(0, 3))
    return Quotient(random_expr(rng, depth + 1), GeneralLinear(rng.randint(1, 3)))


def parenthesized(e):
    """Text of e with every compound operand in parentheses."""

    def wrap(x):
        return "(%s)" % parenthesized(x)

    if isinstance(e, Sum):
        return " + ".join(wrap(item) for item in e.items)
    if isinstance(e, Product):
        return " * ".join(wrap(item) for item in e.items)
    if isinstance(e, Diff):
        return "%s - %s" % (wrap(e.a), wrap(e.b))
    if isinstance(e, Power):
        return "%s^%d" % (wrap(e.base), e.k)
    if isinstance(e, Quotient):
        return "[%s / %s]" % (parenthesized(e.expr), e.group)
    return render(e)


def test_render_round_trip_random():
    rng = random.Random(5)
    for _ in range(150):
        e = random_expr(rng)
        text = render(e)
        again = parse(text)
        assert render(again) == text
        assert eval_class(again) == eval_class(e)
        # parsed ASTs are canonical: parse(render(t)) == t, also when the
        # source text nests sums and products in redundant parentheses
        for t in (again, parse(parenthesized(e))):
            assert parse(render(t)) == t


@pytest.mark.parametrize(
    "text",
    ["A^1 + (A^2 + A^3)", "A^1 * (A^2 * A^3)", "A^1 + (A^2 - A^3)", "(A^1 - A^2) + A^3"],
)
def test_parse_render_parse_is_parse(text):
    tree = parse(text)
    assert parse(render(tree)) == tree


def test_nested_sums_and_products_flatten():
    flat = Sum((Affine(1), Affine(2), Affine(3)))
    assert parse("A^1 + (A^2 + A^3)") == parse("(A^1 + A^2) + A^3") == flat
    assert parse("A^1 * (A^2 * A^3)") == Product((Affine(1), Affine(2), Affine(3)))
    # a power or quotient is its own node and is not spliced
    assert parse("A^1 * (A^2 * A^3)^2") == Product(
        (Affine(1), Power(Product((Affine(2), Affine(3))), 2))
    )
    assert parse("A^1 + (A^2 - A^3)") == Sum((Affine(1), Diff(Affine(2), Affine(3))))


def test_nesting_guard():
    assert eval_class(parse("(" * NEST_MAX + "pt" + ")" * NEST_MAX)) == ONE
    with pytest.raises(GuardError):
        parse("(" * (NEST_MAX + 1) + "pt" + ")" * (NEST_MAX + 1))
    with pytest.raises(GuardError):
        parse("[" * (NEST_MAX + 1) + "pt" + " / Gm]" * (NEST_MAX + 1))
    with pytest.raises(GuardError):
        parse("[pt / " + "(" * (NEST_MAX + 1) + "Gm" + ")" * (NEST_MAX + 1) + "]")
    # sibling groups do not add up
    assert parse(" + ".join(["(pt)"] * (2 * NEST_MAX))) == Sum((Point(),) * (2 * NEST_MAX))


def test_degree_guard():
    t0 = time.perf_counter()
    for text in (
        "(GL(16))^16",
        "(GL(16))^64",
        "[pt/GL(16)] + [pt/GL(15)] + [pt/GL(13)] + [pt/GL(11)]",
        "(A^64)^12 * Gm",
        "[pt / Gm^64]^13",
    ):
        with pytest.raises(GuardError, match="predicted degree"):
            eval_class(parse(text))
    assert time.perf_counter() - t0 < 0.5
    # exactly at the bound: degree 12 * 64 = DEGREE_MAX is still evaluated
    assert DEGREE_MAX == 768
    assert eval_class(parse("(A^64)^12")) == L**768


def test_degree_bounds_hold():
    # the predicted bounds are upper bounds for the reduced class
    rng = random.Random(11)
    exprs = [random_expr(rng) for _ in range(200)]
    exprs += [parse("[A^3 / Gm^2] - BGL(2) * Gm"), parse("[P^2 / GL(2) * Gm]^2")]
    for e in exprs:
        n, d = _bounds(e)
        value = eval_class(e)
        assert value.num.degree <= n and value.den.degree <= d, render(e)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _group_poly(g):
    if isinstance(g, GeneralLinear):
        out = [0] * (g.m * (g.m - 1) // 2) + [1]
        for k in range(1, g.m + 1):
            out = _times(out, [-1] + [0] * (k - 1) + [1])
        return out
    out = [1]
    for _ in range(g.cls.torus_rank):
        out = _times(out, [-1, 1])
    return out


def unreduced(e):
    """Integer numerator and denominator lists of e, never reduced."""
    if isinstance(e, Affine):
        return [0] * e.n + [1], [1]
    if isinstance(e, Projective):
        return [1] * (e.n + 1), [1]
    if isinstance(e, Gm):
        return [-1, 1], [1]
    if isinstance(e, Point):
        return [1], [1]
    if isinstance(e, GLClass):
        return _group_poly(GeneralLinear(e.m)), [1]
    if isinstance(e, Quotient):
        n, d = unreduced(e.expr)
        return n, _times(d, _group_poly(e.group))
    if isinstance(e, BStack):
        return [1], _group_poly(e.group)
    if isinstance(e, (Product, Power)):
        n, d = [1], [1]
        for item in e.items if isinstance(e, Product) else (e.base,) * e.k:
            n2, d2 = unreduced(item)
            n, d = _times(n, n2), _times(d, d2)
        return n, d
    terms = [unreduced(item) for item in (e.items if isinstance(e, Sum) else (e.a, e.b))]
    if isinstance(e, Diff):
        terms[1] = ([-c for c in terms[1][0]], terms[1][1])
    n, d = terms[0]
    for n2, d2 in terms[1:]:
        a, b = _times(n, d2), _times(n2, d)
        n, d = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)], _times(d, d2)
    return n, d


def test_height_bounds_hold():
    # the predicted heights bound the L1 norms of the unreduced integer
    # numerator and denominator, built here by schoolbook products
    rng = random.Random(12)
    exprs = [random_expr(rng) for _ in range(200)]
    exprs += [parse(t) for t in ("(pt + pt + pt)^5 - (Gm)^3 * [P^4 / GL(3)]", "BGL(3) + [pt/Gm^4]")]
    for e in exprs:
        n, d = _bounds(e, height=True)
        num, den = unreduced(e)
        assert sum(map(abs, num)) <= 2**n and sum(map(abs, den)) <= 2**d, render(e)
        assert RatFunc(num, den) == eval_class(e), render(e)


def test_height_guard():
    t0 = time.perf_counter()
    for text in ("((pt+pt)^64)^33", "(((pt+pt)^64)^64)^4", "GL(16)^3 * ((pt+pt)^64)^31 * (pt+pt)^17"):
        with pytest.raises(GuardError, match="predicted height"):
            eval_class(parse(text))
    assert time.perf_counter() - t0 < 0.5
    assert eval_class(parse("((pt+pt)^64)^32")) == 2**HEIGHT_MAX


def test_zeroth_power_does_not_evaluate_its_base():
    # the bounds of x^0 are those of 1, so x may be far past both guards
    t0 = time.perf_counter()
    assert eval_class(parse("(GL(16)^63 * ((pt+pt)^64)^64)^0")) == ONE
    assert eval_class(parse("[(GL(16)^63)^0 / Gm]")) == ONE / (L - 1)
    assert time.perf_counter() - t0 < 0.5


def test_eval_ring_morphism_on_nodes():
    rng = random.Random(9)
    for _ in range(60):
        a = random_expr(rng)
        b = random_expr(rng)
        assert eval_class(Sum((a, b))) == eval_class(a) + eval_class(b)
        assert eval_class(Diff(a, b)) == eval_class(a) - eval_class(b)
        assert eval_class(Product((a, b))) == eval_class(a) * eval_class(b)
        k = rng.randint(0, 3)
        assert eval_class(Power(a, k)) == eval_class(a) ** k
