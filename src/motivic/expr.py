"""Small expression language for motivic classes.

Grammar (whitespace-insensitive, byte offsets reported on error):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor | '/' gatom)*
    factor := atom ('^' nat)?
    atom   := 'A^'nat | 'Gm' | 'P^'nat | 'GL('nat')' | 'pt'
            | 'B' 'GL('nat')' | '[' expr '/' group ']' | '(' expr ')'
    group  := gatom ('*' gatom)*
    gatom  := 'GL('nat')' | 'Gm' ('^' nat)? | '(' group ')'

The slash binds a class to a group and produces a quotient node, the same
node the bracket form builds.  Directly inside brackets the slash is
reserved for the closing '/ group', so the bracket split is unambiguous;
parentheses restore the sugar.  Differences are formal ring arithmetic:
no containment of classes is checked or checkable here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExprSyntaxError, GuardError
from .groups import GeneralLinear, GroupDesc, Torus, product, torus, upsilon_group
from .groups import Product as GroupProduct
from .ratfield import Polynomial, RatFunc

__all__ = [
    "parse",
    "eval_class",
    "render",
    "Affine",
    "Gm",
    "Projective",
    "GLClass",
    "Point",
    "Product",
    "Power",
    "Sum",
    "Diff",
    "Quotient",
    "BStack",
]

DIM_MAX = 64  # exponents and dimensions in expressions
GL_MAX = 16
NEST_MAX = 100  # open brackets and parentheses; keeps recursion far from the stack limit
DEGREE_MAX = 768  # predicted result degree; keeps one evaluation within seconds


class ClassExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Affine(ClassExpr):
    n: int


@dataclass(frozen=True)
class Gm(ClassExpr):
    pass


@dataclass(frozen=True)
class Projective(ClassExpr):
    n: int


@dataclass(frozen=True)
class GLClass(ClassExpr):
    m: int


@dataclass(frozen=True)
class Point(ClassExpr):
    pass


@dataclass(frozen=True)
class Product(ClassExpr):
    items: tuple


@dataclass(frozen=True)
class Power(ClassExpr):
    base: ClassExpr
    k: int


@dataclass(frozen=True)
class Sum(ClassExpr):
    items: tuple


@dataclass(frozen=True)
class Diff(ClassExpr):
    a: ClassExpr
    b: ClassExpr


@dataclass(frozen=True)
class Quotient(ClassExpr):
    expr: ClassExpr
    group: GroupDesc


@dataclass(frozen=True)
class BStack(ClassExpr):
    group: GroupDesc


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = "^*+-/()[]"
_KEYWORDS = ("pt", "Gm", "GL", "A", "P", "B")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            # ASCII digit text without leading zeros, not an int: int() of
            # the whole literal refuses past 4300 digits
            digits = "".join(str(int(d)) for d in text[i:j]).lstrip("0") or "0"
            tokens.append(("nat", digits, i))
            i = j
            continue
        for kw in _KEYWORDS:
            if text.startswith(kw, i):
                tokens.append((kw, kw, i))
                i += len(kw)
                break
        else:
            raise ExprSyntaxError(i, _ATOM_STARTS | {"number", "operator"}, text[i])
    tokens.append(("eof", None, n))
    return tokens


_ATOM_STARTS = {"A", "Gm", "P", "GL", "pt", "B", "(", "["}
_GROUP_STARTS = {"GL", "Gm", "("}


def _joined(cls, a, b):
    """The n-ary node cls(a, b), splicing in the items of operands that are
    already cls nodes, so each expression has one AST."""
    items = ()
    for e in (a, b):
        items += e.items if isinstance(e, cls) else (e,)
    return cls(items)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        if tok[0] in ("(", "["):
            self.depth += 1
            if self.depth > NEST_MAX:
                raise GuardError("nesting depth exceeds the supported bound %d" % NEST_MAX)
        elif tok[0] in (")", "]"):
            self.depth -= 1
        return tok

    def fail(self, expected):
        kind, value, pos = self.peek()
        found = None if kind == "eof" else str(value)
        raise ExprSyntaxError(pos, expected, found)

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.fail({kind})
        return self.next()

    def nat(self, maximum, what):
        if self.peek()[0] != "nat":
            self.fail({"number"})
        kind, digits, pos = self.next()
        if len(digits) > len(str(maximum)) or int(digits) > maximum:
            raise GuardError("%s %s exceeds the supported bound %d" % (what, digits, maximum))
        return int(digits)

    # -- grammar

    def expr(self, allow_div=True):
        node = self.term(allow_div)
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term(allow_div)
            if op == "+":
                node = _joined(Sum, node, rhs)
            else:
                node = Diff(node, rhs)
        return node

    def term(self, allow_div=True):
        node = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.next()
                node = _joined(Product, node, self.factor())
            elif kind == "/" and allow_div:
                self.next()
                node = Quotient(node, self.group_atom())
            else:
                return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.next()
            k = self.nat(DIM_MAX, "exponent")
            node = Power(node, k)
        return node

    def atom(self):
        kind = self.peek()[0]
        if kind == "A":
            self.next()
            self.expect("^")
            return Affine(self.nat(DIM_MAX, "affine dimension"))
        if kind == "P":
            self.next()
            self.expect("^")
            return Projective(self.nat(DIM_MAX, "projective dimension"))
        if kind == "Gm":
            self.next()
            return Gm()
        if kind == "pt":
            self.next()
            return Point()
        if kind == "GL":
            return GLClass(self._gl_rank())
        if kind == "B":
            self.next()
            if self.peek()[0] != "GL":
                self.fail({"GL"})
            return BStack(GeneralLinear(self._gl_rank()))
        if kind == "(":
            self.next()
            node = self.expr(allow_div=True)
            self.expect(")")
            return node
        if kind == "[":
            self.next()
            node = self.expr(allow_div=False)
            if self.peek()[0] == "]" and isinstance(node, Quotient):
                self.next()
                return node
            self.expect("/")
            grp = self.group()
            self.expect("]")
            return Quotient(node, grp)
        self.fail(_ATOM_STARTS)

    def _gl_rank(self):
        self.expect("GL")
        self.expect("(")
        m = self.nat(GL_MAX, "GL rank")
        if m < 1:
            raise GuardError("GL rank must be at least 1")
        self.expect(")")
        return m

    def group(self):
        factors = [self.group_atom()]
        while self.peek()[0] == "*":
            self.next()
            factors.append(self.group_atom())
        return product(*factors)

    def group_atom(self):
        kind = self.peek()[0]
        if kind == "GL":
            return GeneralLinear(self._gl_rank())
        if kind == "Gm":
            self.next()
            if self.peek()[0] == "^":
                self.next()
                return torus(self.nat(DIM_MAX, "torus rank"))
            return torus(1)
        if kind == "(":
            self.next()
            grp = self.group()
            self.expect(")")
            return grp
        self.fail(_GROUP_STARTS)


def parse(text):
    """Parse an expression; errors carry the byte offset and expected set."""
    p = _Parser(text)
    node = p.expr(allow_div=True)
    if p.peek()[0] != "eof":
        p.fail({"operator", "end of input"})
    return node


# ---------------------------------------------------------------------------
# evaluation


def _group_degree(g):
    """Degree in l of the class of g: its dimension."""
    if isinstance(g, GeneralLinear):
        return g.m * g.m
    if isinstance(g, Torus):
        return g.cls.torus_rank
    return sum(_group_degree(f) for f in g.factors)


def _degree_bounds(e):
    """Bounds (n, d) on the numerator and denominator degrees of the class
    of e, read off the AST without any arithmetic."""
    if isinstance(e, (Affine, Projective)):
        return e.n, 0
    if isinstance(e, Gm):
        return 1, 0
    if isinstance(e, Point):
        return 0, 0
    if isinstance(e, GLClass):
        return e.m * e.m, 0
    if isinstance(e, Product):
        bounds = [_degree_bounds(item) for item in e.items]
        return sum(n for n, _ in bounds), sum(d for _, d in bounds)
    if isinstance(e, Power):
        n, d = _degree_bounds(e.base)
        return n * e.k, d * e.k
    if isinstance(e, (Sum, Diff)):
        # over the common denominator each numerator gains the other degrees
        items = e.items if isinstance(e, Sum) else (e.a, e.b)
        bounds = [_degree_bounds(item) for item in items]
        den = sum(d for _, d in bounds)
        return max(n + den - d for n, d in bounds), den
    if isinstance(e, Quotient):
        n, d = _degree_bounds(e.expr)
        return n, d + _group_degree(e.group)
    if isinstance(e, BStack):
        return 0, _group_degree(e.group)
    raise TypeError("not a class expression: %r" % (e,))


def eval_class(e):
    """Class of the expression in Q(l); quotients divide by the group class.

    Before any arithmetic, an expression whose predicted result degree
    (the larger of its two degree bounds) exceeds DEGREE_MAX is refused
    with GuardError.
    """
    degree = max(_degree_bounds(e))
    if degree > DEGREE_MAX:
        raise GuardError(
            "predicted degree %d exceeds the supported bound %d" % (degree, DEGREE_MAX)
        )
    return _eval(e)


def _eval(e):
    if isinstance(e, Affine):
        return RatFunc(Polynomial.monomial(e.n))
    if isinstance(e, Gm):
        return RatFunc.ell() - 1
    if isinstance(e, Projective):
        # the cell decomposition: 1 + l + ... + l^n
        return RatFunc(Polynomial((1,) * (e.n + 1)))
    if isinstance(e, GLClass):
        return upsilon_group(GeneralLinear(e.m))
    if isinstance(e, Point):
        return RatFunc.one()
    if isinstance(e, Product):
        acc = RatFunc.one()
        for item in e.items:
            acc = acc * _eval(item)
        return acc
    if isinstance(e, Power):
        return _eval(e.base) ** e.k
    if isinstance(e, Sum):
        acc = RatFunc.zero()
        for item in e.items:
            acc = acc + _eval(item)
        return acc
    if isinstance(e, Diff):
        return _eval(e.a) - _eval(e.b)
    if isinstance(e, Quotient):
        return _eval(e.expr) / upsilon_group(e.group)
    if isinstance(e, BStack):
        return RatFunc.one() / upsilon_group(e.group)
    raise TypeError("not a class expression: %r" % (e,))


# ---------------------------------------------------------------------------
# rendering

_PREC_SUM = 1
_PREC_PRODUCT = 2
_PREC_POWER = 3
_PREC_ATOM = 4


def _prec(e):
    if isinstance(e, (Sum, Diff)):
        return _PREC_SUM
    if isinstance(e, Product):
        return _PREC_PRODUCT
    if isinstance(e, Power):
        return _PREC_POWER
    return _PREC_ATOM


def render_group(g):
    if isinstance(g, GeneralLinear):
        return "GL(%d)" % g.m
    if isinstance(g, Torus):
        k = g.cls.torus_rank
        return "Gm" if k == 1 else "Gm^%d" % k
    if isinstance(g, GroupProduct):
        return " * ".join(render_group(f) for f in g.factors)
    raise TypeError("cannot render group %r" % (g,))


def render(e):
    """Canonical text for an expression; parse(render(parse(s))) == parse(s)."""
    if isinstance(e, Affine):
        return "A^%d" % e.n
    if isinstance(e, Gm):
        return "Gm"
    if isinstance(e, Projective):
        return "P^%d" % e.n
    if isinstance(e, GLClass):
        return "GL(%d)" % e.m
    if isinstance(e, Point):
        return "pt"
    if isinstance(e, BStack):
        return "B" + render_group(e.group)
    if isinstance(e, Quotient):
        return "[%s / %s]" % (render(e.expr), render_group(e.group))
    if isinstance(e, Power):
        base = render(e.base)
        if _prec(e.base) < _PREC_ATOM or isinstance(e.base, (Affine, Projective)):
            base = "(%s)" % base
        return "%s^%d" % (base, e.k)
    if isinstance(e, Product):
        parts = []
        for item in e.items:
            s = render(item)
            if _prec(item) < _PREC_PRODUCT:
                s = "(%s)" % s
            parts.append(s)
        return " * ".join(parts)
    if isinstance(e, Sum):
        parts = [render(e.items[0])]
        for item in e.items[1:]:
            s = render(item)
            if isinstance(item, Diff):
                s = "(%s)" % s
            parts.append(s)
        return " + ".join(parts)
    if isinstance(e, Diff):
        left = render(e.a)
        right = render(e.b)
        if _prec(e.b) <= _PREC_SUM:
            right = "(%s)" % right
        return "%s - %s" % (left, right)
    raise TypeError("not a class expression: %r" % (e,))
