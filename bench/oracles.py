"""Independent checks of library results.  Nothing here imports the library.

* Class expressions: the generating tree is evaluated with Fractions at a
  few points of l and compared with the returned num/den coefficients and
  with the returned canonical text, which is evaluated by its own small
  parser.
* Lattices: a separate row Hermite normal form gives lattice sums
  (subgroup intersections) and containment, so closure under intersection,
  sampled incidence and the Mobius defining identity are checked against
  it.  Partition lattices are checked against the product formula
  mu = prod (-1)^(k-1) (k-1)! over the blocks.
* Fixed commands and coefficient tables: byte comparison with goldens
  frozen at the seed commit (see make_goldens.py).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial

POINTS = (Fraction(2), Fraction(3), Fraction(1, 2))


class Mismatch(Exception):
    """A result disagrees with its oracle."""


def require(cond, message):
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# classes in Q(l)


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
    if g[0] == "x":
        acc = Fraction(1)
        for f in g[1:]:
            acc *= group_class(f, x)
        return acc
    raise ValueError("unknown group %r" % (g[0],))


def tree_value(t, x):
    """Value of an expression tree (workloads.py format) at l = x."""
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
    if kind == "-":
        return tree_value(t[1], x) - tree_value(t[2], x)
    raise ValueError("unknown node %r" % (kind,))


def poly_value(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def json_value(obj, x):
    """Value at l = x of a {"num": [...], "den": [...]} coefficient object."""
    return poly_value(obj["num"], x) / poly_value(obj["den"], x)


_TOKEN = re.compile(r"\s*(?:(\d+)|(l)|(.))")


def text_value(text, x):
    """Value at l = x of canonical text such as (l^2 - 3)/(2*l^4 + l)."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        num, var, sym = m.groups()
        tokens.append(int(num) if num is not None else ("l" if var else sym))
        pos = m.end()
    tokens.append(None)
    i = 0

    def peek():
        return tokens[i]

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            require(take() == ")", "unbalanced parenthesis in %r" % text)
            return v
        if tok == "l":
            v = x
        elif isinstance(tok, int):
            v = Fraction(tok)
        elif tok == "-":
            return -factor()
        else:
            raise Mismatch("unexpected token %r in %r" % (tok, text))
        if peek() == "^":
            take()
            e = take()
            require(isinstance(e, int), "bad exponent in %r" % text)
            v = v**e
        return v

    def factor():
        v = atom()
        while peek() in ("*", "/"):
            if take() == "*":
                v *= atom()
            else:
                v /= atom()
        return v

    def expr():
        v = factor()
        while peek() in ("+", "-"):
            if take() == "+":
                v += factor()
            else:
                v -= factor()
        return v

    v = expr()
    require(peek() is None, "trailing text in %r" % text)
    return v


def check_class(tree, obj, text):
    """A computed class (JSON coefficients and canonical text) equals the
    tree's value at every sample point."""
    require(obj["den"] and Fraction(obj["den"][-1]) == 1, "denominator is not monic")
    for x in POINTS:
        want = tree_value(tree, x)
        require(json_value(obj, x) == want, "num/den differ from the oracle at l = %s" % x)
        require(text_value(text, x) == want, "canonical text differs from the oracle at l = %s" % x)


# ---------------------------------------------------------------------------
# integer lattices


def hnf(rows):
    """Row Hermite normal form: positive pivots, entries above a pivot in
    [0, pivot), zero rows dropped.  Column-by-column extended gcd."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return ()
    ncols = len(a[0])
    out = []
    for c in range(ncols):
        pivot = None
        rest = []
        for row in a:
            if row[c] == 0:
                rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                # replace (pivot, row) by (g-row, 0-row) with Bezout
                g, s, t = _xgcd(pivot[c], row[c])
                p, q = pivot[c] // g, row[c] // g
                new_pivot = [s * u + t * v for u, v in zip(pivot, row)]
                reduced = [p * v - q * u for u, v in zip(pivot, row)]
                pivot = new_pivot
                if any(reduced):
                    rest.append(reduced)
        if pivot is None:
            continue
        if pivot[c] < 0:
            pivot = [-v for v in pivot]
        for k, prev in enumerate(out):
            qk = prev[c] // pivot[c]
            if qk:
                out[k] = [u - qk * v for u, v in zip(prev, pivot)]
        out.append(pivot)
        a = rest
    return tuple(tuple(r) for r in out)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def meet(lat_a, lat_b):
    """Character lattice of the intersection of two subgroups."""
    return hnf(tuple(lat_a) + tuple(lat_b))


def subgroup_leq(lat_a, lat_b):
    """Subgroup a inside subgroup b: L(b) is a sublattice of L(a)."""
    return hnf(tuple(lat_a) + tuple(lat_b)) == tuple(map(tuple, lat_a))


def check_mobius_identity(n, leq, mobius, a, b):
    """sum over a <= c <= b of mu(a, c) is 1 for a == b and 0 otherwise.
    leq(i, j) and mobius(i, j) answer by element index, 0 <= c < n."""
    total = sum(mobius(a, c) for c in range(n) if leq(a, c) and leq(c, b))
    require(total == (1 if a == b else 0), "Mobius identity fails on [%d, %d]" % (a, b))


def check_poset(elements, leq, mobius, rng, seeds=(), n_pairs=150, n_intervals=12):
    """Closure, sampled incidence and the Mobius identity for a poset given
    by its element lattices (tuples of rows) and index queries."""
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    require(len(index) == n, "duplicate poset elements")
    for s in seeds:
        require(hnf(s) in index, "seed subgroup missing from the closure")
    for _ in range(n_pairs):
        i, j = rng.randrange(n), rng.randrange(n)
        require(meet(elements[i], elements[j]) in index, "not closed under intersection")
        require(bool(leq(i, j)) == subgroup_leq(elements[i], elements[j]), "wrong incidence")
    for _ in range(n_intervals):
        a, b = rng.randrange(n), rng.randrange(n)
        if not leq(a, b):
            b = index[()]  # the full torus is above everything
        check_mobius_identity(n, leq, mobius, a, b)


# ---------------------------------------------------------------------------
# partition lattices


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def block_torus_rows(blocks, m):
    rows = []
    for b in blocks:
        for i in b[1:]:
            row = [0] * m
            row[b[0] - 1] = 1
            row[i - 1] = -1
            rows.append(row)
    return hnf(rows)


def partition_mobius(coarse, fine):
    """mu(T_coarse, T_fine) for block tori, or None when not nested.

    T_coarse is inside T_fine exactly when every block of `fine` lies in a
    block of `coarse`; the interval is then a product of partition
    lattices, one per block of `coarse`."""
    owner = {}
    for k, b in enumerate(coarse):
        for i in b:
            owner[i] = k
    pieces = [0] * len(coarse)
    for b in fine:
        ks = {owner[i] for i in b}
        if len(ks) != 1:
            return None
        pieces[ks.pop()] += 1
    mu = 1
    for k in pieces:
        mu *= (-1) ** (k - 1) * factorial(k - 1)
    return mu


def check_partition_lattice(m, partitions, elements, leq, mobius, rng, n_pairs=200):
    """Size, labels, incidence and Mobius values of the block-torus lattice
    of GL(m), against the partition formulas."""
    require(len(partitions) == bell(m), "partition lattice of %d has wrong size" % m)
    n = len(partitions)
    for _ in range(n_pairs // 4):
        i = rng.randrange(n)
        require(elements[i] == block_torus_rows(partitions[i], m), "element differs from its label")
    for _ in range(n_pairs):
        i, j = rng.randrange(n), rng.randrange(n)
        want = partition_mobius(partitions[i], partitions[j])
        require(bool(leq(i, j)) == (want is not None), "wrong incidence in the partition lattice")
        if want is not None:
            require(mobius(i, j) == want, "wrong Mobius value in the partition lattice")


# ---------------------------------------------------------------------------
# weights


def weight_value(weight, rank, torsion):
    """The seeded weight (workloads.py format) on the class Gm^rank x K."""
    for r, t, v in weight["overrides"]:
        if r == rank and tuple(t) == tuple(torsion):
            return Fraction(v)
    for r, v in weight["ranks"]:
        if r == rank:
            return Fraction(v)
    return Fraction(weight["default"])


def projection_value(basis, weight, x):
    """sum over classes c of weight(c) * U_c(x), with U_c from the goldens."""
    return sum(
        (weight_value(weight, rank, torsion) * json_value(obj, x) for rank, torsion, obj in basis),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# command line calls


def check_cli(op, rc, out, err, goldens):
    """Exit status and stdout of one `motivic` call from the cli workload."""
    kind = op["kind"]
    if kind == "fixed":
        want = goldens["cli"][" ".join(op["argv"])]
        require(rc == want["exit"], "exit status %d, golden %d" % (rc, want["exit"]))
        require(out == want["stdout"], "stdout differs from the golden")
    elif kind == "eval":
        require(rc == 0, "exit status %d: %s" % (rc, err.strip()[-200:]))
        if "--json" in op["argv"]:
            payload = json.loads(out)
            require(payload["input"] == op["argv"][1], "echoed input differs")
            check_class(op["tree"], payload["class"], payload["text"])
        else:
            require(out.endswith("\n") and out.count("\n") == 1, "expected one line of output")
            for x in POINTS:
                require(text_value(out, x) == tree_value(op["tree"], x), "value differs at l = %s" % x)
    elif kind == "refusal":
        require(rc == 2, "exit status %d, expected 2" % rc)
        try:
            error = json.loads(out)["error"]
        except (ValueError, KeyError, TypeError):
            raise Mismatch("no JSON error object on stdout") from None
        require(error.get("type") == op["error"], "error type %r, expected %r" % (error.get("type"), op["error"]))
        require(isinstance(error.get("message"), str) and error["message"], "empty error message")
        if op["error"] == "ExprSyntaxError":
            require(isinstance(error.get("position"), int) and error.get("expected"), "syntax error lacks position")
    else:
        raise ValueError("unknown cli op kind %r" % (kind,))
