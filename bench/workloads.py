"""Seeded operation lists for the four benchmark workloads.

Every workload is a sequence of rounds.  A round holds a fixed set of
operation slots; the seed chooses each slot's parameters and the order of
the slots.  Parameters whose cost differs a lot are dealt from shuffled
decks, so any run of whole rounds sees nearly the same mix of sizes and
the medians stay comparable across seeds.  Nothing here imports the
library: operations are plain JSON-able dicts, and the same seed always
gives the same list.

Expressions are built as trees (nested lists) and rendered to the
expression grammar here, so the oracle can evaluate the tree without the
library's parser.  Tree nodes:

    ["pt"]  ["A", n]  ["P", n]  ["Gm"]  ["GL", m]  ["BGL", m]
    ["+", t, ...]  ["-", a, b]  ["*", t, ...]  ["^", t, k]  ["/", t, group]

and groups ["GL", m] | ["T", k] (the split torus Gm^k) | ["x", g, ...].
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("cli", "field", "coeff", "lattice")
ROUNDS = 100  # generated per run; a run cycles through them if it needs more

# Check suites and the bounds the cli workload runs them at; each pair ran
# at least one instance and exited 0 when the goldens were frozen.
CHECK_SUITES = ("consistency", "eff-recursion", "mobius-crosscut", "model-pi1", "operator-algebra")
CHECK_MAX = (1, 2, 3)
EFF_TABLE_MAX = (1, 2, 3, 4, 5, 6)
ABELIANIZE_MAX = (1, 2, 3, 4, 5)

MODELS = (
    "gl2_flag_model",
    "gl3_flag_model",
    "gl3_free_model",
    "torus_weighted_line_model",
    "torus_plane_model",
)


class _Deck:
    """Deals items in shuffled passes over the whole list."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.pile = []

    def deal(self):
        if not self.pile:
            self.pile = list(self.items)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


# ---------------------------------------------------------------------------
# expression trees


def render(t):
    """Text in the expression grammar for a tree (see the module docstring)."""
    kind = t[0]
    if kind == "pt":
        return "pt"
    if kind == "A":
        return "A^%d" % t[1]
    if kind == "P":
        return "P^%d" % t[1]
    if kind == "Gm":
        return "Gm"
    if kind == "GL":
        return "GL(%d)" % t[1]
    if kind == "BGL":
        return "BGL(%d)" % t[1]
    if kind == "/":
        return "[%s / %s]" % (render(t[1]), render_group(t[2]))
    if kind == "^":
        base = render(t[1])
        if t[1][0] not in ("pt", "Gm", "GL", "BGL", "/"):
            base = "(%s)" % base
        return "%s^%d" % (base, t[2])
    if kind == "*":
        return " * ".join(
            "(%s)" % render(s) if s[0] in ("+", "-") else render(s) for s in t[1:]
        )
    if kind == "+":
        return " + ".join(render(s) for s in t[1:])
    if kind == "-":
        right = render(t[2])
        if t[2][0] in ("+", "-"):
            right = "(%s)" % right
        return "%s - %s" % (render(t[1]), right)
    raise ValueError("unknown node %r" % (kind,))


def render_group(g):
    if g[0] == "GL":
        return "GL(%d)" % g[1]
    if g[0] == "T":
        return "Gm" if g[1] == 1 else "(Gm^%d)" % g[1]
    if g[0] == "x":
        return "(%s)" % " * ".join(render_group(f) for f in g[1:])
    raise ValueError("unknown group %r" % (g[0],))


def _numerator(rng):
    """A small class to put over a group: pt, A^i, P^i or Gm^i."""
    kind = rng.choice(("pt", "A", "P", "Gm"))
    if kind == "pt":
        return ["pt"]
    i = rng.randint(1, 4)
    if kind == "Gm":
        return ["^", ["Gm"], i] if i > 1 else ["Gm"]
    return [kind, i]


# ---------------------------------------------------------------------------
# cli


def _small_expr(rng):
    """Small class expression: result degree stays below about 40."""
    shape = rng.randrange(5)
    if shape == 0:
        return ["/", _numerator(rng), ["GL", rng.randint(1, 4)]]
    if shape == 1:
        return ["+"] + [["/", _numerator(rng), ["GL", rng.randint(1, 3)]] for _ in range(2)]
    if shape == 2:
        return ["*", ["GL", rng.randint(1, 4)], ["P", rng.randint(1, 5)], ["Gm"]]
    if shape == 3:
        return ["-", ["A", rng.randint(2, 6)], ["^", ["Gm"], rng.randint(1, 4)]]
    return ["/", ["^", ["P", rng.randint(1, 3)], rng.randint(2, 3)], ["T", rng.randint(1, 3)]]


# Inputs the CLI must refuse with exit status 2 and a JSON error object;
# each entry gives a function making the argv and the expected error type.
_REFUSALS = (
    (lambda r: ["eval", "GL(%d)" % r.randint(17, 40), "--json"], "GuardError"),
    (lambda r: ["eval", "A^%d" % r.randint(65, 200), "--json"], "GuardError"),
    (lambda r: ["eval", "[pt / GL(%d)" % r.randint(1, 9), "--json"], "ExprSyntaxError"),
    (lambda r: ["eval", "P^%d +" % r.randint(1, 9), "--json"], "ExprSyntaxError"),
    (lambda r: ["eff-table", "--max", str(r.randint(8, 30)), "--json"], "TooLarge"),
    (lambda r: ["check", r.choice(CHECK_SUITES), "--max", "0", "--json"], "GuardError"),
)


def _cli_round(rng, decks):
    ops = []
    for fmt in ("text", "text", "json"):
        tree = _small_expr(rng)
        argv = ["eval", render(tree)] + (["--json"] if fmt == "json" else [])
        ops.append({"kind": "eval", "argv": argv, "tree": tree})
    ops.append({"kind": "fixed", "argv": ["eff-table", "--max", str(decks["eff"].deal())]})
    ops.append(
        {"kind": "fixed", "argv": ["eff-table", "--max", str(decks["eff_json"].deal()), "--json"]}
    )
    ops.append({"kind": "fixed", "argv": ["abelianize", str(decks["ab"].deal())]})
    ops.append({"kind": "fixed", "argv": ["euler", str(decks["euler"].deal())]})
    for fmt in ("text", "text", "json"):
        suite, bound = decks["check"].deal()
        argv = ["check", suite, "--max", str(bound)] + (["--json"] if fmt == "json" else [])
        ops.append({"kind": "fixed", "argv": argv})
    for _ in range(2):
        build, expected = decks["refusal"].deal()
        ops.append({"kind": "refusal", "argv": build(rng), "error": expected})
    rng.shuffle(ops)
    return ops


def _cli_decks(rng):
    return {
        "eff": _Deck(rng, EFF_TABLE_MAX),
        "eff_json": _Deck(rng, EFF_TABLE_MAX),
        "ab": _Deck(rng, ABELIANIZE_MAX),
        "euler": _Deck(rng, ABELIANIZE_MAX),
        "check": _Deck(rng, [(s, b) for s in CHECK_SUITES for b in CHECK_MAX]),
        "refusal": _Deck(rng, _REFUSALS),
    }


# ---------------------------------------------------------------------------
# field

# Field rounds alternate between the even and the odd entries below, so
# every two rounds are the same cost sample and rounds stay short.
# Numerator kinds follow a fixed cycle per expression (P^i over GL(m) costs
# more gcd work than A^i); the seed picks the order and exponents 1-3,
# dealt from a deck per numerator so that every exponent is used equally.
# Measured on a 2-core Xeon at the seed commit, each expression takes about
# 0.2-1.2 s; larger GL ranks in sums of quotients quickly reach the
# long-running region (GL(16) + GL(13) alone takes 3 s), so the sizes stop
# short of it.
_FIELD_SIZES = (
    ("sum2", (13, 12)), ("sum2", (12, 10)), ("sum2", (14, 13)),
    ("prodsum", (15, 14, 12)), ("prodsum", (13, 12, 11)),
    ("pow", (14, 2, 9)), ("pow", (11, 3, 8)),
    ("tri", (10, 9, 8)), ("tri", (11, 9, 8)),
    ("diff", (13, 12)), ("diff", (12, 11)),
    ("bgl", (12, 3, 10)),
)  # fmt: skip


def _field_tree(shape, size, deal):
    """Expression of one shape; deal(key, choices) gives seeded choices."""
    kinds = itertools.cycle(("A", "P", "pt"))
    count = itertools.count()

    def num():
        kind = next(kinds)
        i = deal(next(count), (1, 2, 3))
        return ["pt"] if kind == "pt" else [kind, i]

    def quot(m):
        return ["/", num(), ["GL", m]]

    if shape == "sum2":
        return ["+", quot(size[0]), quot(size[1])]
    if shape == "prodsum":
        a, b, c = size
        return ["+", ["*", ["/", ["pt"], ["GL", a]], ["/", ["pt"], ["GL", b]]], quot(c)]
    if shape == "pow":
        a, k, b = size
        return ["*", ["^", ["GL", a], k], ["/", ["P", deal("p", (4, 6, 8))], ["GL", b]]]
    if shape == "tri":
        return ["+"] + [quot(m) for m in size]
    if shape == "diff":
        torus = ["T", deal("t", (1, 2))]
        return ["-", quot(size[0]), ["/", num(), ["x", ["GL", size[1]], torus]]]
    a, k, b = size
    return ["+", ["*", ["BGL", a], ["^", ["Gm"], k]], quot(b)]


def _field_round(rng, decks, half):
    """Six expressions: the even or the odd entries of _FIELD_SIZES."""
    ops = []
    for slot in range(half, len(_FIELD_SIZES), 2):
        shape, size = _FIELD_SIZES[slot]

        def deal(key, choices, slot=slot):
            deck = decks.setdefault((slot, key), _Deck(rng, choices))
            return deck.deal()

        t = _field_tree(shape, size, deal)
        ops.append({"kind": "field", "expr": render(t), "tree": t})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# coeff


def _fraction(rng):
    return "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 9))


def _weight(rng):
    """Seeded weight: a few per-class overrides (classes given as rank and
    torsion), per-rank weights and a default, all small rationals."""
    overrides = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(0, 3), rng.choice(((), (), (2,), (3,))))
        overrides[key] = _fraction(rng)
    overrides = [[r, list(t), v] for (r, t), v in sorted(overrides.items())]
    ranks = [[r, _fraction(rng)] for r in range(4) if rng.random() < 0.5]
    return {"overrides": overrides, "ranks": ranks, "default": _fraction(rng)}


def _coeff_round(rng):
    # The same nine operations every round.  The middle of the cost
    # distribution is the cluster of 0.5 s operations (abelianize 5 and the
    # two lattice builds), so the median does not straddle two different
    # operations; the seed chooses the model weights and the order.
    ops = [
        {"kind": "project", "models": [[name, _weight(rng)] for name in MODELS]},
        {"kind": "abelianize", "m": 4},
        {"kind": "consistency", "m": 4},
        {"kind": "e_table", "m": 6},
        {"kind": "partition_lattice", "m": 7},
        {"kind": "abelianize", "m": 5},
        {"kind": "partition_lattice", "m": 7},
        {"kind": "consistency", "m": 5},
        {"kind": "e_table", "m": 7},
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lattice

# (torus rank, seed subgroups, rows per seed) of the closures in a round.
# One-row seeds in rank 6 cut out nearly generic arrangements, whose
# closures have an almost fixed size (about 120-128 elements), so their
# cost depends little on the seed: 0.45-0.7 s each at the seed commit.
# Rank-5 closures vary more (0.2-0.7 s) and rank-4 ones 4x, so there is
# one rank-5 closure and none in rank 4; larger families leave the 2 s
# range (eight one-row seeds in rank 5 take 2 s, ten take 15-20 s).  The
# rank-6 builds and PartitionLattice(7) outnumber the quick operations
# (the reads and the rank-5 build), so the median falls among the builds
# rather than between two kinds of operation.
_CLOSE = ((5, 7, 1),) + ((6, 7, 1),) * 6
QUERY_BATCH = 1000
CROSSCUT_BATCH = 24


def _close_op(rng, rank, n_seeds, max_rows):
    seeds = [
        [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(1, max_rows))]
        for _ in range(n_seeds)
    ]
    return {"kind": "close", "rank": rank, "seeds": seeds}


def _lattice_round(rng, base):
    builds = [_close_op(rng, *shape) for shape in _CLOSE]
    builds.append({"kind": "partition_lattice", "m": 7})
    rng.shuffle(builds)
    for i, op in enumerate(builds):
        op["id"] = base + i
    # Queries always read PartitionLattice(7): their answers (down- and
    # up-sets of up to 877 elements) are most of the worker's memory, so a
    # fixed target keeps peak_rss_mb from depending on the seed.
    lattice = next(op for op in builds if op["kind"] == "partition_lattice")
    closure = rng.choice([op for op in builds if op["kind"] == "close"])
    reads = [
        {"kind": "query", "target": lattice["id"], "n": QUERY_BATCH, "salt": rng.getrandbits(32)},
        {"kind": "crosscut", "target": closure["id"], "n": CROSSCUT_BATCH, "salt": rng.getrandbits(32)},
    ]
    rng.shuffle(reads)
    return builds + reads


# ---------------------------------------------------------------------------


def generate(workload, seed, rounds):
    """The first `rounds` rounds of a workload as a list of rounds."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    if workload == "cli":
        decks = _cli_decks(rng)
        for _ in range(rounds):
            out.append(_cli_round(rng, decks))
    elif workload == "field":
        decks = {}
        for r in range(rounds):
            out.append(_field_round(rng, decks, r % 2))
    elif workload == "coeff":
        for _ in range(rounds):
            out.append(_coeff_round(rng))
    else:
        base = 0
        for _ in range(rounds):
            ops = _lattice_round(rng, base)
            base += len(ops)
            out.append(ops)
    return out
