"""Child processes of the benchmark; the only code that imports motivic.

    worker.py serve [--trace]            run operations read as JSON lines
    worker.py probe WORKLOAD SEED        set-up probe: import, generate, exit
    worker.py numpy                      time `import numpy` alone
    worker.py cli TRACE_FILE ARG...      traced `motivic` command line call

`serve` answers each operation with one JSON line {"t", "ok", "why"} and,
with --trace, the operation's per-layer totals.  "t" covers the library
calls only; inputs are converted before and results checked after it.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import sys
import time
import types
from fractions import Fraction

import oracles
import tracer as tracing
import workloads

clock = time.perf_counter


def _import_motivic():
    t0 = clock()
    import motivic
    import motivic.cli
    import motivic.models

    return clock() - t0, motivic


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Runner:
    """Executes operations against the library and checks their results."""

    def __init__(self, lib, goldens, tracer=None):
        self.lib = lib
        self.goldens = goldens
        self.tracer = tracer
        self.posets = {}  # built this round (a worker serves one), for read-only queries
        self.trace = None
        self._caches = None

    def run(self, op):
        """(seconds, check) for one op; check() raises oracles.Mismatch.
        With a tracer, self.trace holds the timed region's layer totals."""
        self.trace = None
        return getattr(self, "op_" + op["kind"])(op)

    def start(self):
        if self.tracer:
            self.tracer.spans.clear()  # drop spans of input preparation
            self._caches = self.tracer.cache_counts()
        return clock()

    def stop(self, t0):
        t = clock() - t0
        if self.tracer:
            self.trace = self.tracer.take()
            self.trace.update(tracing.cache_delta(self._caches, self.tracer.cache_counts()))
        return t

    # -- field

    def op_field(self, op):
        lib = self.lib
        t0 = self.start()
        value = lib.expr.eval_class(lib.expr.parse(op["expr"]))
        text = lib.ratfield.canonical_str(value)
        obj = value.to_json()
        t = self.stop(t0)
        return t, lambda: oracles.check_class(op["tree"], obj, text)

    # -- coeff

    def op_e_table(self, op):
        lib = self.lib
        t0 = self.start()
        table = lib.coefficients.ECoeffTable.build(op["m"])
        t = self.stop(t0)

        def check():
            for row in self.goldens["e_table"][: op["m"]]:
                m = row["m"]
                got = {"m": m, "E": lib.ratfield.canonical_str(table.e(m)), "F": str(table.f(m))}
                oracles.require(got == row, "E/F row %d differs from the golden" % m)

        return t, check

    def op_abelianize(self, op):
        lib = self.lib
        t0 = self.start()
        x = lib.stackcalc.abelianize_bgl(op["m"])
        e = lib.stackcalc.gen_euler(x)
        t = self.stop(t0)

        def check():
            cli = self.goldens["cli"]
            oracles.require(str(x) + "\n" == cli["abelianize %d" % op["m"]]["stdout"], "abelianize differs")
            oracles.require(str(e) + "\n" == cli["euler %d" % op["m"]]["stdout"], "euler differs")

        return t, check

    def op_consistency(self, op):
        t0 = self.start()
        r = self.lib.coefficients.consistency_residual(op["m"])
        t = self.stop(t0)
        return t, lambda: oracles.require(r.to_json() == {"num": [], "den": ["1"]}, "nonzero residual")

    def op_project(self, op):
        lib = self.lib
        t0 = self.start()
        values = []
        for name, w in op["models"]:
            weight = lib.stackcalc.WeightFn(
                class_overrides=tuple(
                    (lib.subgroups.AbelianGroupClass(r, tuple(tors)), Fraction(v))
                    for r, tors, v in w["overrides"]
                ),
                rank_weights=tuple((r, Fraction(v)) for r, v in w["ranks"]),
                default=Fraction(w["default"]),
            )
            values.append(lib.stackcalc.upsilon_pi_mu(getattr(lib.models, name)(), weight))
        t = self.stop(t0)

        def check():
            for (name, w), value in zip(op["models"], values):
                obj = value.to_json()
                for x in oracles.POINTS:
                    want = oracles.projection_value(self.goldens["models"][name], w, x)
                    oracles.require(oracles.json_value(obj, x) == want, "%s differs at l = %s" % (name, x))

        return t, check

    # -- lattice (partition_lattice also serves coeff)

    def op_partition_lattice(self, op):
        t0 = self.start()
        lat = self.lib.groups.PartitionLattice(op["m"])
        t = self.stop(t0)
        if "id" in op:
            self.posets[op["id"]] = lat

        def check():
            oracles.check_partition_lattice(
                op["m"],
                [p.blocks for p in lat.partitions],
                [e.char_lattice for e in lat.elements],
                lat.leq_by_index,
                lat.mobius_by_index,
                random.Random(op["m"]),
            )

        return t, check

    def op_close(self, op):
        sub = self.lib.subgroups
        t0 = self.start()
        seeds = [sub.TorusSubgroup(op["rank"], tuple(map(tuple, rows))) for rows in op["seeds"]]
        poset = sub.poset_close(seeds, sub.TorusSubgroup.full_torus(op["rank"]))
        t = self.stop(t0)
        self.posets[op["id"]] = poset

        def check():
            oracles.check_poset(
                [e.char_lattice for e in poset.elements],
                poset.leq_by_index,
                poset.mobius_by_index,
                random.Random(op["id"]),
                seeds=op["seeds"],
            )

        return t, check

    def op_query(self, op):
        poset = self.posets[op["target"]]
        rng = random.Random(op["salt"])
        n = len(poset)
        top = poset.index_of(poset.top)
        els = poset.elements
        queries = []
        for _ in range(op["n"]):
            kind = rng.choice(("leq", "mobius", "down_set", "up_set"))
            a, b = rng.randrange(n), rng.randrange(n)
            if kind == "mobius" and not poset.leq_by_index(a, b):
                b = top
            queries.append((kind, a, b))
        t0 = self.start()
        answers = []
        for kind, a, b in queries:
            if kind == "leq":
                answers.append(poset.leq(els[a], els[b]))
            elif kind == "mobius":
                answers.append(poset.mobius(els[a], els[b]))
            elif kind == "down_set":
                answers.append(poset.down_set(els[b]))
            else:
                answers.append(poset.up_set(els[a]))
        t = self.stop(t0)

        def check():
            lat = [e.char_lattice for e in els]
            for (kind, a, b), ans in list(zip(queries, answers))[::10]:
                if kind == "leq":
                    oracles.require(ans == oracles.subgroup_leq(lat[a], lat[b]), "wrong leq answer")
                elif kind == "mobius":
                    oracles.require(ans == poset.mobius_by_index(a, b), "unstable Mobius answer")
                    oracles.check_mobius_identity(n, poset.leq_by_index, poset.mobius_by_index, a, b)
                else:
                    members = set(ans)
                    for c in (rng.randrange(n) for _ in range(4)):
                        if kind == "down_set":
                            want = oracles.subgroup_leq(lat[c], lat[b])
                        else:
                            want = oracles.subgroup_leq(lat[a], lat[c])
                        oracles.require((c in members) == want, "wrong %s answer" % kind)

        return t, check

    def op_crosscut(self, op):
        poset = self.posets[op["target"]]
        rng = random.Random(op["salt"])
        n = len(poset)
        downs = [[i for i in range(n) if poset.leq_by_index(i, j)] for j in range(n)]
        small = [j for j in range(n) if len(downs[j]) <= 12]
        pairs = []
        for _ in range(op["n"]):
            up = rng.choice(small)
            pairs.append((rng.choice(downs[up]), up))
        els = poset.elements
        t0 = self.start()
        answers = [poset.crosscut_coeff(els[lo], els[up]) for lo, up in pairs]
        t = self.stop(t0)

        def check():
            for (lo, up), ans in zip(pairs, answers):
                oracles.require(ans == poset.mobius_by_index(lo, up), "crosscut differs from Mobius")
                oracles.check_mobius_identity(n, poset.leq_by_index, poset.mobius_by_index, lo, up)

        return t, check


def serve(trace):
    import_s, _ = _import_motivic()
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")) as fh:
        goldens = json.load(fh)
    lib = types.SimpleNamespace(
        **{m: importlib.import_module("motivic." + m) for m in tracing.MODULES + ("models",)}
    )
    tr = None
    if trace:
        tr = tracing.Tracer()
        tr.install()
    runner = Runner(lib, goldens, tr)
    _emit({"ready": True, "import_s": import_s})
    for line in sys.stdin:
        _emit(answer(runner, json.loads(line)))


def answer(runner, op):
    """Run and check one op.  Its result dies on return, so it does not
    stay in memory while the next op runs."""
    reply = {"ok": False, "why": None, "t": None}
    try:
        reply["t"], check = runner.run(op)
        reply["trace"] = runner.trace
        check()
        reply["ok"] = True
    except oracles.Mismatch as err:
        reply["why"] = "wrong result: %s" % err
    except Exception as err:  # a library error fails this op only
        reply["why"] = "%s: %s" % (type(err).__name__, err)
    return reply


def probe(workload, seed):
    import_s, _ = _import_motivic()
    import numpy

    rounds = workloads.generate(workload, seed, workloads.ROUNDS)
    _emit(
        {
            "import_s": import_s,
            "ops": sum(len(r) for r in rounds),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
    )


def numpy_import():
    t0 = clock()
    import numpy  # noqa: F401

    _emit({"import_numpy_s": clock() - t0})


def traced_cli(trace_file, argv):
    import_s, motivic = _import_motivic()
    tr = tracing.Tracer()
    tr.install()
    before = tr.cache_counts()
    rc = motivic.cli.main(argv)
    sys.stdout.flush()
    totals = tr.take()
    totals.update(tracing.cache_delta(before, tr.cache_counts()))
    with open(trace_file, "w") as fh:
        json.dump({"import_s": import_s, "trace": totals}, fh)
    return rc


def main(argv):
    mode = argv[0]
    if mode == "serve":
        serve("--trace" in argv[1:])
        return 0
    if mode == "probe":
        probe(argv[1], int(argv[2]))
        return 0
    if mode == "numpy":
        numpy_import()
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    raise SystemExit("unknown mode %r" % (mode,))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
