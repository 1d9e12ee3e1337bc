"""Spans around the library's public calls, recorded from outside the library.

`Tracer.install` replaces selected functions and methods of the motivic
modules with wrappers that record a span (name, start, end, parent,
value) in memory; nothing under src/ knows about it.  After each
operation the spans are summarised into additive per-layer totals, and
`layer_metrics` turns the totals of a whole run into the per-layer
metrics named in BENCHMARK.json.

Time metrics come in two kinds.  An *inclusive* time sums the spans of a
call group that are not nested inside another span of the same group, so
it is the wall time spent in that call including what it calls.  A *self*
time sums span time minus the time of child spans, so every traced
instant is charged to exactly one span; `ratfield.busy_s` and the
`<module>.self_s` metrics are self times.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("cli", "expr", "ratfield", "subgroups", "groups", "coefficients", "stackcalc", "checks")

_QUERIES = ("leq", "leq_by_index", "mobius", "mobius_by_index", "down_set", "up_set", "crosscut_coeff", "index_of")
_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__",
)  # fmt: skip

# (module, attribute, span name).  "Class.method" patches the class; a
# plain name is patched in every motivic module that imported it.
TARGETS = (
    [
        ("cli", "main", "cli.main"),
        ("expr", "parse", "expr.parse"),
        ("expr", "eval_class", "expr.eval"),
        ("expr", "render", "expr.render"),
        ("ratfield", "RatFunc.__init__", "ratfield.construct"),
        ("ratfield", "poly_gcd", "ratfield.gcd"),
        ("ratfield", "canonical_str", "ratfield.render"),
        ("ratfield", "specialize", "ratfield.render"),
        ("ratfield", "RatFunc.to_json", "ratfield.render"),
        ("ratfield", "pi_eval", "ratfield.eval"),
        ("ratfield", "in_lambda_circ", "ratfield.eval"),
        ("subgroups", "hnf", "subgroups.hnf"),
        ("subgroups", "snf_divisors", "subgroups.snf"),
        ("subgroups", "TorusSubgroup.intersect", "subgroups.intersect"),
        ("subgroups", "TorusSubgroup.contains", "subgroups.contains"),
        ("subgroups", "poset_close", "subgroups.close"),
        ("subgroups", "SubgroupPoset.__init__", "subgroups.table"),
        ("groups", "upsilon_group", "groups.upsilon"),
        ("groups", "PartitionLattice.__init__", "groups.lattice"),
        ("groups", "partition_to_subgroup", "groups.block_torus"),
        ("coefficients", "e_coeff_gl", "coefficients.e"),
        ("coefficients", "ECoeffTable.build", "coefficients.table"),
        ("coefficients", "consistency_residual", "coefficients.residual"),
        ("coefficients", "e_recursion_residual", "coefficients.residual"),
        ("coefficients", "f_recursion_residual", "coefficients.residual"),
        ("coefficients", "m_big_coeff", "coefficients.m_big"),
        ("stackcalc", "abelianize_bgl", "stackcalc.abelianize"),
        ("stackcalc", "gen_euler", "stackcalc.euler"),
        ("stackcalc", "upsilon_pi_mu", "stackcalc.project"),
        ("stackcalc", "pi_mu_lbar", "stackcalc.project"),
        ("stackcalc", "pi_re_n", "stackcalc.project"),
        ("stackcalc", "lbar_mul", "stackcalc.mul"),
        ("stackcalc", "weight_mul", "stackcalc.mul"),
        ("checks", "run_suite", "checks.suite"),
    ]
    + [("ratfield", "RatFunc." + a, "ratfield.arith") for a in _ARITH]
    + [("subgroups", "SubgroupPoset." + q, "subgroups.query") for q in _QUERIES]
)

# lru_cache'd functions whose public cache_info() is read around each op.
CACHES = {
    "groups.upsilon_hit_ratio": ("groups", "upsilon_group"),
    "groups.lattice_hit_ratio": ("groups", "q_lattice_gl"),
    "subgroups.iso_hit_ratio": ("subgroups", "_iso_class_cached"),
    "coefficients.e_hit_ratio": ("coefficients", "e_coeff_gl"),
    "coefficients.blocks_hit_ratio": ("coefficients", "_upsilon_gl_blocks"),
}

# Inclusive-time metrics: metric name -> span names forming its group.
INCLUSIVE = {
    "cli.main_s": ("cli.main",),
    "expr.parse_s": ("expr.parse",),
    "expr.eval_s": ("expr.eval",),
    "ratfield.render_s": ("ratfield.render",),
    "subgroups.table_s": ("subgroups.table",),
    "subgroups.query_s": ("subgroups.query",),
    "groups.lattice_s": ("groups.lattice",),
    "groups.upsilon_s": ("groups.upsilon",),
    "coefficients.e_s": ("coefficients.e",),
    "coefficients.residual_s": ("coefficients.residual",),
    "stackcalc.abelianize_s": ("stackcalc.abelianize",),
    "stackcalc.project_s": ("stackcalc.project",),
    "stackcalc.euler_s": ("stackcalc.euler",),
    "checks.suite_s": ("checks.suite",),
}

COUNTS = {
    "ratfield.constructions": "ratfield.construct",
    "subgroups.intersections": "subgroups.intersect",
    "subgroups.hnf_calls": "subgroups.hnf",
}

# Every per-layer metric a traced run prints, with its unit, in order.
PER_LAYER = (
    [
        ("cli.interp_s", "s"),
        ("cli.import_s", "s"),
        ("cli.import_numpy_s", "s"),
        ("cli.main_s", "s"),
        ("expr.parse_s", "s"),
        ("expr.eval_s", "s"),
        ("ratfield.busy_s", "s"),
        ("ratfield.calls", "count"),
        ("ratfield.constructions", "count"),
        ("ratfield.max_degree", "count"),
        ("ratfield.render_s", "s"),
        ("subgroups.close_s", "s"),
        ("subgroups.intersections", "count"),
        ("subgroups.hnf_calls", "count"),
        ("subgroups.closure_yield", "1"),
        ("subgroups.table_s", "s"),
        ("subgroups.poset_size", "count"),
        ("subgroups.query_s", "s"),
        ("groups.lattice_s", "s"),
        ("groups.upsilon_s", "s"),
        ("coefficients.e_s", "s"),
        ("coefficients.residual_s", "s"),
        ("stackcalc.abelianize_s", "s"),
        ("stackcalc.project_s", "s"),
        ("stackcalc.euler_s", "s"),
        ("checks.suite_s", "s"),
    ]
    + [(name, "1") for name in CACHES]
    + [("%s.self_s" % m, "s") for m in MODULES if m != "ratfield"]
    + [("trace.overhead_s", "s")]
)


class Tracer:
    """Records spans of wrapped library calls; one instance per process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, value]
        self._stack = []
        self._undo = []
        self._caches = {}

    def _wrap(self, name, fn, probe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                rec[4] = probe(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in the loaded motivic modules."""
        mods = {m: importlib.import_module("motivic." + m) for m in MODULES}
        loaded = [importlib.import_module("motivic")] + list(mods.values())
        for metric, (m, attr) in CACHES.items():
            self._caches[metric] = getattr(mods[m], attr)
        for m, attr, name in TARGETS:
            probe = _PROBES.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[m], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, probe))
                else:
                    new = self._wrap(name, raw, probe)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mods[m], attr)
            new = self._wrap(name, orig, probe)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def cache_counts(self):
        return {k: fn.cache_info()[:2] for k, fn in self._caches.items()}

    def take(self):
        """Summarise and clear the spans recorded since the last call."""
        spans = list(self.spans)
        self.spans.clear()
        return summarize(spans)


def _degree(args, _result):
    f = args[0]
    return max(f.num.degree, f.den.degree)


def _poset_size(args, _result):
    return len(args[0].elements)


def _closure_new(args, result):
    seed, top = args[0], args[1]
    return len(result) - len(set(seed) | {top})


_PROBES = {
    "ratfield.construct": _degree,
    "subgroups.table": _poset_size,
    "subgroups.close": _closure_new,
}


def summarize(spans):
    """Additive per-layer totals of one operation's spans.

    Keys ending in _s are seconds and the rest counts, except
    ratfield.max_degree, which combines by max."""
    names = sorted({s[0] for s in spans})
    bit = {n: 1 << i for i, n in enumerate(names)}
    n = len(spans)
    child = [0.0] * n
    anc = [0] * n  # bitmask of span names among the ancestors
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            anc[i] = anc[parent] | bit[spans[parent][0]]
    out = {k: 0.0 for k in INCLUSIVE}
    out.update({"%s.self_s" % m: 0.0 for m in MODULES})
    out.update({k: 0 for k in COUNTS})
    out.update({"ratfield.calls": 0, "ratfield.max_degree": 0, "subgroups.close_s": 0.0,
                "posets": 0, "poset_elements": 0, "close_new": 0, "close_intersections": 0})  # fmt: skip
    groups = {k: sum(bit.get(s, 0) for s in v) for k, v in INCLUSIVE.items()}
    close_bit = bit.get("subgroups.close", 0)
    table_bit = bit.get("subgroups.table", 0)
    for i, (name, t0, t1, parent, value) in enumerate(spans):
        dur = t1 - t0
        module = name.split(".", 1)[0]
        out["%s.self_s" % module] += dur - child[i]
        b = bit[name]
        for k, g in groups.items():
            if b & g and not anc[i] & g:
                out[k] += dur
        for k, span_name in COUNTS.items():
            if name == span_name:
                out[k] += 1
        if module == "ratfield":
            out["ratfield.calls"] += 1
        if name == "ratfield.construct":
            out["ratfield.max_degree"] = max(out["ratfield.max_degree"], value)
        elif name == "subgroups.close" and not anc[i] & close_bit:
            out["subgroups.close_s"] += dur
            out["close_new"] += value
        elif name == "subgroups.table":
            out["posets"] += 1
            out["poset_elements"] += value
            if anc[i] & close_bit and not anc[i] & table_bit:
                out["subgroups.close_s"] -= dur  # the closure loop only
        elif name == "subgroups.intersect" and anc[i] & close_bit:
            out["close_intersections"] += 1
    return out


def merge(total, part):
    """Add one operation's totals (and cache deltas) into the run's."""
    for k, v in part.items():
        if k == "ratfield.max_degree":
            total[k] = max(total.get(k, 0), v)
        else:
            total[k] = total.get(k, 0) + v
    return total


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(total, n_ops):
    """Per-layer metrics (per-operation means unless noted) from the run's
    merged totals.  Probe-measured cli.* values and the overhead are
    filled in by the caller."""
    out = {}
    for k in list(INCLUSIVE) + list(COUNTS) + ["subgroups.close_s", "ratfield.calls"]:
        out[k] = _ratio(total.get(k, 0), n_ops)
    out["ratfield.busy_s"] = _ratio(total.get("ratfield.self_s", 0), n_ops)
    for m in MODULES:
        if m != "ratfield":
            out["%s.self_s" % m] = _ratio(total.get("%s.self_s" % m, 0), n_ops)
    out["ratfield.max_degree"] = total.get("ratfield.max_degree", 0)
    out["subgroups.poset_size"] = _ratio(total.get("poset_elements", 0), total.get("posets", 0))
    out["subgroups.closure_yield"] = _ratio(total.get("close_new", 0), total.get("close_intersections", 0))
    for k in CACHES:
        hits, misses = total.get(k + ".hits", 0), total.get(k + ".misses", 0)
        out[k] = _ratio(hits, hits + misses)
    return out


def cache_delta(before, after):
    out = {}
    for k, (h0, m0) in before.items():
        h1, m1 = after[k]
        out[k + ".hits"] = h1 - h0
        out[k + ".misses"] = m1 - m0
    return out
