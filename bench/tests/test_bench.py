"""Tests of the benchmark itself: deterministic inputs, oracles that catch
corrupted results, and the tracer.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import os
import random
import types
from fractions import Fraction

import pytest

import oracles
import run
import tracer
import worker
import workloads

import motivic.cli
from motivic import coefficients, expr, groups, models, ratfield, stackcalc, subgroups

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(BENCH, "goldens.json")) as _fh:
    GOLDENS = json.load(_fh)


@pytest.fixture
def runner():
    lib = types.SimpleNamespace(
        expr=expr, ratfield=ratfield, subgroups=subgroups, groups=groups,
        coefficients=coefficients, stackcalc=stackcalc, models=models,
    )  # fmt: skip
    return worker.Runner(lib, GOLDENS)


def execute(runner, op):
    _, check = runner.run(op)
    check()


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fixed_seed_gives_identical_operation_list(workload):
    def dumps(seed):
        return json.dumps(workloads.generate(workload, seed, 6), sort_keys=True)

    assert dumps(7) == dumps(7)
    assert dumps(7) != dumps(8)


def test_rendered_expressions_parse_to_the_tree_value():
    rng = random.Random(3)
    trees = [op["tree"] for half in (0, 1) for op in workloads._field_round(rng, {}, half)]
    trees += [workloads._small_expr(rng) for _ in range(40)]
    for t in trees:
        value = expr.eval_class(expr.parse(workloads.render(t)))
        oracles.check_class(t, value.to_json(), ratfield.canonical_str(value))


def test_cli_fixed_commands_all_have_goldens():
    for rnd in workloads.generate("cli", 1, 30):
        for op in rnd:
            if op["kind"] == "fixed":
                assert " ".join(op["argv"]) in GOLDENS["cli"]


# ---------------------------------------------------------------------------
# the oracles themselves


def test_oracle_hnf_matches_the_definition():
    rng = random.Random(5)
    for _ in range(500):
        m = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(rng.randint(1, 6))]
        assert oracles.hnf(rows) == subgroups.hnf(rows)


def test_partition_mobius_formula_matches_small_lattice():
    lat = groups.PartitionLattice(4)
    for i, p in enumerate(lat.partitions):
        for j, q in enumerate(lat.partitions):
            want = oracles.partition_mobius(p.blocks, q.blocks)
            assert lat.leq_by_index(i, j) == (want is not None)
            if want is not None:
                assert lat.mobius_by_index(i, j) == want


def test_text_value_reads_canonical_forms():
    x = Fraction(2)
    assert oracles.text_value("1/(l^4 - l^3 - l^2 + l)", x) == Fraction(1, 6)
    assert oracles.text_value("(-l - 2)/(2*l^2 + 2*l)", x) == Fraction(-1, 3)
    assert oracles.text_value("-3/4", x) == Fraction(-3, 4)


# ---------------------------------------------------------------------------
# every oracle flags a corrupted result


def test_field_oracle(runner, monkeypatch):
    op = {"kind": "field", "tree": ["+", ["/", ["pt"], ["GL", 3]], ["P", 2]]}
    op["expr"] = workloads.render(op["tree"])
    execute(runner, op)
    real = expr.eval_class
    monkeypatch.setattr(expr, "eval_class", lambda e: real(e) + ratfield.RatFunc.ell() ** 9)
    with pytest.raises(oracles.Mismatch):
        execute(runner, op)


def test_field_text_oracle(runner, monkeypatch):
    op = {"kind": "field", "tree": ["/", ["A", 2], ["GL", 2]]}
    op["expr"] = workloads.render(op["tree"])
    monkeypatch.setattr(ratfield, "canonical_str", lambda f: "1/(l^4 - l^3 - l^2 + l)")
    with pytest.raises(oracles.Mismatch, match="canonical text"):
        execute(runner, op)


def test_e_table_oracle(runner, monkeypatch):
    op = {"kind": "e_table", "m": 3}
    execute(runner, op)
    real = coefficients.ECoeffTable.build

    def corrupt(m):
        t = real(m)
        return coefficients.ECoeffTable(t.max_m, t.scalar_e, t.scalar_f[:-1] + (Fraction(1),))

    monkeypatch.setattr(coefficients.ECoeffTable, "build", staticmethod(corrupt))
    with pytest.raises(oracles.Mismatch):
        execute(runner, op)


def test_abelianize_oracle(runner, monkeypatch):
    op = {"kind": "abelianize", "m": 3}
    execute(runner, op)
    real = stackcalc.abelianize_bgl
    monkeypatch.setattr(stackcalc, "abelianize_bgl", lambda m: real(m - 1))
    with pytest.raises(oracles.Mismatch):
        execute(runner, op)


def test_consistency_oracle(runner, monkeypatch):
    op = {"kind": "consistency", "m": 3}
    execute(runner, op)
    monkeypatch.setattr(coefficients, "consistency_residual", lambda m: ratfield.RatFunc.one())
    with pytest.raises(oracles.Mismatch):
        execute(runner, op)


def test_projection_oracle(runner, monkeypatch):
    rng = random.Random(1)
    for _ in range(3):
        execute(runner, {"kind": "project", "models": [[n, workloads._weight(rng)] for n in workloads.MODELS]})
    op = {"kind": "project", "models": [["gl3_flag_model", workloads._weight(rng)]]}
    real = stackcalc.upsilon_pi_mu
    monkeypatch.setattr(stackcalc, "upsilon_pi_mu", lambda x, mu: real(x, mu) + 1)
    with pytest.raises(oracles.Mismatch):
        execute(runner, op)


class _BadMobius(groups.PartitionLattice):
    def __init__(self, m):
        super().__init__(m)
        self._mu = self._mu.copy()
        self._mu[0, :] += self._leq[0, :]  # shift every mu(bottom, .)


def test_partition_lattice_oracle(runner, monkeypatch):
    op = {"kind": "partition_lattice", "m": 4}
    execute(runner, op)
    monkeypatch.setattr(groups, "PartitionLattice", _BadMobius)
    with pytest.raises(oracles.Mismatch):
        execute(runner, op)


def _close_op(seed):
    return workloads._close_op(random.Random(seed), 4, 5, 1) | {"id": seed}


def test_closure_oracle_missing_element(runner, monkeypatch):
    op = _close_op(1)
    execute(runner, op)
    real = subgroups.poset_close

    def drop_a_seed(seeds, top):
        p = real(seeds, top)
        return subgroups.SubgroupPoset([e for e in p.elements if e != seeds[0]], top)

    monkeypatch.setattr(subgroups, "poset_close", drop_a_seed)
    with pytest.raises(oracles.Mismatch):
        execute(runner, op)


def test_closure_oracle_wrong_mobius(runner, monkeypatch):
    op = _close_op(2)
    real = subgroups.poset_close

    def corrupt(seeds, top):
        p = real(seeds, top)
        p._mu = p._mu.copy()
        p._mu[:, :] *= 2
        return p

    monkeypatch.setattr(subgroups, "poset_close", corrupt)
    with pytest.raises(oracles.Mismatch, match="Mobius identity"):
        execute(runner, op)


def test_closure_oracle_not_closed():
    # the subgroups cut out by x and by y, without their intersection
    elements = [((1, 0),), ((0, 1),), ()]
    leq = lambda i, j: i == j or j == 2  # noqa: E731
    with pytest.raises(oracles.Mismatch, match="not closed"):
        oracles.check_poset(elements, leq, lambda i, j: 1, random.Random(0), n_pairs=50)


def test_query_oracles(runner, monkeypatch):
    build = _close_op(3)
    execute(runner, build)
    query = {"kind": "query", "target": 3, "n": 200, "salt": 9}
    cross = {"kind": "crosscut", "target": 3, "n": 10, "salt": 9}
    execute(runner, query)
    execute(runner, cross)
    monkeypatch.setattr(subgroups.SubgroupPoset, "leq", lambda self, a, b: True)
    with pytest.raises(oracles.Mismatch):
        execute(runner, query)
    monkeypatch.setattr(subgroups.SubgroupPoset, "crosscut_coeff", lambda self, a, b: 7)
    with pytest.raises(oracles.Mismatch):
        execute(runner, cross)


@pytest.mark.parametrize(
    "op, rc, out",
    [
        ({"kind": "fixed", "argv": ["euler", "2"]}, 0, "1/2*[Gm^2] - 3/4*[Gm]\n\n"),
        ({"kind": "fixed", "argv": ["euler", "2"]}, 1, "1/2*[Gm^2] - 3/4*[Gm]\n"),
        ({"kind": "eval", "argv": ["eval", "[pt / GL(2)]"], "tree": ["/", ["pt"], ["GL", 2]]}, 0, "1/(l^4 - l^3)\n"),
        ({"kind": "refusal", "argv": ["eval", "GL(20)", "--json"], "error": "GuardError"}, 1, '{"error": {"type": "GuardError", "message": "x"}}'),
        ({"kind": "refusal", "argv": ["eval", "GL(20)", "--json"], "error": "GuardError"}, 2, "error"),
        ({"kind": "refusal", "argv": ["eval", "GL(20)", "--json"], "error": "GuardError"}, 2, '{"error": {"type": "TooLarge", "message": "x"}}'),
    ],
)
def test_cli_oracle_flags_corruption(op, rc, out):
    with pytest.raises(oracles.Mismatch):
        oracles.check_cli(op, rc, out, "", GOLDENS)


def test_cli_oracle_accepts_real_output(capsys):
    ops = [op for rnd in workloads.generate("cli", 2, 3) for op in rnd]
    for op in ops:
        rc = motivic.cli.main(op["argv"])
        captured = capsys.readouterr()
        oracles.check_cli(op, rc, captured.out, captured.err, GOLDENS)


# ---------------------------------------------------------------------------
# tracer and harness


def test_tracer_spans_and_uninstall():
    originals = (expr.eval_class, ratfield.RatFunc.__init__, subgroups.hnf)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert expr.eval_class is not originals[0]
        tr.take()
        before = tr.cache_counts()
        motivic.expr.eval_class(motivic.expr.parse("[P^3 / GL(4)] + BGL(3)"))
        totals = tr.take()
        totals.update(tracer.cache_delta(before, tr.cache_counts()))
        subgroups.poset_close(
            [subgroups.TorusSubgroup(3, ((1, 1, 0),)), subgroups.TorusSubgroup(3, ((0, 1, 2),))],
            subgroups.TorusSubgroup.full_torus(3),
        )
        tracer.merge(totals, tr.take())
    finally:
        tr.uninstall()
    assert (expr.eval_class, ratfield.RatFunc.__init__, subgroups.hnf) == originals
    metrics = tracer.layer_metrics(totals, 2)
    assert metrics["expr.eval_s"] > 0
    assert metrics["ratfield.busy_s"] > 0
    assert metrics["ratfield.constructions"] > 0
    assert metrics["ratfield.max_degree"] >= 10
    assert metrics["subgroups.close_s"] > 0
    assert metrics["subgroups.closure_yield"] > 0
    assert metrics["subgroups.poset_size"] == 4
    assert 0 <= metrics["groups.upsilon_hit_ratio"] <= 1
    names = {n for n, _ in tracer.PER_LAYER}
    assert set(metrics) <= names


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(30)])
    assert (value, n) == (19.0, 30)
    assert sum(1 for i in range(30) if i > value) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
