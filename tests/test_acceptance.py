"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion records a PASS/FAIL line (shown in the pytest summary) and
asserts its stated wall-clock budget.  Expected values are either frozen
literals or come from an independently written oracle inside the test.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from motivic.checks import (
    check_m_vanishing,
    check_mobius_crosscut,
    check_operator_algebra,
)
from motivic.cli import main as cli_main
from motivic.coefficients import (
    ECoeffTable,
    consistency_residual,
    e_coeff_gl,
    e_recursion_residual,
    f_recursion_residual,
)
from motivic.errors import ExprSyntaxError
from motivic.expr import eval_class, parse, render
from motivic.groups import GeneralLinear, enumerate_partitions, upsilon_group
from motivic.models import gl2_flag_model, gl3_flag_model, gl3_free_model
from motivic.ratfield import ELL, ONE, ZERO, in_lambda_circ, pi_eval
from motivic.stackcalc import WeightFn, model_total_upsilon, upsilon_pi_mu
from test_coefficients import _mobius_e

L = ELL


@contextmanager
def criterion(record, number, budget, label):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        in_budget = elapsed < budget
        status = "PASS" if ok and in_budget else "FAIL"
        record(
            "%s criterion %2d [%6.2fs / budget %2ds] %s"
            % (status, number, elapsed, budget, label)
        )
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (number, budget)


def test_criterion_01_gl_class_closed_form(acceptance):
    with criterion(acceptance, 1, 1, "GL(m) class matches the closed form, m = 1..8"):
        recursive = ONE  # independent oracle: the column fibration recursion
        for m in range(1, 9):
            closed = L ** (m * (m - 1) // 2)
            for k in range(1, m + 1):
                closed = closed * (L**k - 1)
            recursive = (L**m - 1) * L ** (m - 1) * recursive
            assert upsilon_group(GeneralLinear(m)) == closed == recursive


def test_criterion_02_scalar_e_f_values(acceptance):
    from motivic.groups import SetPartition

    with criterion(acceptance, 2, 1, "E(1..3), F(1..3) reproduce the tabulated values"):
        e1 = e_coeff_gl(SetPartition.one_block(1))
        e2 = e_coeff_gl(SetPartition.one_block(2))
        e3 = e_coeff_gl(SetPartition.one_block(3))
        assert e1 == ONE
        assert e2 == (ONE / (L + 1)) * (-ONE / L - Fraction(1, 2))
        assert e3 == (ONE / (L * L + L + 1)) * (
            ONE / L**3 + ONE / L**2 + ONE / L + Fraction(1, 3)
        )
        assert pi_eval(e1) == 1
        assert pi_eval(e2) == Fraction(-3, 4)
        assert pi_eval(e3) == Fraction(10, 9)


def test_criterion_03_recursion_residuals(acceptance):
    with criterion(acceptance, 3, 30, "both recursion residuals vanish for m = 1..6"):
        table = ECoeffTable.build(7)
        for m in range(1, 7):
            assert e_recursion_residual(m, table) == ZERO, m
            assert f_recursion_residual(m, table) == 0, m


def test_criterion_04_consistency_identity(acceptance):
    with criterion(acceptance, 4, 10, "class-inverse expansion holds for m = 1..5"):
        for m in range(1, 6):
            assert consistency_residual(m) == ZERO, m


def test_criterion_05_product_form_and_membership(acceptance):
    with criterion(
        acceptance, 5, 10, "product form equals direct sum; all E regular at l = 1"
    ):
        for m in range(1, 6):
            for q in enumerate_partitions(m):
                direct = _mobius_e(q)
                assert e_coeff_gl(q) == direct, (m, q)
                assert in_lambda_circ(direct), (m, q)


def test_criterion_06_mobius_crosscut(acceptance):
    with criterion(
        acceptance,
        6,
        30,
        "crosscut sums equal Mobius values; corner values for m <= 5",
    ):
        report = check_mobius_crosscut(max_m=4, n_random=200)
        assert report.instances > 200
        assert report.failures == []


def test_criterion_07_operator_algebra(acceptance):
    with criterion(
        acceptance, 7, 5, "weight-operator algebra on 500 randomized instances"
    ):
        report = check_operator_algebra(n_random=500)
        assert report.instances == 500
        assert report.failures == []


def test_criterion_08_model_evaluation(acceptance):
    with criterion(
        acceptance, 8, 5, "stratified models: constant and virtual-rank projections"
    ):
        flag2 = gl2_flag_model()
        expected2 = ONE / (L - 1) ** 2
        assert upsilon_pi_mu(flag2, WeightFn.const_one()) == expected2
        assert upsilon_pi_mu(flag2, WeightFn.virtual_rank(2)) == expected2
        assert upsilon_pi_mu(flag2, WeightFn.virtual_rank(1)) == ZERO
        assert expected2 == model_total_upsilon(flag2) / upsilon_group(GeneralLinear(2))

        flag3 = gl3_flag_model()
        expected3 = ONE / (L - 1) ** 3
        ratio3 = model_total_upsilon(flag3) / upsilon_group(GeneralLinear(3))
        assert upsilon_pi_mu(flag3, WeightFn.const_one()) == ratio3 == expected3
        assert upsilon_pi_mu(flag3, WeightFn.virtual_rank(3)) == expected3
        assert upsilon_pi_mu(flag3, WeightFn.virtual_rank(2)) == ZERO
        assert upsilon_pi_mu(flag3, WeightFn.virtual_rank(1)) == ZERO

        free3 = gl3_free_model()
        ratio_free = model_total_upsilon(free3) / upsilon_group(GeneralLinear(3))
        assert upsilon_pi_mu(free3, WeightFn.const_one()) == ratio_free == ONE
        assert upsilon_pi_mu(free3, WeightFn.virtual_rank(0)) == ONE
        for n in (1, 2, 3):
            assert upsilon_pi_mu(free3, WeightFn.virtual_rank(n)) == ZERO


def test_criterion_09_euler_goldens(acceptance, capsys):
    with criterion(acceptance, 9, 1, "euler 2 and euler 3 print the frozen classes"):
        assert cli_main(["euler", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1/2*[Gm^2] - 3/4*[Gm]"
        assert cli_main(["euler", "3"]) == 0
        assert (
            capsys.readouterr().out.strip()
            == "1/6*[Gm^3] - 3/4*[Gm^2] + 10/9*[Gm]"
        )


def test_criterion_10_m_coefficient_vanishing(acceptance):
    with criterion(
        acceptance, 10, 5, "double Mobius coefficient vanishes off minimal pairs"
    ):
        report = check_m_vanishing(n_instances=200)
        assert report.instances >= 200
        assert report.failures == []


GOLDEN_EXPRESSIONS = [
    "pt",
    "Gm",
    "A^0",
    "A^1",
    "A^7",
    "P^0",
    "P^1",
    "P^2",
    "P^5",
    "GL(1)",
    "GL(2)",
    "GL(3)",
    "GL(4)",
    "BGL(1)",
    "BGL(2)",
    "BGL(3)",
    "Gm^2",
    "Gm^5",
    "A^2^3",
    "(P^1)^2",
    "(A^1)^4",
    "pt + pt",
    "Gm + pt",
    "A^1 + P^1 + pt",
    "P^2 - A^2",
    "P^2 * Gm - A^1",
    "A^1 * A^2",
    "Gm * Gm * Gm",
    "GL(2) * GL(1)",
    "P^1 * P^1",
    "(P^1 + pt) * Gm",
    "A^3 - A^2 - A^1",
    "(Gm + pt)^3",
    "[pt / GL(1)]",
    "[pt / GL(2)]",
    "[pt / GL(3)]",
    "[pt / Gm]",
    "[pt / Gm^2]",
    "[Gm / Gm]",
    "[A^2 / Gm^2]",
    "[P^2 / GL(3)]",
    "[GL(2) / GL(2)]",
    "[pt / GL(2) * Gm]",
    "[pt / (GL(1) * GL(2))]",
    "[A^1 - pt / Gm]",
    "GL(2) / (Gm^2)",
    "GL(3) / (Gm^3)",
    "[pt / GL(2)] * Gm",
    "P^3 - P^2 + A^1 * Gm",
    "[(pt/Gm) * A^1 / Gm]",
]

MALFORMED_OFFSETS = [
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
    ("^2", 0),
    ("Gm ^ Gm", 5),
]


def test_criterion_11_parser(acceptance, capsys):
    with criterion(
        acceptance, 11, 1, "parser round trips, error offsets, pole at l = 1"
    ):
        assert len(GOLDEN_EXPRESSIONS) >= 50
        for text in GOLDEN_EXPRESSIONS:
            ast = parse(text)
            canon = render(ast)
            again = parse(canon)
            assert again == ast, text
            assert eval_class(again) == eval_class(ast), text
        for text, position in MALFORMED_OFFSETS:
            with pytest.raises(ExprSyntaxError) as err:
                parse(text)
            assert err.value.position == position, text
        code = cli_main(["eval", "[pt/GL(1)]", "--at-one"])
        captured = capsys.readouterr()
        assert code == 1
        assert "PoleAtOne" in captured.err
