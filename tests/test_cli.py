import json
import time

from motivic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_basic(capsys):
    code, out, err = run_cli(capsys, "eval", "[pt / GL(2)]")
    assert code == 0
    assert out.strip() == "1/(l^4 - l^3 - l^2 + l)"


def test_eval_flags(capsys):
    code, out, _ = run_cli(capsys, "eval", "GL(2) / (Gm^2)", "--at-one", "--poincare")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l^2 + l"
    assert lines[1] == "at l=1: 2"
    assert lines[2] == "poincare: z^4 + z^2"


def test_eval_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "P^2", "--json", "--at-one")
    assert code == 0
    data = json.loads(out)
    assert data["text"] == "l^2 + l + 1"
    assert data["class"]["num"] == ["1", "1", "1"]
    assert data["class"]["den"] == ["1"]
    assert data["at_one"] == "3"


def test_eval_pole_at_one_fails(capsys):
    code, out, err = run_cli(capsys, "eval", "[pt/GL(1)]", "--at-one")
    assert code == 1
    assert "PoleAtOne" in err


def test_eval_pole_at_one_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "[pt/GL(1)]", "--at-one", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["error"]["type"] == "PoleAtOne"


def test_eval_syntax_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "GL(2")
    assert code == 2
    assert "offset 4" in err


def test_eval_syntax_error_json_position(capsys):
    code, out, _ = run_cli(capsys, "eval", "[pt Gm]", "--json")
    assert code == 2
    data = json.loads(out)
    assert data["error"]["type"] == "ExprSyntaxError"
    assert data["error"]["position"] == 4


def test_eval_guard_error(capsys):
    code, _, err = run_cli(capsys, "eval", "GL(0)")
    assert code == 2
    assert "GuardError" in err


def test_eff_table_values(capsys):
    code, out, _ = run_cli(capsys, "eff-table", "--max", "3")
    assert code == 0
    assert "-3/4" in out
    assert "10/9" in out
    assert out.splitlines()[0].startswith("m")


def test_eff_table_json(capsys):
    code, out, _ = run_cli(capsys, "eff-table", "--max", "3", "--json")
    assert code == 0
    data = json.loads(out)
    rows = {r["m"]: r for r in data["rows"]}
    assert rows[1]["E"] == "1"
    assert rows[2]["F"] == "-3/4"
    assert rows[3]["F"] == "10/9"
    assert rows[2]["E"] == "(-l - 2)/(2*l^2 + 2*l)"


def test_eff_table_ignores_env(capsys, monkeypatch):
    # the text table depends only on the arguments, not on the environment
    monkeypatch.delenv("MOTIVIC_WIDTH", raising=False)
    plain = run_cli(capsys, "eff-table", "--max", "3")
    monkeypatch.setenv("MOTIVIC_WIDTH", "10")
    assert run_cli(capsys, "eff-table", "--max", "3") == plain


def test_eff_table_guard(capsys):
    code, _, err = run_cli(capsys, "eff-table", "--max", "9")
    assert code == 2


def test_abelianize(capsys):
    code, out, _ = run_cli(capsys, "abelianize", "2")
    assert code == 0
    assert out.strip() == "1/2*[Gm^2] + (-l - 2)/(2*l^2 + 2*l)*[Gm]"


def test_euler_goldens(capsys):
    code, out, _ = run_cli(capsys, "euler", "2")
    assert code == 0
    assert out.strip() == "1/2*[Gm^2] - 3/4*[Gm]"
    code, out, _ = run_cli(capsys, "euler", "3")
    assert code == 0
    assert out.strip() == "1/6*[Gm^3] - 3/4*[Gm^2] + 10/9*[Gm]"


def test_check_suites_exit_zero(capsys):
    for suite, size in (
        ("consistency", 3),
        ("eff-recursion", 3),
        ("mobius-crosscut", 2),
        ("operator-algebra", 1),
        ("model-pi1", 3),
        ("m-vanishing", 1),
    ):
        code, out, _ = run_cli(capsys, "check", suite, "--max", str(size))
        assert code == 0, (suite, out)
        assert "0 failures" in out


def test_check_reports_instances(capsys):
    code, out, _ = run_cli(capsys, "check", "consistency", "--max", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["instances"] > 0
    # criterion 10 under its suite name: 50 instances per unit of --max
    code, out, _ = run_cli(capsys, "check", "m-vanishing", "--max", "4")
    assert code == 0
    assert out == "m-vanishing: 200 instances, 0 failures\n"


def test_check_default_bound_fits_the_suite(capsys):
    # without --max a suite runs at 4, or at its limit when that is smaller
    code, out, _ = run_cli(capsys, "check", "model-pi1", "--json")
    assert code == 0
    assert json.loads(out)["max"] == 3
    code, out, _ = run_cli(capsys, "check", "consistency", "--json")
    assert code == 0
    assert json.loads(out)["max"] == 4


def test_check_refuses_bounds_above_suite_limit(capsys):
    limits = {
        "eff-recursion": 6,
        "consistency": 6,
        "mobius-crosscut": 4,
        "operator-algebra": 4,
        "model-pi1": 3,
        "m-vanishing": 4,
    }
    for suite, limit in limits.items():
        code, out, _ = run_cli(capsys, "check", suite, "--max", str(limit + 1), "--json")
        assert code == 2, suite
        assert json.loads(out)["error"]["type"] == "GuardError"
    code, out, _ = run_cli(capsys, "check", "consistency", "--max", "50", "--json")
    assert code == 2
    assert "error" in json.loads(out)


def test_eval_degree_guard_error(capsys):
    code, out, err = run_cli(capsys, "eval", "(GL(16))^64", "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "GuardError"
    assert err == ""


def test_eval_high_multiplicity_sums_finish(capsys):
    # a factor of high multiplicity, such as (l - 1)^64, made Euclid over
    # Fraction coefficients explode.  Monic remainders brought the first
    # three down from 13 s to over 40 s; the last three took 20.6, 24.0 and
    # 0.9 s until the gcd became GCDHEU on integer primitive parts, and each
    # now takes a few hundredths of a second
    for text in (
        "[pt/Gm^32] + [pt/GL(8)]",
        "[pt/Gm^64] + [pt/GL(8)]",
        "[pt/GL(16)] + [pt/GL(13)] + [pt/GL(11)]",
        "[pt/Gm^64] + [pt/GL(16)]",
        "[P^64 / Gm^64] + [pt / GL(16)]",
        "[A^64 * P^64 / Gm^64] * Gm^64",
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", text, "--json")
        assert time.perf_counter() - t0 < 5.0, text
        assert (code, err) == (0, "")
        assert json.loads(out)["input"] == text


def test_eval_root_at_the_gcd_evaluation_point(capsys):
    # l - 256 vanishes at 2^8, the first point the gcd of l - 256 and l - 1
    # is evaluated at
    text = "(A^1 - (pt+pt)^8) / Gm"
    assert run_cli(capsys, "eval", text) == (0, "(l - 256)/(l - 1)\n", "")
    code, out, err = run_cli(capsys, "eval", text, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["class"] == {"num": ["-256", "1"], "den": ["-1", "1"]}


def test_eval_deep_nesting_is_a_guard_error(capsys):
    text = "(" * 3000 + "pt" + ")" * 3000
    code, out, err = run_cli(capsys, "eval", text, "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "GuardError"
    assert err == ""


def test_eval_overlong_literal_is_a_guard_error(capsys):
    # int() refuses literals past 4,300 digits, so the bound is checked on the digit text
    code, out, err = run_cli(capsys, "eval", "A^" + "9" * 5000, "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "GuardError"
    assert err == ""
    # leading zeros do not count against the bound
    code, out, _ = run_cli(capsys, "eval", "A^" + "0" * 5000 + "1")
    assert (code, out) == (0, "l\n")
    # a digit that is not a decimal one is a syntax error, not a crash
    code, out, err = run_cli(capsys, "eval", "A^\u00b2", "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ExprSyntaxError"
    assert err == ""


def test_check_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "check", "no-such-suite")
    assert code == 2


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["definitely-not-a-command"]) == 2
