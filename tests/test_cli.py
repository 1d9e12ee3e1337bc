import hashlib
import json
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from motivic.checks import SUITES
from motivic.cli import main
from motivic.guards import E_GUARD

GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"


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


def test_eval_syntax_error_position_is_a_utf8_byte_offset(capsys):
    # the Arabic-Indic digit three and the e-acute take two bytes each
    code, out, _ = run_cli(capsys, "eval", "A^\u0663 + \u00e9", "--json")
    assert code == 2
    assert json.loads(out)["error"]["position"] == 7
    code, _, err = run_cli(capsys, "eval", "A^\u0663 + \u00e9")
    assert code == 2
    assert "offset 7:" in err


def test_eval_expression_starting_with_a_dash_goes_after_double_dash(capsys):
    # argparse reads "-pt" as an option: a usage error with no JSON object
    code, out, err = run_cli(capsys, "eval", "-pt", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: ")
    # after "--" it is the expression, and the parser refuses it
    code, out, _ = run_cli(capsys, "eval", "--json", "--", "-pt")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ExprSyntaxError"
    assert error["position"] == 0


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


def test_abelianize_and_euler_at_the_e_guard(capsys):
    # E_GUARD alone bounds abelianize and euler; their outputs at m = 7 are
    # frozen (abelianize by length and SHA-256) and cross-checked against
    # eff-table: the [Gm] coefficient is E(7), and at l = 1 it is F(7)
    code, out, _ = run_cli(capsys, "eff-table", "--max", "7", "--json")
    assert code == 0
    row7 = json.loads(out)["rows"][6]
    assert (row7["m"], row7["F"]) == (7, "1716/49")
    code, out, _ = run_cli(capsys, "abelianize", "7")
    assert code == 0
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        1391,
        "2267f666a9016e59dfb6d3c0ab6132b700551ba8f23d2164725eacc08eff3e1d",
    )
    assert out.startswith("1/5040*[Gm^7] + ")
    assert out.endswith(" + %s*[Gm]\n" % row7["E"])
    code, out, _ = run_cli(capsys, "euler", "7")
    assert code == 0
    assert out == (
        "1/5040*[Gm^7] - 1/160*[Gm^6] + 161/1728*[Gm^5] - 109/128*[Gm^4]"
        " + 659717/129600*[Gm^3] - 34279/1800*[Gm^2] + 1716/49*[Gm]\n"
    )
    assert run_cli(capsys, "check", "consistency", "--max", "7") == (
        0,
        "consistency: 7 instances, 0 failures\n",
        "",
    )
    for command in ("abelianize", "euler"):
        code, out, err = run_cli(capsys, command, "8")
        assert (code, out) == (2, "")
        assert err == "error (TooLarge): E coefficients guarded at m <= 7\n"


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
        "consistency": 7,
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


# a factor of high multiplicity, such as (l - 1)^64, made Euclid over
# Fraction coefficients explode.  Monic remainders brought the first three
# down from 13 s to over 40 s; the last three took 20.6, 24.0 and 0.9 s
# until the gcd became GCDHEU on integer primitive parts, and each now takes
# a few hundredths of a second
HIGH_MULTIPLICITY = (
    "[pt/Gm^32] + [pt/GL(8)]",
    "[pt/Gm^64] + [pt/GL(8)]",
    "[pt/GL(16)] + [pt/GL(13)] + [pt/GL(11)]",
    "[pt/Gm^64] + [pt/GL(16)]",
    "[P^64 / Gm^64] + [pt / GL(16)]",
    "[A^64 * P^64 / Gm^64] * Gm^64",
)

# two rounds of the benchmark's field workload at seed 1
FIELD_ROUND = (
    "GL(11)^3 * [P^4 / GL(8)]",
    "[pt / GL(13)] * [pt / GL(12)] + [A^1 / GL(11)]",
    "[A^2 / GL(13)] + [P^1 / GL(12)]",
    "[A^2 / GL(12)] - [P^1 / (GL(11) * Gm)]",
    "[A^2 / GL(11)] + [P^1 / GL(9)] + [pt / GL(8)]",
    "[A^3 / GL(14)] + [P^3 / GL(13)]",
    "GL(14)^2 * [P^6 / GL(9)]",
    "BGL(12) * Gm^3 + [A^2 / GL(10)]",
    "[A^1 / GL(10)] + [P^2 / GL(9)] + [pt / GL(8)]",
    "[A^1 / GL(13)] - [P^3 / (GL(12) * (Gm^2))]",
    "[pt / GL(15)] * [pt / GL(14)] + [A^2 / GL(12)]",
    "[A^1 / GL(12)] + [P^2 / GL(10)]",
)


def test_eval_high_multiplicity_sums_finish(capsys):
    for text in HIGH_MULTIPLICITY:
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", text, "--json")
        assert time.perf_counter() - t0 < 5.0, text
        assert (code, err) == (0, "")
        assert json.loads(out)["input"] == text


def test_eval_needs_no_remainder_sequence(capsys):
    # GCDHEU, the only gcd, grows its evaluation point until the gcd checks
    for text in HIGH_MULTIPLICITY + FIELD_ROUND:
        code, _, err = run_cli(capsys, "eval", text, "--json")
        assert (code, err) == (0, ""), text


# lopsided quotients: a wide constant on one side of a gcd whose first point
# is chosen from the other side.  The first two took 16.5 s and 0.2 s when a
# remainder sequence followed six points of GCDHEU; their stdout is
# (2^2000*l^100 + 1)/(l - 1)^63 expanded and 2^320*l + 1.  In the third the
# numerator's cofactor is about 2^1987 wide (5.3 s with one growing point).
# Each stdout is pinned by length and SHA-256 as the remainder sequence
# printed it.
LOPSIDED = {
    "[((A^64 * A^36 * ((pt+pt)^64)^31 * (pt+pt)^16 + pt) * (A^1 - pt)) / Gm^64]": (
        1946,
        "4c1f9e9948f1f849c1349b53ae01476ec4f301e0fdf98390f6dcb95feab24161",
    ),
    "[(A^1 * ((pt+pt)^64)^5 + pt) * (A^1 - pt) / Gm]": (
        104,
        "fb1997d3f943e360dc187899bb9dc16c71878a6f6eb6180667808eae9adf4517",
    ),
    "(((((pt+pt)^64)^1)^31) - ((BGL(1)) / GL(3))) + (B GL(16)^1) + B GL(15)": (
        60133,
        "05c54383529e804b62ce59b25f758a34718076891903c9cf971c69625509a597",
    ),
}


# the slowest accepted inputs known, near HEIGHT_MAX and DEGREE_MAX: sums
# whose two denominators share most of their factors.  Each stdout is
# pinned by length and SHA-256 as the constructor's reduction of the
# unreduced sum printed it; their budgets are in tests/test_guards.py
SLOWEST = {
    "[P^25 / GL(11)]^5 + [((pt+pt)^64)^29 * (pt+pt)^3 * Gm^8 / Gm^56] + [P^5 / Gm^17]^3": (
        170198,
        "223069d99ef6a37ce726fd6c9964696c23ca00c6502592061060d891b358ee8d",
    ),
    "[P^64/Gm^64]^11 + [P^63/Gm^63]": (
        219911,
        "8cbc4042317109719b987db6acceac2181c33766108f244ca15a5a6bfad43fea",
    ),
    "[pt/Gm^64]^10 + [pt/GL(11)]": (
        194865,
        "c3c956fe2e9e72f7bf304e54fe657368520ee819987ef4fdcfd42baa32e31946",
    ),
}


def test_eval_lopsided_quotients_finish(capsys):
    for text, (size, digest) in LOPSIDED.items():
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", text)
        assert time.perf_counter() - t0 < 2.0, text
        assert (code, err, len(out)) == (0, "", size), text
        assert hashlib.sha256(out.encode()).hexdigest() == digest, text


def test_eval_slowest_inputs_print_their_frozen_output(capsys):
    for text, (size, digest) in SLOWEST.items():
        code, out, err = run_cli(capsys, "eval", text)
        assert (code, err, len(out)) == (0, "", size), text
        assert hashlib.sha256(out.encode()).hexdigest() == digest, text


def test_eval_splits_powers_of_l_off_the_gcd(capsys):
    # GL(9) and GL(15) put l^36 and l^105 into the denominators, and the
    # numerator's constant is 2^1712, so f(2^k) and g(2^k) share 2^k at every
    # point with k < 1712 unless the powers of l come off first
    text = "[P^5 / GL(9)]^2 + [((pt+pt)^64)^26 * (pt+pt)^48 * Gm^6 / GL(15)]"
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", text, "--json")
    assert time.perf_counter() - t0 < 2.0
    assert (code, err) == (0, "")
    obj = json.loads(out)["class"]

    def gl(m, x):
        return x ** (m * (m - 1) // 2) * prod(x**k - 1 for k in range(1, m + 1))

    for x in (Fraction(2), Fraction(3)):
        num, den = (sum(Fraction(c) * x**i for i, c in enumerate(obj[k])) for k in ("num", "den"))
        want = (sum(x**i for i in range(6)) / gl(9, x)) ** 2 + 2**1712 * (x - 1) ** 6 / gl(15, x)
        assert num / den == want


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


def sized_commands():
    """(argv before M, the largest M accepted, whether --json exists) for
    every command that takes a size M."""
    yield ("eff-table", "--max"), E_GUARD, True
    yield ("abelianize",), E_GUARD, False
    yield ("euler",), E_GUARD, False
    for suite, (limit, _) in sorted(SUITES.items()):
        yield ("check", suite, "--max"), limit, True


SIZED_ARGV = [
    (prefix, limit, flag)
    for prefix, limit, has_json in sized_commands()
    for flag in ((), ("--json",))
    if has_json or not flag
]


@pytest.mark.parametrize(
    "prefix,limit,flag", SIZED_ARGV, ids=[" ".join(p + f) for p, _, f in SIZED_ARGV]
)
def test_sized_commands_keep_the_exit_code_contract(capsys, prefix, limit, flag):
    # M from every class the README "Exit codes" table separates: negative,
    # 0, in range, the limit, the limit + 1 and 20-digit values of both
    # signs.  An accepted M runs within 3 s (the slowest, operator-algebra
    # at 4, takes about 0.5 s) and a refused one within 0.5 s
    big = 10**20 - 1
    for m in sorted({-1, 0, 1, (1 + limit) // 2, limit, limit + 1, big, -big}):
        argv = list(prefix) + [str(m)] + list(flag)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - t0
        assert "Traceback" not in out + err, argv
        if 1 <= m <= limit:
            assert (code, err) == (0, ""), argv
            assert elapsed < 3.0, argv
            if flag:
                json.loads(out)
            continue
        assert code == 2, argv
        assert elapsed < 0.5, argv
        if flag:
            assert err == "", argv
            assert json.loads(out)["error"]["type"] in ("GuardError", "TooLarge"), argv
        else:
            assert out == "", argv
            assert err.startswith(("error (GuardError): ", "error (TooLarge): ")), argv


def test_check_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "check", "no-such-suite")
    assert code == 2


def test_usage_error(capsys):
    assert main([]) == 2
    assert main(["definitely-not-a-command"]) == 2


def test_frozen_goldens_replay_byte_for_byte(capsys):
    # every CLI command the benchmark froze, with its stdout and exit status
    with open(GOLDENS) as fh:
        goldens = json.load(fh)["cli"]
    assert len(goldens) == 52
    mismatches = []
    for command, want in goldens.items():
        code = main(command.split())
        if (code, capsys.readouterr().out) != (want["exit"], want["stdout"]):
            mismatches.append(command)
    assert mismatches == []
