"""Command line surface: subcommands, exit codes, JSON round trips."""

import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvadd import LinearizedMap, claims, cli, cover
from curvadd.cli import main

HYPERBOLA_F7 = "p = 7\nk = 1\nf = x*y - 1\n"
QUAD_F3 = "p = 3\nk = 1\nf = y^2 + 2*x*y + 2*y + x\n"
CUBIC_F5 = "p = 5\nk = 1\nf = y^2 - x^3 - 3*x - 1\nassert_smooth = true\n"
GOLDEN_REPORTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reports.json")


def write_curve(tmp_path, text, name="c.curve"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_text_output(tmp_path, capsys):
    path = write_curve(tmp_path, HYPERBOLA_F7)
    assert main(["analyze", "--curve", path]) == 0
    out = capsys.readouterr().out
    assert "x*y + 6 = 0 over F_7" in out
    assert "affine m = 6" in out
    assert "exists_nonzero = False" in out
    assert "inequality1: forced_zero = True" in out
    assert "hasse-weil: N = 8 vs window [8, 8]" in out
    assert "paper_flags: none" in out


def test_analyze_singular_ext_0_is_not_blamed_on_the_cap(tmp_path, capsys):
    path = write_curve(tmp_path, HYPERBOLA_F7)
    assert main(["analyze", "--curve", path, "--singular-ext", "0"]) == 0
    out = capsys.readouterr().out
    assert "singular points: scan not requested (--singular-ext 0)\n" in out
    assert "cap" not in out


def test_analyze_tags_bounds_of_another_degree(tmp_path, capsys):
    path = write_curve(tmp_path, CUBIC_F5)
    assert main(["analyze", "--curve", path]) == 0
    out = capsys.readouterr().out
    assert "  conic (degree does not apply): forced_zero" in out
    assert "  elliptic: forced_zero" in out


def test_analyze_json_stdout_and_file(tmp_path, capsys):
    path = write_curve(tmp_path, HYPERBOLA_F7)
    assert main(["analyze", "--curve", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["field"] == {"p": 7, "k": 1, "modulus": [0, 1]}
    assert doc["curve"]["degree"] == 2
    assert doc["points"]["affine_count"] == 6
    assert doc["points"]["infinity_count"] == 2
    assert doc["decision"]["exists_nonzero"] is False
    assert doc["decision"]["witness_map_coeffs"] is None
    assert doc["bounds"]["inequality1"]["forced_zero"] is True
    assert doc["paper_flags"] == []

    out_file = tmp_path / "report.json"
    assert main(["analyze", "--curve", path, "--json", str(out_file)]) == 0
    capsys.readouterr()
    on_disk = out_file.read_text()
    assert json.loads(on_disk) == doc
    # canonical form: re-serialization is byte identical
    canon = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert on_disk == canon


def test_analyze_json_flag_fields(tmp_path, capsys):
    path = write_curve(tmp_path, QUAD_F3)
    assert main(["analyze", "--curve", path, "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"]["affine_count"] == 5
    assert doc["points"]["singular_found"] == [[1, 1]]
    assert doc["hw"]["window_check"] == "violates-window"
    assert doc["curve"]["assertions"] == {
        "assert_smooth": False,
        "assert_abs_irreducible": False,
    }
    assert len(doc["paper_flags"]) == 8
    assert doc["paper_flags"] == sorted(doc["paper_flags"])
    assert doc["decision"]["exists_nonzero"] is False
    assert doc["bounds"]["by_count"]["forced_zero"] is True
    assert doc["bounds"]["by_count"]["lower_bound"] == "5/2"


def test_analyze_witness_serialization(tmp_path, capsys):
    # vacuous curve: no points, so a witness must exist and be encoded
    path = write_curve(tmp_path, "p = 3\nk = 1\nf = x^2 + 1\n")
    assert main(["analyze", "--curve", path, "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decision"]["exists_nonzero"] is True
    assert doc["decision"]["witness_map_coeffs"] is not None
    assert any(c != 0 for c in doc["decision"]["witness_map_coeffs"])
    assert doc["decision"]["witness_kernel_basis"] is not None


def test_analyze_missing_file(capsys):
    rc = main(["analyze", "--curve", "/nonexistent/nope.curve"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_analyze_parse_error_exit_1(tmp_path, capsys):
    path = write_curve(tmp_path, "p = 5\nk = 1\nf = y^^2\n")
    assert main(["analyze", "--curve", path]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_deep_nesting_exit_1(tmp_path):
    # nesting past the parser's limit is a parse error, not a RecursionError
    nested = "(" * 300 + "x" + ")" * 300
    path = write_curve(tmp_path, f"p = 5\nk = 1\nf = {nested}*y - 1\n")
    assert_one_parse_error_line(analyze_in_subprocess(path))


def test_analyze_huge_power_exit_1_before_expanding(tmp_path):
    # a 40-byte file whose expansion would run for minutes
    path = write_curve(tmp_path, "p = 3\nk = 1\nf = (x + y + 1)^5000 - 1\n")
    start = time.perf_counter()
    proc = analyze_in_subprocess(path)
    assert time.perf_counter() - start < 1
    assert_one_parse_error_line(proc)
    assert proc.stderr.rstrip().endswith("(at position 11)")


def test_analyze_integer_literal_errors_exit_1(tmp_path, capsys):
    # past Python's 4300-digit int conversion limit, the literal is a
    # parse error at its first digit, not a bare ValueError
    path = write_curve(tmp_path, "p = 3\nk = 1\nf = x*y - " + "1" * 5000 + "\n")
    assert main(["analyze", "--curve", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: integer literal of 5000 digits")
    assert err.endswith("(at position 6)\n")
    # a digit that int() cannot read is an unexpected character, not a literal
    path = write_curve(tmp_path, "p = 3\nk = 1\nf = x*y - \u00b2\n")
    assert main(["analyze", "--curve", path]) == 1
    assert capsys.readouterr().err == "error: unexpected character '\u00b2' (at position 6)\n"


def analyze_in_subprocess(path):
    return subprocess.run(
        [sys.executable, "-m", "curvadd", "analyze", "--curve", path],
        capture_output=True, text=True, timeout=60,
    )


def assert_one_parse_error_line(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"error: .* \(at position \d+\)", lines[0]), lines


def test_analyze_inconsistent_exit_3(tmp_path, capsys):
    path = write_curve(tmp_path, "p = 5\nk = 1\nf = y\n")
    assert main(["analyze", "--curve", path]) == 3
    assert "INCONSISTENT" in capsys.readouterr().err


def test_analyze_cap_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CURVADD_CAP", "3")
    path = write_curve(tmp_path, HYPERBOLA_F7)
    assert main(["analyze", "--curve", path]) == 2
    assert "cap" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "text,cap,code,message",
    [
        ("p = 5\nk = 1\nbogus\n", None, 1, "line 3: expected 'key = value', got 'bogus'"),
        ("p = 5\np = 7\nk = 1\n", None, 1, "line 2: duplicate key 'p'"),
        ("p = five\nk = 1\n", None, 1, "line 1: p must be an integer"),
        ("p = 5\nk = 1\nmodulus = 0, 1\n", None, 1,
         "line 3: modulus must look like [c0,c1,...]"),
        ("p = 5\nk = 1\nmodulus = [0, x]\n", None, 1,
         "line 3: modulus entries must be integers"),
        ("p = 5\nk = 1\nassert_smooth = yes\n", None, 1,
         "line 3: assert_smooth must be true or false"),
        ("p = 5\nk = 1\nf = 3\n", None, 1, "f must be a nonconstant polynomial"),
        ("p = 5\nk = 1\nmodulus = [1, 1]\n", None, 2,
         "for k = 1 the modulus must be [0, 1], i.e. g itself"),
        ("p = 5\nk = 2\nmodulus = [0, 1, 1]\n", None, 2,
         "modulus [0, 1, 1] is reducible over F_5"),
        ("p = 5\nk = 1\n", "0", 2, "CURVADD_CAP must be positive, got 0"),
        ("p = 5\nk = 1\n", "-5", 2, "CURVADD_CAP must be positive, got -5"),
    ],
    ids=[
        "no-equals", "duplicate-p", "p-not-int", "modulus-no-brackets",
        "modulus-not-int", "bool-not-bool", "constant-f", "k1-modulus",
        "reducible-modulus", "cap-0", "cap-negative",
    ],
)
def test_analyze_edge_inputs_exit_with_one_message(tmp_path, capsys, monkeypatch,
                                                   text, cap, code, message):
    # every file but the constant one defines f after the line at fault
    if "f =" not in text:
        text += "f = x*y - 1\n"
    if cap is not None:
        monkeypatch.setenv("CURVADD_CAP", cap)
    assert main(["analyze", "--curve", write_curve(tmp_path, text)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bound_subcommand(capsys):
    assert main(["bound", "--p", "7", "--k", "1", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "forced_zero = True" in out
    assert "A_squared = 4" in out
    assert main(["bound", "--p", "5", "--k", "1", "--class", "conic"]) == 0
    out = capsys.readouterr().out
    assert "forced_zero = False" in out
    assert "claimed by the statement-level case split: True" in out
    assert main(["bound", "--p", "11", "--k", "2", "--class", "elliptic"]) == 0
    assert "forced_zero = True" in capsys.readouterr().out


def test_bound_validation(capsys):
    assert main(["bound", "--p", "4", "--k", "1", "--d", "2"]) == 2
    assert main(["bound", "--p", "7", "--k", "0", "--d", "2"]) == 2
    # 2^63 + 29 is prime but above MAX_PRIME, which FqContext refuses too
    for shape in (["--d", "2"], ["--class", "conic"], ["--class", "elliptic"]):
        argv = ["bound", "--p", "9223372036854775837", "--k", "1"] + shape
        assert main(argv) == 2
        assert "p too large" in capsys.readouterr().err
    # neither or both of --d / --class
    assert main(["bound", "--p", "7", "--k", "1"]) == 2
    assert main(["bound", "--p", "7", "--k", "1", "--d", "2",
                 "--class", "conic"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of --d or --class" in err


DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@pytest.mark.parametrize("k", [10000, 10**7, 10**400])
def test_bound_refuses_terms_past_the_digit_limit_before_work(k, capsys, monkeypatch):
    def no_bound(*args):
        raise AssertionError("a bound was computed before the refusal")

    for name in ("zero_forcing_inequality", "conic_bound", "elliptic_bound"):
        monkeypatch.setattr(cli, name, no_bound)
    for shape in (["--d", "2"], ["--class", "conic"], ["--class", "elliptic"]):
        assert main(["bound", "--p", "3", "--k", str(k)] + shape) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: p^(k-1) at p = 3, k = {k} has more than {DIGIT_LIMIT} digits\n"
        )


def test_bound_digit_limit_edge(capsys):
    # at p = 7 the elliptic term (p - 6)^2 p^(k-1) is p^(k-1) itself
    # the largest k at which p^(k-1) < 10^DIGIT_LIMIT, so it still prints
    k = next(k for k in range(1, 10**5) if 7**k >= 10**DIGIT_LIMIT)
    assert main(["bound", "--p", "7", "--k", str(k), "--class", "elliptic"]) == 0
    out = capsys.readouterr().out
    assert f"  p_minus_6_sq_times_p_km1 = {7 ** (k - 1)}\n" in out
    assert main(["bound", "--p", "7", "--k", str(k + 1), "--class", "elliptic"]) == 2
    assert capsys.readouterr().out == ""
    # p^(k-1) fits but A^2 ~ q^2 does not: refused by name before
    # anything is written
    assert main(["bound", "--p", "3", "--k", "5000", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: A_squared at p = 3, k = 5000 has more than {DIGIT_LIMIT} digits\n"
    )


def test_decimal_digits_is_exact_next_to_powers_of_ten():
    # log10(10^e - 1) rounds up to e from e = 15 on
    for e in (1, 2, 14, 15, 16, 300, DIGIT_LIMIT - 1):
        for n in (10**e - 1, 10**e, -(10**e)):
            assert cli._decimal_digits(n) == len(str(abs(n))), n
    assert cli._decimal_digits(0) == 1
    assert cli._decimal_digits(10**DIGIT_LIMIT) == DIGIT_LIMIT + 1


def test_search_subcommand(tmp_path, capsys):
    path = write_curve(tmp_path, HYPERBOLA_F7)
    assert main(["search", "--curve", path]) == 0
    out = capsys.readouterr().out
    assert "exists_nonzero = False" in out
    assert "hyperplane-search" in out and "exhaustive-oracle" in out
    assert main(["search", "--curve", path, "--mode", "hyperplane"]) == 0
    out = capsys.readouterr().out
    assert "exhaustive-oracle" not in out


def test_search_witness_printed(tmp_path, capsys):
    path = write_curve(tmp_path, "p = 3\nk = 1\nf = x^2 + 1\n")
    assert main(["search", "--curve", path]) == 0
    out = capsys.readouterr().out
    assert "exists_nonzero = True" in out
    assert "witness" in out


def test_search_runs_the_oracle_past_the_old_map_cap(tmp_path, capsys, monkeypatch):
    # 81^4 and 243^5 maps: the oracle's cap counts its q table entries
    monkeypatch.delenv("CURVADD_CAP", raising=False)
    for k in (4, 5):
        path = write_curve(tmp_path, f"p = 3\nk = {k}\nf = x*y - 1\n")
        for mode in ("exhaustive", "both"):
            assert main(["search", "--curve", path, "--mode", mode]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert "exhaustive-oracle: exists_nonzero = False\n" in captured.out
            assert ("agreement: ok\n" in captured.out) == (mode == "both")


def test_search_refuses_a_witness_that_fails_verification(tmp_path, capsys, monkeypatch):
    # the identity vanishes at no point of x*y = 1, so this witness is bogus
    def bogus(points, ctx):
        f = LinearizedMap.identity(ctx)
        return cover.CoverVerdict(True, f, "hyperplane-search")

    path = write_curve(tmp_path, HYPERBOLA_F7)
    message = "hyperplane-search returned a witness that fails re-verification"
    monkeypatch.setattr(cli, "decide_by_hyperplanes", bogus)
    assert main(["search", "--curve", path, "--mode", "hyperplane"]) == 3
    captured = capsys.readouterr()
    assert "witness" not in captured.out
    assert message in captured.err
    monkeypatch.setattr(cover, "decide_by_hyperplanes", bogus)
    assert main(["analyze", "--curve", path, "--oracle", "off"]) == 3
    assert message in capsys.readouterr().err


def test_search_both_walks_every_map_over_f125(tmp_path, capsys):
    # no witness, so the oracle decides all 125^3 maps
    path = write_curve(tmp_path, "p = 5\nk = 3\nf = x*y - 1\n")
    assert main(["search", "--curve", path, "--mode", "both"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "hyperplane-search: exists_nonzero = False",
        "exhaustive-oracle: exists_nonzero = False",
        "agreement: ok",
    ]


def test_valuation_demo(capsys):
    assert main(["valuation", "--demo"]) == 0
    out = capsys.readouterr().out
    assert "machine-checked" in out
    assert "v(t) = -1" in out
    assert "h(x) * h(1/x) = 0" in out


def test_valuation_check_axioms(capsys):
    assert main(["valuation", "--check-axioms", "25", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "25 samples per domain, seed 9" in out
    assert "all passed" in out
    assert out.count(": ok") == 6


def test_valuation_ext2(capsys):
    rc = main(["valuation", "--ext2", "1,0,1", "0,1,1", "--samples", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "h(P(s)) * h(Q(1/s)) = 0" in out
    assert "10" in out
    rc = main(["valuation", "--ext2", "1,0,1", "0,1,1", "--samples", "10",
               "--char", "3"])
    assert rc == 0
    assert "F_3(t)" in capsys.readouterr().out
    assert main(["valuation", "--ext2", "5/8,-3,0.5", "0,1", "--samples", "3"]) == 0
    assert "P = 1/2*x^2 - 3*x + 5/8" in capsys.readouterr().out


def test_valuation_ext2_bad_char(capsys):
    rc = main(["valuation", "--ext2", "1,0,1", "0,1,1", "--char", "4"])
    assert rc == 2
    capsys.readouterr()


def test_valuation_padic(capsys):
    assert main(["valuation", "--padic", "5/8", "2"]) == 0
    assert "-3" in capsys.readouterr().out
    for token, want in (("-3", "v_2(-3) = 0"), ("0.5", "v_2(1/2) = -1")):
        assert main(["valuation", "--padic", token, "2"]) == 0
        assert want in capsys.readouterr().out
    assert main(["valuation", "--padic", "5/8", "6"]) == 2
    capsys.readouterr()
    # a composite past MAX_PRIME that passes every Miller-Rabin base
    assert main(["valuation", "--padic", "5/8", "318665857834031151167461"]) == 2
    assert "too large" in capsys.readouterr().err
    assert main(["valuation", "--padic", "5/8", str(2**61 - 1)]) == 0
    assert "= 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--ext2", "1,2", "3", "--samples", "0"], "--samples must be >= 1"),
        (["--padic", "5/8", "x"], "bad prime 'x'"),
        (["--ext2", "1,,2", "3"], "bad coefficient list '1,,2'"),
    ],
    ids=["samples-0", "padic-prime", "empty-coefficient"],
)
def test_valuation_refusals_exit_2_with_one_message(argv, message, capsys):
    assert main(["valuation"] + argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("token", ["1e5000", "1e-5000"])
def test_valuation_refuses_huge_exponents_before_fraction(token, capsys, monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built before the refusal")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    assert main(["valuation", "--ext2", f"{token},1", "0,1", "--samples", "2"]) == 2
    assert f"bad coefficient {token!r}" in capsys.readouterr().err
    assert main(["valuation", "--padic", token, "2"]) == 2
    assert f"bad rational {token!r}" in capsys.readouterr().err


def test_verify_paper(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 5
    assert out.count("MATCH") > out.count("MISMATCH")
    findings = [ln for ln in out.splitlines() if ln.startswith("  - ")]
    assert len(findings) == 13
    assert "13 finding(s); exit 0" in out
    assert "claimed by paper, not certified by its inequality" in out
    # the hyperbola row block covers several fields
    assert "F_3^2" in out


def test_verify_paper_identity_claim_over_f9(capsys, monkeypatch):
    # x^2 = (g + 1) y^2 has only (0, 0) over F_9, so f(x) = x works even
    # though the first witness in code order is another map
    claim = claims.CurveClaim(
        label="identity-over-F9",
        p=3,
        k=2,
        expression="x^2 - (g+1)*y^2",
        claimed_point_codes=((0, 0),),
        claimed_count=1,
        claims_identity_witness=True,
    )
    monkeypatch.setattr(claims, "CURVE_CLAIMS", (claim,))
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert (
        "  witness computed: exists_nonzero = True, "
        "first witness coeffs [1, 1]   MATCH\n"
    ) in out
    assert "identity-over-F9:" not in out


def test_verify_paper_hyperbola_row_checks_the_claim(capsys, monkeypatch):
    real_analyze = cli.analyze

    def analyze_with_witness(curve):
        witness = LinearizedMap.identity(curve.ctx)
        verdict = cover.CoverVerdict(True, witness)
        report = real_analyze(curve)
        fields = {name: getattr(report, name) for name in report._fields}
        return cover.AnalysisReport(**{**fields, "decision": verdict})

    monkeypatch.setattr(claims, "CURVE_CLAIMS", ())
    monkeypatch.setattr(cli, "analyze", analyze_with_witness)
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    rows = out.split("[hyperbola x*y - 1 = 0]")[1].split("\n\n")[0]
    assert rows.count("True    MISMATCH") == 4 and " MATCH" not in rows
    assert (
        "  - hyperbola over F_3^2: witness LinearizedMap(x), but the paper "
        "rules out a nonzero f over a finite field\n"
    ) in out


def test_search_refuses_deciders_that_disagree(tmp_path, capsys, monkeypatch):
    def no_witness(points, ctx):
        return cover.CoverVerdict(False, method="exhaustive-oracle")

    path = write_curve(tmp_path, "p = 5\nk = 1\nf = y^2 - x^3 - x\n")
    monkeypatch.setattr(cli, "decide_by_exhaustion", no_witness)
    assert main(["search", "--curve", path, "--mode", "both"]) == 3
    captured = capsys.readouterr()
    assert "exists_nonzero" not in captured.out
    assert "hyperplane-search says exists_nonzero=True but exhaustive-oracle" in captured.err


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "curvadd", "bound", "--p", "7", "--k", "3",
         "--class", "elliptic"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "forced_zero = True" in proc.stdout


def test_no_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_analyze_refusals_exit_2_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a point scan started before the refusal")

    monkeypatch.setattr(cover, "fibre_scan", no_scan)
    path = write_curve(tmp_path, "p = 7\nk = 3\nf = x*y - 1\n")
    assert main(["analyze", "--curve", path, "--singular-ext", "-1"]) == 2
    assert "singular_ext must be >= 0, got -1" in capsys.readouterr().err
    # 343^3 maps, more than 2^24, and the oracle runs at the default caps
    monkeypatch.undo()
    monkeypatch.delenv("CURVADD_CAP", raising=False)
    assert main(["analyze", "--curve", path, "--oracle", "on"]) == 0
    assert "oracle: agree" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# dump_json against json.dumps(obj, indent=2, sort_keys=True) + "\n".


def canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_dump_json_matches_json_dumps_on_golden_reports():
    with open(GOLDEN_REPORTS, encoding="utf-8") as fh:
        reports = json.load(fh)
    assert reports
    for key, text in reports.items():
        doc = json.loads(text)
        assert cli.dump_json(doc) == canonical(doc) == text, key


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], {}]},
        [[True, 1], [1, False], [None, 2], [1, 2]],
        [[1, 2], [3, 4, 5]],
        [[1, 2], (3, 4)],
        [(1, 2), (3, 4)],
        [[-7, 0], [10**40, -(10**40)]],
        {"neg": -1, "huge": 2**200, "zero": 0, "bools": [True, False, None]},
        {"é": "ü☃\U0001f600", "tab\t": "quote\" backslash\\ nl\n\x00"},
        ("tuple", ["nested", ("deeper", [[1, 2]])]),
        "plain",
        12,
        None,
        True,
    ],
)
def test_dump_json_matches_json_dumps_on_edge_values(obj):
    assert cli.dump_json(obj) == canonical(obj)


@pytest.mark.parametrize("obj", [1.5, {1: 2}, {"a": [set()]}, [b"bytes"], object()])
def test_dump_json_refuses_other_types_and_keys(obj):
    with pytest.raises(TypeError):
        cli.dump_json(obj)


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**30), 10**30) | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4)
    # pair-shaped lists, with bools and other values mixed in
    | st.lists(st.lists(st.integers() | st.booleans(), min_size=2, max_size=2), max_size=4)
    | st.lists(st.lists(st.integers() | children, min_size=1, max_size=3), max_size=3),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
def test_dump_json_matches_json_dumps_on_generated_values(obj):
    assert cli.dump_json(obj) == canonical(obj)
