import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import lattes_expr

from flatlab import p1_eval, parse_ratfunc, rationals
from flatlab import cli
from flatlab.cli import _char0_report, main, run_classify
from flatlab.dynamics import _escape_bits
from flatlab.errors import BadWeight, DivisionByZero


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- classify

def test_classify_chebyshev(capsys):
    code, out, _ = run(capsys, "classify", "t^2-2", "--primes", "5..30")
    assert code == 0
    assert "verdict: flat-candidate" in out
    assert "chebyshev-like" in out
    assert "signature (2,2,inf)" in out
    assert out.count("form w") == 8  # a weight-(p-1) form at every good prime


def test_classify_not_flat(capsys):
    code, out, _ = run(capsys, "classify", "t^2+1", "--primes", "5..30")
    assert code == 1
    assert "verdict: not-flat" in out
    assert "chi=-2" in out  # at p = 5


def test_classify_power_like(capsys):
    code, out, _ = run(capsys, "classify", "t^3", "--primes", "5..30")
    assert code == 0
    assert "power-like" in out
    assert "signature (inf,inf)" in out


def test_classify_inconclusive(capsys):
    code, out, _ = run(capsys, "classify", "t^2-2", "--primes", "5..12")
    assert code == 2
    assert "verdict: inconclusive" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "t^2-2", "--primes", "5..20", "--json",
                       "--min-good", "5")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"input", "degree", "primes", "verdict"}
    assert doc["degree"] == 2
    for item in doc["primes"]:
        assert item["good"] or "reason" in item
        if item["good"]:
            assert isinstance(item["chi"], str)
            assert all(s == "inf" or isinstance(s, int) for s in item["signature"])
            for f in item["forms_found"]:
                assert set(f) == {"weight", "f"}
    v = doc["verdict"]
    assert set(v) == {"label", "hints", "counts", "note"}
    assert "candidate" in v["label"] or v["label"] in ("not-flat", "inconclusive")


def test_classify_reports_bad_primes(capsys):
    code, out, _ = run(capsys, "classify", "t^3-3*t", "--primes", "2..12", "--json")
    doc = json.loads(out)
    by_p = {item["p"]: item for item in doc["primes"]}
    assert not by_p[2]["good"] and not by_p[3]["good"]
    assert by_p[5]["good"] and by_p[7]["good"]
    _, out, _ = run(capsys, "classify", "t^3-3*t", "--primes", "2..12")
    assert "  p=2   bad   p in {2, 3} is excluded" in out.splitlines()


@pytest.mark.parametrize("stage, name, exc", [
    ("orbifold", "postcritical_graph", RuntimeError("walk guard (internal)")),
    ("search", "invariant_search", BadWeight("no weight here")),
    ("orbifold", "mu_compute", DivisionByZero("inverse of zero")),
])
def test_classify_records_a_failing_prime(monkeypatch, stage, name, exc):
    # a failure at one prime is recorded for that prime; the sweep goes on
    real = getattr(cli, name)

    def fail_at_13(*args, **kwargs):
        if args[0].field.p == 13:  # the map, or the graph, at p = 13
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, fail_at_13)
    report = run_classify("t^2-2", 5, 50)
    by_p = {item["p"]: item for item in report["primes"]}
    reason = f"{stage}: {type(exc).__name__}: {exc}"
    assert by_p[13] == {"p": 13, "good": False, "reason": reason}
    assert all(item["good"] for p, item in by_p.items() if p != 13)
    counts = report["verdict"]["counts"]
    assert (counts["good"], counts["bad"], counts["primes_with_forms"]) == (12, 1, 12)
    assert report["verdict"]["label"] == "flat-candidate"


def test_classify_deterministic_and_parallel(capsys):
    args = ("classify", "t^2-2", "--primes", "5..20", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    _, out3, _ = run(capsys, *args, "--jobs", "2")
    assert out1 == out3


def test_classify_pool_size_is_capped(monkeypatch):
    # the pool starts min(jobs, primes, CPUs) workers, and none for one
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    serial = run_classify("t^2", 5, 50)
    assert pools == []
    assert run_classify("t^2", 5, 50, jobs=10_000) == serial  # 14 primes, 3 CPUs
    assert run_classify("t^2", 5, 7, jobs=10_000)["primes"] == serial["primes"][:2]
    assert pools == [3, 2]
    run_classify("t^2", 5, 5, jobs=4)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run_classify("t^2", 5, 50, jobs=4)
    assert pools == [3, 2]


def test_classify_forms_imply_parabolic():
    report = run_classify("t^2-2", 5, 30)
    for item in report["primes"]:
        if item["good"] and item["forms_found"]:
            assert item["chi"] == "0"


def test_classify_char0(capsys):
    code, out, _ = run(capsys, "classify", "t^2-2", "--primes", "5..30", "--char0")
    assert code == 0
    assert "char 0: chi=0 signature (2,2,inf)" in out
    code, out, _ = run(capsys, "classify", lattes_expr(), "--primes", "11..30", "--char0",
                       "--min-good", "5")
    assert code == 0
    assert "unsupported over Q" in out


def test_char0_wandering_orbit_stops():
    # over Q a critical orbit wanders, e.g. 0 -> 1 -> 2 -> 5 -> 26 -> ... under t^2+1
    for expr in ("t^2+1", "(t^2+1)/t"):
        start = time.process_time()
        c0 = _char0_report(parse_ratfunc(expr, rationals()))
        assert time.process_time() - start < 1
        assert c0["supported"] is False
        assert c0["reason"].startswith("a critical orbit never closes")


def test_char0_large_constant_term_stops():
    # Wronskians t^2 - 10^18 and t^2 - q (q = 2^61 - 1, prime): the roots
    # +-10^9 are found and their orbits wander; +-sqrt(q) are irrational
    reasons = {
        "(t^2+10^18)/t": "a critical orbit never closes",
        f"(t^2+{2 ** 61 - 1})/t": "critical points are not all rational",
    }
    for expr, reason in reasons.items():
        start = time.process_time()
        c0 = _char0_report(parse_ratfunc(expr, rationals()))
        assert time.process_time() - start < 2
        assert c0["supported"] is False
        assert c0["reason"].startswith(reason)


def test_escape_bits_bound_is_an_escape_height():
    def size(pt):  # max(|numerator|, denominator) of a point of P^1(Q)
        return 1 if pt is None else max(abs(pt.numerator), pt.denominator)

    for expr in ("t^2+1", "(t^2+1)/t", "t^2-2", "1/t^2", "(2*t^3-t)/(3*t^2+5)", "t^3/7-t+1/2"):
        sigma = parse_ratfunc(expr, rationals())
        bits = _escape_bits(sigma)
        lo = 2 ** bits
        for a in range(lo - 40, lo + 40):
            for b in (1, 3, lo - 1, lo + 1, 2 * lo + 1):
                P = Fraction(a, b)
                if size(P).bit_length() > bits:
                    # past the escape height, the height grows along the orbit
                    assert size(p1_eval(sigma, P)) > size(P)
    # closed orbits of large height stay below it: a fixed point 10^6 and,
    # for the conjugate k t^2 - 2/k of t^2-2 with k = 10^6, the critical
    # orbit 0 -> -2/k -> 2/k -> 2/k
    sigma = parse_ratfunc("10^18/t^2", rationals())
    assert p1_eval(sigma, Fraction(10**6)) == Fraction(10**6)
    assert (10**6).bit_length() <= _escape_bits(sigma)
    c0 = _char0_report(parse_ratfunc("1000000*t^2-1/500000", rationals()))
    assert c0["supported"] and c0["signature"] == [2, 2, "inf"]


def test_classify_degree_too_small(capsys):
    code, _, err = run(capsys, "classify", "t+1", "--primes", "5..30")
    assert code == 3
    assert "degree" in err


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, "classify", "t^^2", "--primes", "5..30")
    assert code == 3
    assert "error" in err


def test_classify_non_ascii_digit_is_a_parse_error(capsys):
    code, out, err = run(capsys, "classify", "t²", "--primes", "5..7")
    assert code == 3
    assert out == ""
    assert err.strip() == "error: unexpected character '²' (at position 1)"


def test_classify_deeply_nested_is_a_parse_error(capsys):
    expr = "(" * 3000 + "t^2" + ")" * 3000
    code, out, err = run(capsys, "classify", expr, "--primes", "5..7")
    assert code == 3
    assert out == ""
    assert err.startswith("error: expression nested too deeply")


@pytest.mark.parametrize("exponent", ["9999999999", "99999999999999999999"])
def test_classify_huge_exponent_is_a_parse_error(capsys, exponent):
    # the shift list t^e would be a MemoryError or an OverflowError, and
    # exit 1 would read as not-flat
    code, out, err = run(capsys, "classify", f"t^{exponent}", "--primes", "5..7")
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: degree {exponent} is past the parser's bound of 100000 (at position 2)"


@pytest.mark.parametrize("text", ["2^9999999999*t^2+1", "(t+1)^60000"])
def test_classify_huge_coefficients_are_a_parse_error(capsys, text):
    # 2^9999999999 would need more than a gigabyte (a MemoryError, exit 1),
    # and (t+1)^60000 runs for minutes inside the degree bound
    start = time.process_time()
    code, out, err = run(capsys, "classify", text, "--primes", "5..7")
    assert time.process_time() - start < 1
    assert code == 3
    assert out == ""
    assert "past the parser's bound of 2097152" in err


@pytest.mark.parametrize("args, message", [
    (["--primes", "50..5"], "bad prime range '50..5'; MIN is past MAX"),
    (["--jobs", "0"], "bad --jobs 0; expected at least 1"),
    (["--jobs", "-1"], "bad --jobs -1; expected at least 1"),
    (["--min-good", "0"], "bad --min-good 0; expected at least 1"),
    (["--min-good", "-3"], "bad --min-good -3; expected at least 1"),
    (["--primes", "24..28"], "bad prime range '24..28'; it holds no prime"),
])
def test_classify_rejects_meaningless_ranges_and_counts(capsys, args, message):
    # before, an empty range or one of composites swept no prime (exit 2),
    # and a count below 1 ran one job or needed no good prime
    code, out, err = run(capsys, "classify", "t^2", *args)
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("argv, message", [
    (["construct", "power", "2", "--p", "0"], "0 is not prime"),
    (["orbifold", "t", "--p", "5"], "degree 1 < 2"),
])
def test_meaningless_inputs_are_usage_errors(capsys, argv, message):
    # before, --p 0 built over Q (exit 0), and orbifold failed inside
    # critical_locus where classify names the degree
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: {message}"


# ---------------------------------------------------------------- verify

def test_verify_invariant(capsys):
    code, out, _ = run(capsys, "verify", "t^2", "--p", "5", "--form", "1/t^4", "--weight", "4")
    assert code == 0
    assert out.strip() == "invariant"


def test_verify_semi_invariant_lattes(capsys):
    code, out, _ = run(capsys, "verify", lattes_expr(), "--p", "13",
                       "--form", "1/(x^3+x)", "--weight", "2", "--lambda", "4")
    assert code == 0
    assert "semi-invariant lambda = 4" in out
    assert "confirmed" in out


def test_verify_verbose(capsys):
    code, out, _ = run(capsys, "verify", "t^2", "--p", "5", "--form", "1/t^4", "--weight", "4",
                       "--verbose")
    assert code == 0
    assert out.splitlines() == ["sigma mod 5: t^2", "pullback: (1/t^4) (dt)^4", "invariant"]


def test_verify_large_prime_lattes_form(capsys):
    # the weight-808 form a classify sweep reports at p = 809
    report = json.loads((Path(__file__).parent / "golden" / "classify-lattes-797-809.json").read_text())
    (form,) = [entry["forms_found"][0]["f"] for entry in report["primes"] if entry["p"] == 809]
    code, out, _ = run(capsys, "verify", lattes_expr(), "--p", "809", "--form", form, "--weight", "808",
                       "--lambda", "1")
    assert code == 0
    assert out.strip() == "invariant; claimed lambda = 1: confirmed"


def test_verify_neither(capsys):
    code, out, _ = run(capsys, "verify", "t^2", "--p", "5", "--form", "1/t^3", "--weight", "4")
    assert code == 0
    assert out.strip() == "neither"


@pytest.mark.parametrize("argv, message", [
    (["verify", "t^2", "--p", "5", "--form", "1/t", "--weight", "100001"],
     "bad --weight 100001; its pullback may reach degree 100003, past the parser's bound of 100000"),
    (["verify", "t^2", "--p", "5", "--form", "1/t", "--weight", "-100001"],
     "bad --weight -100001; its pullback may reach degree 100003, past the parser's bound of 100000"),
    (["construct", "power", "2", "--p", "100003"],
     "bad --p 100003; the weight-100002 form is past the parser's bound of 100000"),
    (["construct", "cheb", "3", "--p", "100003"],
     "bad --p 100003; the weight-100002 form is past the parser's bound of 100000"),
])
def test_forms_past_the_parser_bound_are_usage_errors(capsys, argv, message):
    # rejected before any product is built: without the check these inputs
    # build forms of degree past 10^5, and with 10^9 in place of 10^5 they
    # would need tens of GB
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - start < 0.05
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["construct", "power", "2000", "--p", "101"],
     "bad d 2000; the certificate's pullback may reach degree 200000, past the parser's bound of 100000"),
    (["construct", "cheb", "-50001"],
     "bad d -50001; the certificate's pullback may reach degree 100002, past the parser's bound of 100000"),
    (["construct", "lattes", "1", "0", "400"],
     "bad m 400; the certificate's pullback may reach degree 160000, past the parser's bound of 100000"),
])
def test_construct_past_the_parser_bound_is_a_usage_error(capsys, argv, message):
    # the degree comes from the parameters alone: |d| w for power and
    # Chebyshev maps (w = p - 1, or 1 and 2 over Q) and m^2 for Lattes maps
    start = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - start < 0.05
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_construct_power_at_the_parser_bound(capsys):
    # |d| (p - 1) = 1000 * 100 is the bound itself
    code, out, _ = run(capsys, "construct", "power", "1000", "--p", "101")
    assert code == 0
    assert "sigma: t^1000" in out.splitlines()


def test_verify_weight_at_the_parser_bound(capsys):
    # t^2 mod 5: W = 2t, so the weight-w pullback of 1/t has degree 2 + w
    code, out, _ = run(capsys, "verify", "t^2", "--p", "5", "--form", "1/t", "--weight", "99998")
    assert (code, out) == (0, "neither\n")


def test_verify_bad_prime(capsys):
    code, _, err = run(capsys, "verify", "t^2", "--p", "2", "--form", "1/t", "--weight", "1")
    assert code == 3
    assert "excluded" in err


# ---------------------------------------------------------------- construct

def test_construct_cheb(capsys):
    code, out, _ = run(capsys, "construct", "cheb", "3")
    assert code == 0
    assert "sigma: t^3 - 3*t" in out
    assert "form: 1/(t^2 - 4)" in out
    assert "weight: 2" in out
    assert "lambda: 9" in out


def test_construct_power_mod_p(capsys):
    code, out, _ = run(capsys, "construct", "power", "-2", "--p", "7")
    assert code == 0
    assert "sigma: 1/t^2" in out
    assert "form: 1/t^6" in out
    assert "weight: 6" in out


def test_construct_lattes(capsys):
    code, out, _ = run(capsys, "construct", "lattes", "1", "0", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma"] == "(1/4*x^4 - 1/2*x^2 + 1/4)/(x^3 + x)"
    assert doc["weight"] == 2
    assert doc["lambda"] == "4"


def test_construct_bad_input(capsys):
    code, _, err = run(capsys, "construct", "power", "5", "--p", "5")
    assert code == 3


@pytest.mark.parametrize("params, message", [
    (("power",), "construct power needs one argument: d"),
    (("cheb", "1", "2"), "construct cheb needs one argument: d (negative d means -Cheb_|d|)"),
    (("lattes", "1", "0"), "construct lattes needs three arguments: a b m"),
])
def test_construct_argument_count(capsys, params, message):
    code, out, err = run(capsys, "construct", *params)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_construct_zero_denominator_is_a_usage_error(capsys):
    # Fraction("1/0") raises ZeroDivisionError; exit 1 would read as not-flat
    code, out, err = run(capsys, "construct", "lattes", "1/0", "0", "2")
    assert (code, out) == (3, "")
    assert err.startswith("error:")


# ---------------------------------------------------------------- orbifold

def test_orbifold_report(capsys):
    code, out, _ = run(capsys, "orbifold", "t^2-2", "--p", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chi"] == "0"
    assert doc["signature"] == [2, 2, "inf"]
    assert doc["postcritical"] == [{"class": "t + 2", "points": 1, "mu": 2},
                                   {"class": "t + 5", "points": 1, "mu": 2},
                                   {"class": "inf", "points": 1, "mu": "inf"}]


def test_orbifold_extension_field(capsys):
    code, out, _ = run(capsys, "orbifold", "t^3+t+1", "--p", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    # the critical points lie in F(5^2); two postcritical classes have two
    # points each, named by their minimal polynomials over F_5
    assert [(item["class"], item["points"]) for item in doc["postcritical"]] == [
        ("t + 2", 1), ("t + 4", 1), ("t^2 + t + 2", 2), ("t^2 + 3*t + 3", 2), ("inf", 1)]
    assert "splitting_field" not in doc and "field_modulus" not in doc
    code, out, _ = run(capsys, "orbifold", "t^3+t+1", "--p", "5")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "map: t^3+t+1  p=5"
    assert lines[1:-1] == [f"  mu({item['class']}) = {item['mu']}   points: {item['points']}"
                           for item in doc["postcritical"]]
    assert lines[-1] == "chi = -2   signature (2,2,2,2,2,2,inf)   parabolic: False"


# ---------------------------------------------------------------- consistency

def test_every_emitted_form_verifies(capsys):
    report = run_classify("t^3", 5, 30)
    for item in report["primes"]:
        if not item["good"]:
            continue
        for f in item["forms_found"]:
            code, out, _ = run(capsys, "verify", "t^3", "--p", str(item["p"]),
                               "--form", f["f"], "--weight", str(f["weight"]))
            assert code == 0
            assert out.strip() == "invariant"


def test_usage_error_exit_code(capsys):
    assert main(["classify"]) == 3  # argparse SystemExit path
    assert main(["--help"]) == 0
    assert "usage: flatlab" in capsys.readouterr().out
    code, _, _ = run(capsys, "classify", "t^2", "--primes", "bad")
    assert code == 3


def test_classify_timings_opt_in(capsys):
    _, out, _ = run(capsys, "classify", "t^2", "--primes", "5..10", "--json", "--timings")
    doc = json.loads(out)
    good = [item for item in doc["primes"] if item["good"]]
    assert good and all("timings" in item for item in good)
    _, out, _ = run(capsys, "classify", "t^2", "--primes", "5..10", "--json")
    assert "timings" not in out
    _, out, _ = run(capsys, "classify", "t^2", "--primes", "5..10", "--timings")
    good = [line for line in out.splitlines() if line.startswith("  p=")]
    assert len(good) == 2 and all("   [{'reduce_ms': " in line for line in good)

