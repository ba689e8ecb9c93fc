"""Golden reports: the CLI's JSON output must stay byte-identical.

The fixtures under tests/golden/ were captured from `flatlab ... --json`;
regenerate one only when a change means to alter the report, and say why.
"""

import json
from pathlib import Path

import pytest

from conftest import frobenius_class

from flatlab import Poly, format_ratfunc, orbifold_data, parse_ratfunc, postcritical_graph, rationals, reduce_mod_p
from flatlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
LATTES = "(1/4*x^4 - 1/2*x^2 + 1/4)/(x^3 + x)"
LATTES_X3P1 = "(1/4*t^4 - 2*t)/(t^3 + 1)"  # doubling on y^2 = x^3 + 1
LATTES_X3MXP1 = "(1/4*t^4 + 1/2*t^2 - 2*t + 1/4)/(t^3 - t + 1)"  # on y^2 = x^3 - x + 1
WEIGHTS = ["--weights", "1,2,3,4,6,12"]
CONJUGATE_BY = "(2*t+1)/(t+3)"
# {name: (table map, its conjugate by CONJUGATE_BY as format_ratfunc prints it)}
CONJUGATE_PAIRS = {
    "244-d4": ("(t-1)^4/(16*t*(t+1)^2)",
               "(-t^4 + 4*t^3 - 25/4*t^2 + 11/4*t - 13/32)/(t^4 - 21/4*t^2 + 3/2*t + 3/64)"),
    "236-d3": ("-(t+4)^3/(27*t^2)",
               "(241/728*t^3 - 303/364*t^2 + 57/728*t + 79/91)/(t^3 - 1923/728*t^2 + 453/364*t + 181/728)"),
    "333-d4": ("(t^4+18*t^2-27)/(8*t^3)",
               "(-1/2*t^4 + 3/2*t^3 - 7/6*t^2 - 53/27*t + 367/216)/(t^4 - 3*t^3 + 7/3*t^2 - 67/36*t + 407/432)"),
}
CONJUGATES = {name: conj for name, (_, conj) in CONJUGATE_PAIRS.items()}

CASES = {
    "classify-t2-char0": ["classify", "t^2", "--primes", "5..30", "--char0"],
    "classify-inv-t2-char0": ["classify", "1/t^2", "--primes", "5..30", "--char0"],
    "classify-cheb2-char0": ["classify", "t^2-2", "--primes", "5..30", "--char0"],
    "classify-cheb3-char0": ["classify", "t^3-3*t", "--primes", "5..30", "--char0"],
    "classify-t2m1-char0": ["classify", "t^2-1", "--primes", "5..30", "--char0"],
    "classify-t3t1-char0": ["classify", "t^3+t+1", "--primes", "5..30", "--char0"],
    "classify-t2p1": ["classify", "t^2+1", "--primes", "5..30"],
    "classify-t2p1-over-t": ["classify", "(t^2+1)/t", "--primes", "5..30"],
    "classify-lattes-char0": ["classify", LATTES, "--primes", "11..30", "--char0"],
    "classify-t4t1-over-t2p3": ["classify", "(t^4+t+1)/(t^2+3)", "--primes", "5..50"],
    "classify-t6t5t3": ["classify", "t^6+t^5+2*t+3", "--primes", "5..50"],
    "classify-lattes-x3p1": ["classify", LATTES_X3P1, "--primes", "5..50"],
    "classify-lattes-x3mxp1": ["classify", LATTES_X3MXP1, "--primes", "5..50"],
    "classify-t3-weights": ["classify", "t^3", "--primes", "5..50"] + WEIGHTS,
    "classify-lattes-weights": ["classify", LATTES, "--primes", "5..50"] + WEIGHTS,
    "classify-t2-5-50": ["classify", "t^2", "--primes", "5..50"],
    "classify-inv-t2-5-50": ["classify", "1/t^2", "--primes", "5..50"],
    "classify-cheb2-5-50": ["classify", "t^2-2", "--primes", "5..50"],
    # the corpus map -(t^2-2); argparse reads a space-free leading "-" as an option
    "classify-neg-cheb2-5-50": ["classify", "2-t^2", "--primes", "5..50"],
    "classify-cheb3-5-50": ["classify", "t^3-3*t", "--primes", "5..50"],
    "classify-t2p1-5-50": ["classify", "t^2+1", "--primes", "5..50"],
    "classify-t3t1-5-50": ["classify", "t^3+t+1", "--primes", "5..50"],
    "classify-t2p1-over-t-5-50": ["classify", "(t^2+1)/t", "--primes", "5..50"],
    "classify-t3p2-over-t2p1": ["classify", "(t^3+2)/(t^2+1)", "--primes", "5..50"],
    "classify-t4t3p2": ["classify", "t^4+t^3+2", "--primes", "5..50"],
    "classify-t5t4m1": ["classify", "t^5+t^4-1", "--primes", "5..50"],
    "classify-t6p3t2p1": ["classify", "t^6+3*t^2+1", "--primes", "5..50"],
    # weight-796/808 forms: the substitution's deepest recursion
    "classify-lattes-797-809": ["classify", LATTES, "--primes", "797..809"],
    "classify-cheb3-797-809": ["classify", "t^3-3*t", "--primes", "797..809"],
    "orbifold-t3t1-p5": ["orbifold", "t^3+t+1", "--p", "5"],
    "orbifold-t3t1-p7": ["orbifold", "t^3+t+1", "--p", "7"],
    "orbifold-t2p1-over-t-p11": ["orbifold", "(t^2+1)/t", "--p", "11"],
    "orbifold-lattes-p13": ["orbifold", LATTES, "--p", "13"],
    "orbifold-t4t1-over-t2p3-p11": ["orbifold", "(t^4+t+1)/(t^2+3)", "--p", "11"],
    # the (2,4,4), (2,3,6) and (3,3,3) Lattes maps of degree 4, 3 and 4; the
    # space keeps argparse from reading the leading "-" as an option
    "orbifold-lattes-244-d4-p13": ["orbifold", "(t-1)^4/(16*t*(t+1)^2)", "--p", "13"],
    "orbifold-lattes-236-d3-p13": ["orbifold", "-(t+4)^3 / (27*t^2)", "--p", "13"],
    "orbifold-lattes-333-d4-p13": ["orbifold", "(t^4+18*t^2-27)/(8*t^3)", "--p", "13"],
    "classify-lattes-244-d4-5-50": ["classify", "(t-1)^4/(16*t*(t+1)^2)", "--primes", "5..50"],
    "classify-lattes-236-d3-5-50": ["classify", "-(t+4)^3 / (27*t^2)", "--primes", "5..50"],
    "classify-lattes-333-d4-5-50": ["classify", "(t^4+18*t^2-27)/(8*t^3)", "--primes", "5..50"],
    # the (2,4,4) map of degree 2, the (2,3,6) map of degree 4, and the x of
    # [sqrt(-2)] on y^2 = x^3 + 4x^2 + 2x, a (2,2,2,2) map of degree 2
    "classify-lattes-244-d2-5-50": ["classify", "-(t+1)^2 / (4*t)", "--primes", "5..50"],
    "classify-lattes-236-d4-5-50": ["classify", "t*(t-8)^3/(64*(t+1)^3)", "--primes", "5..50"],
    "classify-lattes-2222-cm-d2-5-50": ["classify", "-(t^2+4*t+2) / (2*t)", "--primes", "5..50"],
    # the (2,4,4), (2,3,6) and (3,3,3) maps above conjugated by (2t+1)/(t+3)
    **{f"classify-lattes-{name}-conj-5-50": ["classify", CONJUGATES[name], "--primes", "5..50"]
       for name in ("244-d4", "236-d3", "333-d4")},
    "construct-lattes-1-0-2": ["construct", "lattes", "1", "0", "2"],
    "construct-lattes-m1-1-2": ["construct", "lattes", "-1", "1", "2"],
    "construct-lattes-2-3-3-p101": ["construct", "lattes", "2", "3", "3", "--p", "101"],
    "construct-lattes-1-0-5-p53": ["construct", "lattes", "1", "0", "5", "--p", "53"],
    "construct-power-m2-p7": ["construct", "power", "-2", "--p", "7"],
    "construct-power-3-p11": ["construct", "power", "3", "--p", "11"],
    "construct-power-m3": ["construct", "power", "-3"],
    "construct-cheb-3-p13": ["construct", "cheb", "3", "--p", "13"],
    "construct-cheb-m4-p11": ["construct", "cheb", "-4", "--p", "11"],
    "construct-cheb-4": ["construct", "cheb", "4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, capsys):
    main(CASES[name] + ["--json"])
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(CONJUGATE_PAIRS))
def test_conjugate_cases_are_the_conjugates(name):
    table_map, conj = CONJUGATE_PAIRS[name]
    phi = parse_ratfunc(CONJUGATE_BY, rationals())
    assert format_ratfunc(parse_ratfunc(table_map, rationals()).conjugate(phi)) == conj


def test_every_golden_file_has_a_case():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(f"{name}.json" for name in CASES)


# The postcritical listings of the orbifold goldens as recorded when the
# report printed every point, in the basis g of the F_{p^k} modulus, sorted
# by point: {golden name: [[point, mu], ...]}.
POINT_LISTINGS = json.loads((Path(__file__).parent / "orbifold_points.json").read_text())


@pytest.mark.parametrize("name", sorted(POINT_LISTINGS))
def test_orbifold_classes_name_the_recorded_points(name):
    # each row names one Frobenius class: the row's polynomial is the product
    # of t - c over the class's points, rebuilt with frobenius_class; those
    # points carry the row's mu in the recorded listing, and together the
    # rows cover that listing exactly
    _, expr, _, p = CASES[name]
    data = orbifold_data(postcritical_graph(reduce_mod_p(parse_ratfunc(expr, rationals()), int(p))))
    ext = data.field
    by_poly = {}
    for v in data.postcritical:
        points = frobenius_class(ext, v)
        h = None
        if not points[0].is_infinity:
            h = Poly.one(ext)
            for pt in points:
                h = h * Poly(ext, (-pt.value, 1))
        by_poly[h] = [str(pt) for pt in points]
    recorded = dict(POINT_LISTINGS[name])
    covered = []
    for row in json.loads((GOLDEN / f"{name}.json").read_text())["postcritical"]:
        points = by_poly.pop(None if row["class"] == "inf" else parse_ratfunc(row["class"], ext).num)
        assert row["points"] == len(points)
        assert [recorded[pt] for pt in points] == [row["mu"]] * len(points)
        covered += points
    assert not by_poly
    assert sorted(covered) == sorted(recorded)
