"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance here is exact: all arithmetic is over Q or
F_{p^k} with no floating point anywhere.
"""

import random

from conftest import (
    FLAT_BATTERY,
    NONFLAT_BATTERY,
    assert_mu_matches,
    lattes_expr,
    mu_oracle,
    random_separable_map,
)

from flatlab import (
    EllipticCurve,
    Poly,
    RatFunc,
    TupleForm,
    chebyshev_poly,
    field_create,
    form_ord,
    form_power,
    form_pullback,
    invariance_check,
    invariant_search,
    kummer_genus,
    lattes_map,
    mu_compute,
    orbifold_data,
    p1_eval,
    parabolic_signature,
    parse_ratfunc,
    postcritical_graph,
    power_map,
    ram_index,
    rationals,
    reduce_mod_p,
    weight_reduce,
)
from flatlab.cli import run_classify
from flatlab.errors import BadPrime

PRIMES_TO_50 = [p for p in range(5, 51) if all(p % q for q in range(2, p))]


def test_criterion_01_power_map_certificates():
    checked = 0
    for d in (2, 3, 4):
        for p in PRIMES_TO_50:
            if d % p == 0 or p <= d:
                continue
            field = field_create(p)
            sigma = parse_ratfunc(f"t^{d}", field)
            omega = TupleForm(RatFunc(Poly.one(field), Poly.gen(field) ** (p - 1)), p - 1)
            assert invariance_check(sigma, omega).invariant
            checked += 1
    assert checked >= 30
    print(f"\nACCEPTANCE 1: PASS - (dt/t)^(p-1) invariant for t^d, {checked} (d, p) pairs")


def test_criterion_02_chebyshev_certificates():
    checked = 0
    for d in (2, 3, 4):
        for p in PRIMES_TO_50:
            if d % p == 0 or p <= d:
                continue
            field = field_create(p)
            den = (Poly.gen(field) ** 2 - 4) ** ((p - 1) // 2)
            omega = TupleForm(RatFunc(Poly.one(field), den), p - 1)
            for sign in (1, -1):
                cert = chebyshev_poly(d, sign, field)
                assert invariance_check(cert.sigma, omega).invariant
                checked += 1
    t_plus = parse_ratfunc("t + 1/t", rationals())
    for d in range(2, 9):
        cheb = chebyshev_poly(d).sigma
        assert cheb.compose(t_plus) == parse_ratfunc(f"(t^{2 * d} + 1)/t^{d}", rationals())
    print(f"\nACCEPTANCE 2: PASS - Chebyshev certificates at {checked} (d, sign, p) triples "
          "and the defining identity for d <= 8")


def test_criterion_03_lattes_certificates():
    checked = 0
    for a, b in [(1, 0), (0, 1)]:
        for p in PRIMES_TO_50:
            if p < 11:
                continue
            field = field_create(p)
            cert = lattes_map(EllipticCurve(field, field.elem(a), field.elem(b)), 2)
            res = invariance_check(cert.sigma, cert.form)
            assert res.semi_invariant and res.lam == field.elem(4)
            assert invariance_check(cert.sigma, form_power(cert.form, p - 1)).invariant
            data = orbifold_data(postcritical_graph(cert.sigma))
            assert parabolic_signature(data).signature == (2, 2, 2, 2)
            assert data.chi == 0
            checked += 1
    print(f"\nACCEPTANCE 3: PASS - Lattes lambda = 4, omega^(p-1) invariant, "
          f"signature (2,2,2,2), chi = 0 at {checked} (curve, p) pairs")


def criterion_04_found_forms():
    found = {}
    found["power"] = invariant_search(parse_ratfunc("t^2", field_create(5)), 4)
    found["cheb"] = invariant_search(parse_ratfunc("t^2-2", field_create(7)), 6)
    return found


def test_criterion_04_search_recovers_closed_forms():
    F5, F7 = field_create(5), field_create(7)
    found = criterion_04_found_forms()
    assert len(found["power"]) == 1
    assert found["power"][0] == TupleForm(parse_ratfunc("1/t^4", F5), 4)
    assert len(found["cheb"]) == 1
    assert found["cheb"][0] == TupleForm(parse_ratfunc("1/(t^2-4)^3", F7), 6)
    for p in (5, 7, 11):
        out = invariant_search(parse_ratfunc("t^2+1", field_create(p)), p - 1)
        assert out == []
    print("\nACCEPTANCE 4: PASS - search returns exactly the closed forms for t^2 and "
          "t^2-2 and nothing for t^2+1 at p in {5, 7, 11}")


def test_criterion_05_pullback_order_identity_suite():
    rng = random.Random(2023)
    violations = 0
    instances = 0
    while instances < 200:
        p = rng.choice((5, 7, 11, 13))
        base = field_create(p)
        sigma = random_separable_map(rng, base, 4)
        if sigma.degree < 1:
            continue
        k = rng.choice((1, 2))
        ext = field_create(p, k) if k > 1 else base
        sig = sigma.lift_to(ext)
        if sig.derivative().is_zero:
            continue
        # random monomial or binomial form
        nu = rng.choice((-3, -2, -1, 1, 2, 3, 4))
        c = ext.elem_from_index(rng.randrange(1, ext.order))
        r = ext.elem_from_index(rng.randrange(ext.order))
        t = Poly.gen(ext)
        num = Poly.constant(ext, c)
        den = Poly.one(ext)
        for exp, root_shift in [(rng.randrange(0, 3), None), (rng.randrange(0, 3), r)]:
            factor = t if root_shift is None else t - root_shift
            if rng.random() < 0.5:
                num = num * factor ** exp
            else:
                den = den * factor ** exp
        if num.is_zero or den.is_zero:
            continue
        omega = TupleForm(RatFunc(num, den), nu)
        if omega.func.is_zero:
            continue
        B = None if rng.random() < 0.2 else ext.elem_from_index(rng.randrange(ext.order))
        A = p1_eval(sig, B)
        e = ram_index(sig, B)
        lhs = form_ord(form_pullback(sig, omega), B) + nu
        rhs = e * (form_ord(omega, A) + nu)
        if lhs != rhs:
            violations += 1
        instances += 1
    assert violations == 0
    print(f"\nACCEPTANCE 5: PASS - ord_B(pullback) + nu = e_B (ord_A + nu) on "
          f"{instances} randomized instances, zero violations")


def test_criterion_06_mu_oracle_equivalence():
    checked = 0
    for expr in FLAT_BATTERY + NONFLAT_BATTERY:
        for p in (5, 7, 11, 13):
            sigma = parse_ratfunc(expr, rationals())
            try:
                sig_p = reduce_mod_p(sigma, p)
            except BadPrime:
                continue
            graph = postcritical_graph(sig_p)
            if graph.field.order > 49:
                continue
            assert_mu_matches(graph, mu_compute(graph), mu_oracle(graph), f"{expr} mod {p}")
            checked += 1
    assert checked >= 12
    print(f"\nACCEPTANCE 6: PASS - mu matches the brute-force preimage-chain oracle "
          f"on {checked} (map, p) pairs with field size <= 49")


def test_criterion_07_kummer_genus_dichotomy():
    checked = 0
    for p in PRIMES_TO_50:
        field = field_create(p)
        assert kummer_genus(power_map(2, field).form).genus == 0
        checked += 1
        assert kummer_genus(chebyshev_poly(2, 1, field).form).genus == 0
        checked += 1
        if p >= 11:
            cert = lattes_map(EllipticCurve(field, field.one, field.zero), 2)
            assert kummer_genus(cert.form).genus == 1
            checked += 1
    for forms in criterion_04_found_forms().values():
        for omega in forms:
            assert kummer_genus(omega).genus in (0, 1)
            checked += 1
    print(f"\nACCEPTANCE 7: PASS - Kummer cover genus 0 for power/Chebyshev forms, "
          f"1 for Lattes forms, in {{0, 1}} for searched forms ({checked} checks)")


def test_criterion_08_weight_reduction():
    F5 = field_create(5)
    sigma = parse_ratfunc("t^2", F5)
    for j in (1, 2):
        nu = 4 * 5 ** j
        omega = TupleForm(RatFunc(Poly.one(F5), Poly.gen(F5) ** nu), nu)
        assert invariance_check(sigma, omega).invariant
        reduced = weight_reduce(sigma, omega, F5.one)
        assert reduced.weight > 0 and reduced.weight % 5
        assert invariance_check(sigma, reduced).semi_invariant
    print("\nACCEPTANCE 8: PASS - weight reduction yields semi-invariant forms of "
          "positive weight coprime to 5 for weights 20 and 100")


def test_criterion_09_classification_sweep():
    flat_exprs = FLAT_BATTERY + [lattes_expr()]
    for expr in flat_exprs:
        report = run_classify(expr, 5, 50)
        assert report["verdict"]["label"] == "flat-candidate", expr
        for item in report["primes"]:
            if item.get("forms_found"):
                assert item["chi"] == "0"
    for expr in NONFLAT_BATTERY:
        report = run_classify(expr, 5, 50)
        assert report["verdict"]["label"] == "not-flat", expr
        for item in report["primes"]:
            if item.get("forms_found"):
                assert item["chi"] == "0"
    print(f"\nACCEPTANCE 9: PASS - primes 5..50: {len(flat_exprs)} flat maps labeled "
          f"flat-candidate, {len(NONFLAT_BATTERY)} maps labeled not-flat, and "
          "forms_found implies chi = 0 throughout")


def test_criterion_10_mobius_robustness():
    mobius = ["t+1", "2*t", "(t+1)/(t-1)"]
    q = rationals()
    battery = FLAT_BATTERY + [lattes_expr()] + NONFLAT_BATTERY
    pairs = 0
    for expr in battery:
        base_report = run_classify(expr, 5, 50)
        base_sigs = {item["p"]: item["signature"] for item in base_report["primes"] if item["good"]}
        sigma = parse_ratfunc(expr, q)
        for phi_expr in mobius:
            conj = sigma.conjugate(parse_ratfunc(phi_expr, q))
            report = run_classify(str(conj), 5, 50)
            assert report["verdict"]["label"] == base_report["verdict"]["label"], (expr, phi_expr)
            for item in report["primes"]:
                if item["good"] and item["p"] in base_sigs:
                    assert item["signature"] == base_sigs[item["p"]], (expr, phi_expr, item["p"])
            pairs += 1
    print(f"\nACCEPTANCE 10: PASS - verdicts and shared-prime signatures agree under "
          f"{pairs} Moebius conjugations")
