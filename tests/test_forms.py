import math
import random

import pytest

from conftest import random_separable_map

from flatlab import (
    EllipticCurve,
    INFINITY,
    P1Point,
    Poly,
    RatFunc,
    TupleForm,
    field_create,
    form_mul,
    form_ord,
    form_power,
    form_pullback,
    invariance_check,
    invariant_search,
    p1_eval,
    parse_ratfunc,
    orbifold_data,
    parabolic_signature,
    poly_factor,
    poly_roots,
    postcritical_graph,
    reduce_mod_p,
    ram_index,
    rationals,
    weight_reduce,
)
from flatlab import atlas, dynamics, exactnum, forms, orbifold, ratfunc
from flatlab.errors import BadPrime, BadWeight, FieldMismatch, Inseparable, NotSemiInvariant
from flatlab.exactnum import _gf_mul
from flatlab.forms import InvarianceResult, _pole_cap, _solve
from flatlab.orbifold import PARABOLIC_SIGNATURES

Q = rationals()
F5 = field_create(5)
F7 = field_create(7)


def form(expr, weight, field):
    return TupleForm(parse_ratfunc(expr, field), weight)


# ---------------------------------------------------------------- pullback

def test_pullback_dt_along_square():
    out = form_pullback(parse_ratfunc("t^2", Q), form("1", 1, Q))
    assert out.func == parse_ratfunc("2*t", Q)
    assert out.weight == 1


def test_pullback_power_form_is_fixed():
    sig = parse_ratfunc("t^2", F5)
    w = form("1/t^4", 4, F5)
    assert form_pullback(sig, w) == w  # 2^4 = 16 = 1 mod 5


def test_pullback_functorial():
    sig = parse_ratfunc("t^2", F7)
    tau = parse_ratfunc("t^2", F7)
    w = form("1", 1, F7)
    assert form_pullback(tau, form_pullback(sig, w)) == form_pullback(sig.compose(tau), w)


def test_pullback_functorial_random():
    rng = random.Random(41)
    for _ in range(10):
        sig = random_separable_map(rng, F7, 2)
        tau = random_separable_map(rng, F7, 2)
        comp = sig.compose(tau)
        if comp.is_constant or comp.derivative().is_zero:
            continue
        w = form("t/(t+1)", 2, F7)
        assert form_pullback(comp, w) == form_pullback(tau, form_pullback(sig, w))


def test_pullback_multiplicative_in_weight():
    rng = random.Random(43)
    for _ in range(10):
        sig = random_separable_map(rng, F5, 2)
        w1 = form("t", 1, F5)
        w2 = form("1/(t+1)", 2, F5)
        lhs = form_pullback(sig, form_mul(w1, w2))
        rhs = form_mul(form_pullback(sig, w1), form_pullback(sig, w2))
        assert lhs == rhs


def test_pullback_inseparable_rejected():
    F11 = field_create(11)
    with pytest.raises(Inseparable):
        form_pullback(parse_ratfunc("t^11", F11), form("1", 1, F11))


# ---------------------------------------------------------------- orders

def test_ord_examples():
    w = form("1/t^4", 4, F5)
    assert form_ord(w, P1Point(F5.zero)) == -4
    assert form_ord(w, INFINITY) == -4
    assert form_ord(form("1", 1, F5), INFINITY) == -2


def test_total_divisor_degree():
    # sum of orders over P^1 of a splitting field equals -2 * weight; off
    # the roots of the numerator and denominator the order is 0, so the sum
    # runs over those roots and infinity
    cases = [form("1/t^4", 4, F5), form("1/(t^2-4)^3", 6, F7),
             form("(t^2+1)/(t^3+2*t+1)", 3, F7), form("t^3+t+1", -2, F5),
             invariant_search(parse_ratfunc("t^2-2", F7), 6)[0]]
    for w in cases:
        field = w.field
        factors = poly_factor(w.func.num) + poly_factor(w.func.den)
        k = math.lcm(1, *(g.degree for g, _ in factors))
        ext = field_create(field.p, k) if k > 1 else field
        lifted = TupleForm(w.func.lift_to(ext), w.weight)
        roots = {P1Point(a) for g, _ in factors for a, _ in poly_roots(g.lift_to(ext))}
        assert len(roots) == sum(g.degree for g, _ in factors)
        total = form_ord(lifted, INFINITY) + sum(form_ord(lifted, pt) for pt in roots)
        assert total == -2 * w.weight
        for a in field.elements():
            pt = P1Point(ext.lift(a))
            if pt not in roots:
                assert form_ord(lifted, pt) == 0


def test_pullback_order_identity_smoke():
    # ord_B(pullback) + nu = e(B) (ord_A(omega) + nu) at a ramified point
    sig = parse_ratfunc("t^2", F7)
    w = form("t^3", 2, F7)
    B = P1Point(F7.zero)
    A = p1_eval(sig, B)
    pulled = form_pullback(sig, w)
    assert form_ord(pulled, B) + 2 == ram_index(sig, B) * (form_ord(w, A) + 2)


# ---------------------------------------------------------------- invariance

def test_invariance_power_family():
    res = invariance_check(parse_ratfunc("t^3", F7), form("1/t^6", 6, F7))
    assert res.invariant and res.lam == F7.one


def test_invariance_chebyshev_family():
    res = invariance_check(parse_ratfunc("t^2-2", F7), form("1/(t^2-4)^3", 6, F7))
    assert res.invariant


def test_invariance_negative():
    res = invariance_check(parse_ratfunc("t^2+1", F5), form("1/t^4", 4, F5))
    assert not res.invariant and res.lam is None


def test_semi_invariance_weight_one():
    # sigma = t^2 scales dt/t by 2
    res = invariance_check(parse_ratfunc("t^2", F7), form("1/t", 1, F7))
    assert not res.invariant and res.lam == F7.elem(2)


def test_semi_invariance_power_strips_lambda():
    # lambda^(q-1) = 1, so the (q-1)-th power of a semi-invariant is invariant
    sig = parse_ratfunc("t^2", F7)
    w = form("1/t", 1, F7)
    res = invariance_check(sig, form_power(w, 6))
    assert res.invariant


def _chain_rule_pullback(sigma, omega):
    """sigma^* omega by composition and the chain rule in RatFunc arithmetic."""
    return TupleForm(omega.func.compose(sigma) * sigma.derivative() ** omega.weight, omega.weight)


def _quotient_check(pulled, omega):
    """The check by exact division: divide the pullback by omega and read
    lambda off a constant quotient."""
    quot = pulled.func / omega.func
    lam = quot.constant_value() if quot.is_constant else None
    return InvarianceResult(invariant=(lam == omega.field.one), lam=lam)


def _draw(rng, field):
    if field.is_rationals:
        return rng.randrange(-3, 4)
    return field.elem_from_index(rng.randrange(field.order))


def _random_func(rng, field, max_deg):
    while True:
        num = Poly(field, [_draw(rng, field) for _ in range(rng.randrange(1, max_deg + 2))])
        den = Poly(field, [_draw(rng, field) for _ in range(rng.randrange(1, max_deg + 2))])
        if not num.is_zero and not den.is_zero:
            return RatFunc(num, den)


@pytest.mark.parametrize("field", [field_create(13), field_create(11, 2), Q], ids=["F13", "F121", "Q"])
def test_invariance_check_matches_quotient_oracle(field):
    # invariant and semi-invariant families and random forms, weights +-1..+-6
    rng = random.Random(field.order if field.p else 0)
    max_deg = 2 if field.is_rationals else 3  # Euclid over Q in the oracle swells fast
    t = RatFunc.gen(field)
    lattes = atlas.lattes_map(EllipticCurve(field, field.one, field.zero), 2)
    families = [
        (parse_ratfunc("1/t", field), TupleForm(1 / t, 1)),  # lambda = -1
        (parse_ratfunc("t^3", field), TupleForm(1 / t, 1)),  # lambda = 3
        (parse_ratfunc("t^2-2", field), TupleForm(1 / parse_ratfunc("t^2-4", field), 2)),  # lambda = 4
        (lattes.sigma, lattes.form),  # lambda = m^2 = 4
    ]
    cases = []
    for sigma, base in families:
        cases += [(sigma, form_power(base, n)) for n in range(-6, 7) if n and abs(n * base.weight) <= 6]
    sigmas = [sigma for sigma, _ in families]
    while len(sigmas) < 7:
        sigma = _random_func(rng, field, max_deg)
        if not sigma.is_constant and not sigma.derivative().is_zero:
            sigmas.append(sigma)
    for sigma in sigmas:
        for weight in (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6):
            cases.append((sigma, TupleForm(_random_func(rng, field, max_deg), weight)))
    kinds = set()
    for sigma, omega in cases:
        pulled = _chain_rule_pullback(sigma, omega)
        want = _quotient_check(pulled, omega)
        assert invariance_check(sigma, omega) == want, (str(sigma), str(omega))
        assert form_pullback(sigma, omega) == pulled
        kinds.add("invariant" if want.invariant else "semi" if want.semi_invariant else "none")
    assert kinds == {"invariant", "semi", "none"}


def test_invariance_check_errors():
    sigma = parse_ratfunc("t^2", F5)
    with pytest.raises(ValueError):
        invariance_check(sigma, form("0", 1, F5))
    with pytest.raises(ValueError):
        invariance_check(parse_ratfunc("3", F5), form("1/t", 1, F5))
    with pytest.raises(FieldMismatch):
        invariance_check(sigma, form("1/t", 1, F7))
    with pytest.raises(Inseparable):
        invariance_check(parse_ratfunc("t^5+t^10", F5), form("1/t", 1, F5))


def test_prime_field_invariance_check_takes_no_gcd(monkeypatch):
    # the check compares two products; a RatFunc gcd would show as _gf_gcd
    calls = []
    original = exactnum._gf_gcd

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    for mod in (exactnum, ratfunc, dynamics, orbifold, forms, atlas):
        if getattr(mod, "_gf_gcd", None) is original:
            monkeypatch.setattr(mod, "_gf_gcd", counted)
    F47 = field_create(47)
    cert = atlas.lattes_map(EllipticCurve(F47, F47.one, F47.zero), 2)
    omega, other = form_power(cert.form, 23), form("t/(t+1)", -3, F47)
    calls.clear()
    assert invariance_check(cert.sigma, omega).invariant
    assert invariance_check(cert.sigma, other).lam is None
    assert calls == []
    # the wrapper is live: a RatFunc over F_p does reach it
    RatFunc(cert.sigma.num, cert.sigma.den)
    assert calls


# ---------------------------------------------------------------- weight reduction

def test_weight_reduce_untouched():
    sig = parse_ratfunc("t^2", F5)
    w = form("1/t^4", 4, F5)
    assert weight_reduce(sig, w, F5.one) == w


def test_weight_reduce_pth_root():
    sig = parse_ratfunc("t^2", F5)
    w = form("1/t^20", 20, F5)
    out = weight_reduce(sig, w, F5.one)
    assert out == form("1/t^4", 4, F5)
    assert invariance_check(sig, out).invariant


def test_weight_reduce_double_descent():
    sig = parse_ratfunc("t^2", F5)
    w = form("1/t^100", 100, F5)
    out = weight_reduce(sig, w, F5.one)
    assert out.weight == 4 and out.weight % 5
    assert invariance_check(sig, out).invariant


def test_weight_reduce_negative_weight():
    sig = parse_ratfunc("t^2", F5)
    w = form("t^4", -4, F5)  # inverse of the invariant form
    out = weight_reduce(sig, w, F5.one)
    assert out.weight == 4
    assert invariance_check(sig, out).semi_invariant


def test_weight_reduce_weight_equal_p():
    # weight p itself: the p-th root branch descends all the way to weight 1
    # (df = 0 is forced here: a semi-invariant with p | weight and df != 0
    # would yield a weight-1 invariant form, which pins sigma to the power
    # family, whose weight-p semi-invariants are the monomials c t^-p)
    sig = parse_ratfunc("t^2", F5)
    w = form("1/t^5", 5, F5)
    res = invariance_check(sig, w)
    assert res.semi_invariant and res.lam == F5.elem(2)  # 2^5 = 32 = 2 mod 5
    out = weight_reduce(sig, w, res.lam)
    assert out == form("1/t", 1, F5)
    assert invariance_check(sig, out).lam == F5.elem(2)


def test_weight_reduce_logarithmic_derivative():
    # weight p with df != 0: the semi-invariant t (dt)^5 of 2t (lambda = 2^5 = 4)
    # reduces to its invariant logarithmic derivative (1/t) dt
    sig = parse_ratfunc("2*t", F5)
    w = form("t", 5, F5)
    assert invariance_check(sig, w).lam == F5.elem(4)
    out = weight_reduce(sig, w, 4)
    assert out == form("1/t", 1, F5)
    assert invariance_check(sig, out).invariant


def test_weight_reduce_bad_certificate():
    sig = parse_ratfunc("t^2", F5)
    w = form("1/(t^5*(t-1)^5)", 5, F5)
    with pytest.raises(NotSemiInvariant):
        weight_reduce(sig, w, F5.one)


# ---------------------------------------------------------------- search

def test_search_power_map():
    out = invariant_search(parse_ratfunc("t^2", F5), 4)
    assert len(out) == 1
    assert out[0] == form("1/t^4", 4, F5)


def test_search_chebyshev():
    out = invariant_search(parse_ratfunc("t^2-2", F7), 6)
    assert len(out) == 1
    assert out[0].func == parse_ratfunc("1/(t^2-4)^3", F7)


def test_search_empty_for_nonparabolic():
    for p in (5, 7, 11):
        field = field_create(p)
        out = invariant_search(parse_ratfunc("t^2+1", field), p - 1)
        assert out == []


def test_search_results_verified_and_degree_budgeted():
    out = invariant_search(parse_ratfunc("t^3", F7), 6)
    assert len(out) == 1
    w = out[0]
    assert invariance_check(parse_ratfunc("t^3", F7), w).invariant
    assert w.func.num.lc() == F7.one  # normalized numerator
    assert (w.func.den.degree - w.func.num.degree) - 2 * 6 == form_ord(w, INFINITY)


def test_search_weight_divisible_by_p_rejected():
    with pytest.raises(BadWeight):
        invariant_search(parse_ratfunc("t^2", F5), 5)


def test_search_extension_postcritical_points():
    # Lattes mod 11: the finite postcritical points 0, +-i with i^2 = -1
    # need a quadratic extension; denominators still come out over F_11
    from flatlab import EllipticCurve, lattes_map

    F11 = field_create(11)
    cert = lattes_map(EllipticCurve(F11, F11.one, F11.zero), 2)
    out = invariant_search(cert.sigma, 10)
    assert len(out) == 1
    expected = RatFunc(Poly.one(F11), parse_ratfunc("(t^3+t)^5", F11).num)
    assert out[0].func == expected


# Milnor's Lattes maps for the signatures (2,4,4), (2,3,6) and (3,3,3):
# (map, signature, weight-nu form 1/h (dt)^nu, nu, multiplier lambda over Q)
RIGID_LATTES = [
    ("(t-1)^4/(16*t*(t+1)^2)", (2, 4, 4), "1/(t^3*(t+1)^2)", 4, 16),
    ("-(t+1)^2/(4*t)", (2, 4, 4), "1/(t^3*(t+1)^2)", 4, -4),
    ("t*(t-8)^3/(64*(t+1)^3)", (2, 3, 6), "1/(t^4*(t+1)^3)", 6, 64),
    ("-(t+4)^3/(27*t^2)", (2, 3, 6), "1/(t^4*(t+1)^3)", 6, -27),
    ("(t^4+18*t^2-27)/(8*t^3)", (3, 3, 3), "1/(t^2-1)^2", 3, 8),
]


@pytest.mark.parametrize("p", [13, 37])
@pytest.mark.parametrize("expr,signature,form_expr,nu,lam", RIGID_LATTES)
def test_rigid_lattes_map_has_its_signature_and_multiplier(expr, signature, form_expr, nu, lam, p):
    sigma = reduce_mod_p(parse_ratfunc(expr, Q), p)
    data = orbifold_data(postcritical_graph(sigma))
    res = parabolic_signature(data)
    assert data.chi == 0
    assert res.signature == signature
    assert PARABOLIC_SIGNATURES[signature] == "lattes-like"
    assert invariance_check(sigma, form(form_expr, nu, sigma.field)).lam == sigma.field.elem(lam)


ORACLE_MAPS = ("t^2", "t^3", "1/t^2", "t^2-2", "-(t^2-2)", "t^3-3*t", "(t^2+1)/t", "t^2-1", "t^3+t+1")
ORACLE_CURVES = ((1, 0), (0, 1), (-1, 1))  # Lattes m = 2 on y^2 = x^3 + a x + b


def _uniform_search(sigma, weight, data):
    """The search with every pole capped at the weight and deg g = deg h."""
    p = sigma.field.p
    h = [1]
    for minpoly, _, _ in data.classes():
        for _ in range(weight if minpoly else 0):  # no pole factor at infinity
            h = _gf_mul(h, list(minpoly), p)
    return _solve(sigma, weight, h, len(h) - 1)


def test_search_matches_uniform_bounds_oracle():
    # the orbifold bounds lose no invariant form: at every chi = 0 prime up
    # to 19 and every weight 1..12 prime to p, the wider uniform search
    # finds exactly the same forms
    from flatlab import EllipticCurve, lattes_map

    maps = [parse_ratfunc(e, Q) for e in ORACLE_MAPS]
    maps += [lattes_map(EllipticCurve(Q, Q.elem(a), Q.elem(b)), 2).sigma for a, b in ORACLE_CURVES]
    cases = found = 0
    for sigma in maps:
        for p in (5, 7, 11, 13, 17, 19):
            try:
                sig = reduce_mod_p(sigma, p)
            except BadPrime:
                continue
            data = orbifold_data(postcritical_graph(sig))
            if data.chi != 0:
                continue
            for weight in range(1, 13):
                if weight % p:
                    out = invariant_search(sig, weight, data)
                    assert out == _uniform_search(sig, weight, data), (str(sigma), p, weight)
                    cases += 1
                    found += len(out)
    assert (cases, found) == (622, 84)


def _orbifold_caps_search(sigma, weight, data):
    """The linear search with the orbifold's pole caps: every numerator of
    degree <= deg h - 2 weight + cap(inf) over h = prod minpoly^cap."""
    p = sigma.field.p
    h = [1]
    mu_inf = 1
    for minpoly, _, mu in data.classes():
        if minpoly is None:
            mu_inf = mu
            continue
        for _ in range(_pole_cap(mu, weight)):
            h = _gf_mul(h, list(minpoly), p)
    cap_inf = _pole_cap(mu_inf, weight)
    deg_g = len(h) - 1 - 2 * weight + cap_inf
    return _solve(sigma, weight, h, deg_g) if deg_g >= 0 else []


def test_search_matches_linear_search_at_p_minus_1():
    F97 = field_create(97)
    for sigma in (atlas.lattes_map(EllipticCurve(F97, F97.one, F97.zero), 2).sigma, parse_ratfunc("t^3-3*t", F97)):
        data = orbifold_data(postcritical_graph(sigma))
        out = invariant_search(sigma, 96, data)
        assert len(out) == 1
        assert out == _orbifold_caps_search(sigma, 96, data)


def test_search_empty_off_chi_zero_like_linear_search():
    # chi != 0: the search answers [] without a check, as the linear search
    # with the orbifold caps does in all 128 cases
    cases = 0
    for expr in ("t^2+1", "t^3+t+1", "(t^2+1)/t", "t^2-1", "(t^3+2)/(t^2+1)", "t^4+t^3+2"):
        for p in (5, 7, 11, 13):
            try:
                sig = reduce_mod_p(parse_ratfunc(expr, Q), p)
            except BadPrime:
                continue
            data = orbifold_data(postcritical_graph(sig))
            if data.chi == 0:
                continue
            for weight in range(1, 7):
                if weight % p:
                    assert invariant_search(sig, weight, data) == []
                    assert _orbifold_caps_search(sig, weight, data) == [], (expr, p, weight)
                    cases += 1
    assert cases == 128


def test_tuple_form_weight_must_be_nonzero():
    with pytest.raises(ValueError):
        TupleForm(parse_ratfunc("t", Q), 0)
