import random

import pytest

from conftest import ec_mul, ec_points

from flatlab import (
    EllipticCurve,
    TupleForm,
    chebyshev_poly,
    ec_mul_x,
    field_create,
    form_power,
    format_ratfunc,
    invariance_check,
    lattes_map,
    orbifold_data,
    parabolic_signature,
    parse_ratfunc,
    postcritical_graph,
    power_map,
    rationals,
)
from flatlab.errors import BadCharacteristic, BadPrime, SingularCurve
from flatlab.orbifold import MU_INFINITY

Q = rationals()


# ---------------------------------------------------------------- power maps

def test_power_map_certificates():
    F5 = field_create(5)
    cert = power_map(2, F5)
    assert str(cert.sigma) == "t^2"
    assert cert.form.func == parse_ratfunc("1/t^4", F5)
    assert cert.lam == F5.one

    F7 = field_create(7)
    cert = power_map(-2, F7)
    assert str(cert.sigma) == "1/t^2"
    assert cert.form.func == parse_ratfunc("1/t^6", F7)
    assert invariance_check(cert.sigma, cert.form).invariant


def test_power_map_bad_prime():
    with pytest.raises(BadPrime):
        power_map(5, field_create(5))


def test_power_map_over_q():
    assert power_map(3, Q).sigma == parse_ratfunc("t^3", Q)
    assert power_map(-2, Q).sigma == parse_ratfunc("1/t^2", Q)


def test_power_certificates_all_good_primes():
    for d in (2, 3, 4):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if d % p == 0 or p <= d:
                continue
            cert = power_map(d, field_create(p))
            assert invariance_check(cert.sigma, cert.form).invariant


# ---------------------------------------------------------------- chebyshev

def test_chebyshev_small_degrees():
    assert str(chebyshev_poly(2).sigma) == "t^2 - 2"
    assert str(chebyshev_poly(3).sigma) == "t^3 - 3*t"
    assert str(chebyshev_poly(4).sigma) == "t^4 - 4*t^2 + 2"
    assert str(chebyshev_poly(3, sign=-1).sigma) == "-t^3 + 3*t"


def test_chebyshev_defining_identity():
    # Cheb_d(t + 1/t) = t^d + t^(-d), symbolically over Q for d <= 8
    t_plus = parse_ratfunc("t + 1/t", Q)
    for d in range(2, 9):
        cheb = chebyshev_poly(d).sigma
        lhs = cheb.compose(t_plus)
        rhs = parse_ratfunc(f"(t^{2 * d} + 1)/t^{d}", Q)
        assert lhs == rhs


def test_chebyshev_composition_law():
    for d, e in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        cd = chebyshev_poly(d).sigma
        ce = chebyshev_poly(e).sigma
        cde = chebyshev_poly(d * e).sigma
        assert cd.compose(ce) == cde


def test_chebyshev_certificate_mod_p():
    F7 = field_create(7)
    cert = chebyshev_poly(2, 1, F7)
    assert cert.form.func == parse_ratfunc("1/(t^2-4)^3", F7)
    assert cert.lam == F7.one
    cert_neg = chebyshev_poly(3, -1, F7)
    assert invariance_check(cert_neg.sigma, cert_neg.form).invariant


def test_chebyshev_bad_primes():
    with pytest.raises(BadPrime):
        chebyshev_poly(5, 1, field_create(5))
    with pytest.raises(BadPrime):
        chebyshev_poly(2, 1, field_create(2))


def test_q_certificates_reduce_to_the_mod_p_ones():
    # over Q, t^d carries dt/t (weight 1) and +-Cheb_d carries
    # (dt)^2/(t^2-4) (weight 2), with lambda = d^w; raised to the power
    # (p - 1)/w and reduced mod p, the form is the F_p certificate's, and
    # lambda^((p-1)/w) is 1 mod p
    cases = [(power_map, d, (d,), "1/t", 1) for d in (2, 3, -2, -3)]
    cases += [(chebyshev_poly, d, (d, sign), "1/(t^2-4)", 2) for d in (2, 3, 4) for sign in (1, -1)]
    for make, d, args, func, w in cases:
        over_q = make(*args, Q)
        assert over_q.form == TupleForm(parse_ratfunc(func, Q), w)
        assert over_q.lam == d ** w
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):  # none divides d
            F = field_create(p)
            raised = form_power(over_q.form, (p - 1) // w)
            reduced = TupleForm(parse_ratfunc(format_ratfunc(raised.func), F), raised.weight)
            assert reduced == make(*args, F).form
            assert pow(int(over_q.lam), (p - 1) // w, p) == 1


# ---------------------------------------------------------------- elliptic curves

def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        EllipticCurve(Q, 0, 0)
    with pytest.raises(SingularCurve):
        EllipticCurve(Q, -3, 2)  # 4*(-27) + 27*4 = 0


def test_ec_mul_x_doubling_formulas():
    # specializations of (x^4 - 2a x^2 - 8b x + a^2) / (4 (x^3 + a x + b))
    E1 = EllipticCurve(Q, 1, 0)
    assert ec_mul_x(E1, 2) == parse_ratfunc("(x^4 - 2*x^2 + 1)/(4*x^3 + 4*x)", Q)
    E2 = EllipticCurve(Q, 0, 1)
    assert ec_mul_x(E2, 2) == parse_ratfunc("(x^4 - 8*x)/(4*x^3 + 4)", Q)


def test_ec_mul_x_against_group_law():
    # sample affine points over F_101 and check xi_m(x(P)) = x(mP)
    p = 101
    F = field_create(p)
    for a, b in [(1, 0), (0, 1), (2, 3), (-1, 1)]:
        E = EllipticCurve(F, F.elem(a), F.elem(b))
        for m in range(2, 8):  # p > 2 m^2 up to m = 7
            xi = ec_mul_x(E, m)
            for P in ec_points(a, b, p)[:20]:
                mP = ec_mul(P, m, a, p)
                x = F.elem(P[0])
                num = xi.num.eval(x)
                den = xi.den.eval(x)
                if mP is None:
                    assert not den  # P is m-torsion: x(P) is a pole of xi_m
                else:
                    assert den and num / den == F.elem(mP[0])


def test_ec_mul_x_degree_and_commutation():
    E = EllipticCurve(Q, 1, 0)
    for m in (2, 3):
        assert ec_mul_x(E, m).degree == m * m
    x2, x3 = ec_mul_x(E, 2), ec_mul_x(E, 3)
    assert x2.compose(x3) == x3.compose(x2) == ec_mul_x(E, 6)
    assert x2.compose(x2) == ec_mul_x(E, 4)


def test_ec_mul_x_characteristic_guard():
    with pytest.raises(BadCharacteristic):
        ec_mul_x(EllipticCurve(field_create(7), field_create(7).one, field_create(7).zero), 2)


# ---------------------------------------------------------------- lattes

def test_lattes_certificate_f13():
    F13 = field_create(13)
    cert = lattes_map(EllipticCurve(F13, F13.one, F13.zero), 2)
    res = invariance_check(cert.sigma, cert.form)
    assert res.semi_invariant and res.lam == F13.elem(4)
    assert cert.lam == F13.elem(4)
    # omega^(p-1) is invariant: lambda^12 = 4^12 = 1 mod 13
    assert invariance_check(cert.sigma, form_power(cert.form, 12)).invariant


def test_lattes_over_q():
    cert = lattes_map(EllipticCurve(Q, 1, 0), 2)
    assert cert.lam == 4
    assert cert.sigma == parse_ratfunc("(x^2-1)^2/(4*x*(x^2+1))", Q)


def test_lattes_signature():
    for p in (11, 13, 17):
        F = field_create(p)
        cert = lattes_map(EllipticCurve(F, F.one, F.zero), 2)
        data = orbifold_data(postcritical_graph(cert.sigma))
        res = parabolic_signature(data)
        assert res.signature == (2, 2, 2, 2)
        assert data.chi == 0


def test_flat_families_signatures_mod_good_primes():
    rng = random.Random(51)
    primes = [p for p in range(5, 51) if all(p % q for q in range(2, p))]
    for p in rng.sample(primes, 4):
        F = field_create(p)
        power = power_map(2, F)
        res = parabolic_signature(orbifold_data(postcritical_graph(power.sigma)))
        assert res.signature == (MU_INFINITY, MU_INFINITY)
        cheb = chebyshev_poly(2, 1, F)
        res = parabolic_signature(orbifold_data(postcritical_graph(cheb.sigma)))
        assert res.signature == (2, 2, MU_INFINITY)
