import random
from fractions import Fraction

import pytest

from flatlab import (
    Poly,
    RatFunc,
    field_create,
    parse_ratfunc,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    rationals,
    reduce_mod_p,
)
from flatlab.errors import BadPrime, DivisionByZero, NotMobius, ParseError, ZeroPolynomial
from flatlab.ratfunc import rational_roots

Q = rationals()
F5 = field_create(5)
F7 = field_create(7)


# ---------------------------------------------------------------- parsing

def test_parse_canonicalizes():
    f = parse_ratfunc("(t^2+1)/(2*t)", Q)
    assert f.den.coeffs == (Fraction(0), Fraction(1))  # den made monic
    assert f.num.coeffs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))


def test_parse_mod_p():
    f = parse_ratfunc("t^3 - 3*t", F7)
    assert str(f) == "t^3 + 4*t"


def test_parse_syntax_error_with_position():
    with pytest.raises(ParseError) as err:
        parse_ratfunc("t^^2", Q)
    assert err.value.pos == 2
    with pytest.raises(ParseError):
        parse_ratfunc("t +", Q)
    with pytest.raises(ParseError):
        parse_ratfunc("(t+1", Q)
    with pytest.raises(ParseError):
        parse_ratfunc("t$1", Q)


def test_parse_zero_denominator():
    with pytest.raises(DivisionByZero):
        parse_ratfunc("1/(t-t)", Q)


def test_parse_rational_literal_and_unary_minus():
    assert parse_ratfunc("1/2", Q).constant_value() == Fraction(1, 2)
    assert parse_ratfunc("-t^2 + 1", Q) == parse_ratfunc("1 - t^2", Q)
    assert parse_ratfunc("(-t)^2", Q) == parse_ratfunc("t^2", Q)
    assert parse_ratfunc("x^2 + x", Q) == parse_ratfunc("t^2 + t", Q)  # t and x synonyms


@pytest.mark.parametrize(
    "text",
    ["(t^2+1)/(2*t)", "t^3 - 3*t", "1/t^2", "(t^4+1)/t^2", "-t^2 + 1/2",
     "3*t^2/(t^4 + 1)", "(2*t + 1)/(t^2 - 1/3)"],
)
def test_print_parse_fixed_point(text):
    f = parse_ratfunc(text, Q)
    assert parse_ratfunc(str(f), Q) == f


def test_print_parse_fixed_point_mod_p_random():
    rng = random.Random(3)
    for _ in range(40):
        num = Poly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        den = Poly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        if den.is_zero:
            continue
        f = RatFunc(num, den)
        assert parse_ratfunc(str(f), F7) == f


# ---------------------------------------------------------------- canonical form

def test_canonical_invariants_after_operations():
    rng = random.Random(11)
    for _ in range(40):
        a = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        b = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        c = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        if b.is_zero or (b * c).is_zero:
            continue
        f = RatFunc(a * c, b * c)  # force a common factor
        assert poly_gcd(f.num, f.den).degree == 0
        assert f.den.lc() == F5.one
        assert f == RatFunc(a, b)


# ---------------------------------------------------------------- compose

def test_compose_basic():
    t2 = parse_ratfunc("t^2", Q)
    assert t2.compose(t2) == parse_ratfunc("t^4", Q)


def test_compose_chebyshev_semiconjugacy():
    outer = parse_ratfunc("t^2-2", Q)
    inner = parse_ratfunc("t + 1/t", Q)
    assert outer.compose(inner) == parse_ratfunc("(t^4+1)/t^2", Q)


def test_compose_mobius_involution():
    m = parse_ratfunc("(t+1)/(t-1)", F5)
    comp = m.compose(m)
    assert comp == RatFunc.gen(F5)
    # spot-check by evaluation at three points
    for a in (2, 3, 4):
        x = F5.elem(a)
        inner = (x + 1) / (x - 1)
        assert (inner + 1) / (inner - 1) == x


def test_compose_degree_multiplies():
    rng = random.Random(5)
    for _ in range(20):
        f = _random_map(rng, F7, 3)
        g = _random_map(rng, F7, 3)
        assert f.compose(g).degree == f.degree * g.degree


def test_compose_associative():
    rng = random.Random(6)
    for _ in range(15):
        f = _random_map(rng, F5, 2)
        g = _random_map(rng, F5, 2)
        h = _random_map(rng, F5, 2)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_constant_inner():
    f = parse_ratfunc("t^2+1", Q)
    c = parse_ratfunc("3", Q)
    assert f.compose(c).constant_value() == 10
    pole = parse_ratfunc("1/t", Q)
    with pytest.raises(DivisionByZero):
        pole.compose(parse_ratfunc("0", Q))


def _random_map(rng, field, max_deg):
    while True:
        num = Poly(field, [rng.randrange(field.p) for _ in range(rng.randrange(1, max_deg + 2))])
        den = Poly(field, [rng.randrange(field.p) for _ in range(rng.randrange(1, max_deg + 2))])
        if den.is_zero:
            continue
        f = RatFunc(num, den)
        if not f.is_constant:
            return f


# ---------------------------------------------------------------- derivative

def test_derivative_examples():
    assert parse_ratfunc("t^3", Q).derivative() == parse_ratfunc("3*t^2", Q)
    assert parse_ratfunc("t^5", F5).derivative().is_zero
    d = parse_ratfunc("t^2-2", F7).derivative()
    assert d.num.eval(F7.elem(5)) == F7.elem(3)  # 2*5 = 10 = 3 mod 7


def test_chain_rule():
    rng = random.Random(8)
    for _ in range(20):
        f = _random_map(rng, F7, 2)
        g = _random_map(rng, F7, 2)
        lhs = f.compose(g).derivative()
        rhs = f.derivative().compose(g) * g.derivative()
        assert lhs == rhs


# ---------------------------------------------------------------- reduction mod p

def test_reduce_examples():
    assert str(reduce_mod_p(parse_ratfunc("t^2+1", Q), 7)) == "t^2 + 1"
    with pytest.raises(BadPrime):
        reduce_mod_p(parse_ratfunc("1/2*t^2", Q), 2)
    with pytest.raises(BadPrime):
        reduce_mod_p(parse_ratfunc("t^3-3*t", Q), 3)


def test_reduce_denominator_divisible_by_p():
    # t^2 / (5t^2 + 5): the primitive pair has denominator 5(t^2+1)
    with pytest.raises(BadPrime) as err:
        reduce_mod_p(parse_ratfunc("t^2/(5*t^2+5)", Q), 5)
    assert "denominator" in err.value.reason


def test_reduce_degree_drop():
    with pytest.raises(BadPrime) as err:
        reduce_mod_p(parse_ratfunc("5*t^3 + t^2", Q), 5)
    assert "degree" in err.value.reason


def test_reduce_shared_factor():
    # num - den = t^2 - (t + 7): resultant(t^2, t+7) = 49 = 0 mod 7
    with pytest.raises(BadPrime) as err:
        reduce_mod_p(parse_ratfunc("t^2/(t+7)", Q), 7)
    assert "share" in err.value.reason


def test_reduce_small_prime_rejected():
    with pytest.raises(BadPrime):
        reduce_mod_p(parse_ratfunc("t^5+t", Q), 5)  # p <= deg


def test_reduce_respects_composition():
    rng = random.Random(9)
    maps = ["t^2+1", "t^2-2", "(t^2+1)/t", "t^3-3*t"]
    for _ in range(10):
        s = parse_ratfunc(rng.choice(maps), Q)
        u = parse_ratfunc(rng.choice(maps), Q)
        p = rng.choice([11, 13, 17])
        comp = s.compose(u)
        try:
            left = reduce_mod_p(comp, p)
            right = reduce_mod_p(s, p).compose(reduce_mod_p(u, p))
        except BadPrime:
            continue
        assert left == right


# ---------------------------------------------------------------- factorization

def test_factor_examples():
    f = parse_ratfunc("t^2-1", F5).num
    assert [(str(g), m) for g, m in poly_factor(f)] == [("t + 1", 1), ("t + 4", 1)]
    g = parse_ratfunc("t^2+1", F7).num
    assert [(str(h), m) for h, m in poly_factor(g)] == [("t^2 + 1", 1)]
    assert all(F7.elem(a) ** 2 != F7.elem(-1) for a in range(7))  # -1 not a QR mod 7
    h = parse_ratfunc("t^3-t", F5).num
    assert [(str(q), m) for q, m in poly_factor(h)] == [("t", 1), ("t + 1", 1), ("t + 4", 1)]


def test_factor_multiply_back_and_irreducibility():
    rng = random.Random(13)
    fields = [F5, F7, field_create(5, 2), field_create(2)]
    for field in fields:
        for _ in range(12):
            coeffs = [field.elem_from_index(rng.randrange(field.order))
                      for _ in range(rng.randrange(2, 7))]
            f = Poly(field, coeffs)
            if f.is_zero or f.degree < 1:
                continue
            factors = poly_factor(f)
            prod = Poly.constant(field, f.lc())
            for g, m in factors:
                assert poly_is_irreducible(g)
                assert g.lc() == field.one
                prod = prod * g ** m
            assert prod == f


def test_factor_inseparable_power():
    # t^10 + t^5 + 1 = (t^2 + t + 1)^5 over F_5
    f = parse_ratfunc("t^10 + t^5 + 1", F5).num
    factors = poly_factor(f)
    assert sum(g.degree * m for g, m in factors) == 10
    prod = Poly.one(F5)
    for g, m in factors:
        prod = prod * g ** m
    assert prod == f


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        poly_factor(Poly.zero(F5))


def test_factor_char2():
    F2 = field_create(2)
    f = parse_ratfunc("t^4 + t", F2).num
    assert [(str(g), m) for g, m in poly_factor(f)] == [("t", 1), ("t + 1", 1), ("t^2 + t + 1", 1)]


# ---------------------------------------------------------------- conjugation

def test_conjugate_examples():
    sig = parse_ratfunc("t^2", Q)
    assert sig.conjugate(parse_ratfunc("t+1", Q)) == parse_ratfunc("t^2 - 2*t + 2", Q)
    # conjugating by the involution 1/t fixes the power family
    assert sig.conjugate(parse_ratfunc("1/t", Q)) == sig
    inv = parse_ratfunc("1/t^2", Q)
    assert inv.conjugate(parse_ratfunc("1/t", Q)) == inv
    s3 = parse_ratfunc("t^2-2", F7).conjugate(parse_ratfunc("2*t", F7))
    assert s3 == parse_ratfunc("4*t^2 + 3", F7)
    # spot-check at three points: conj(phi(a)) = phi(sigma(a))
    for a in (1, 2, 3):
        x = F7.elem(a)
        assert s3.num.eval(2 * x) == 2 * (x * x - 2)


def test_conjugate_round_trip_and_errors():
    rng = random.Random(17)
    for _ in range(10):
        sig = _random_map(rng, F7, 3)
        phi = parse_ratfunc("(t+1)/(t-1)", F7)
        back = sig.conjugate(phi).conjugate(phi)  # phi is an involution
        assert back == sig
    with pytest.raises(NotMobius):
        parse_ratfunc("t^2", Q).conjugate(parse_ratfunc("t^2", Q))


# ---------------------------------------------------------------- rational roots

def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    exprs = [
        (x - 3) ** 3 * (2 * x + 5) ** 2 * x ** 2 * (x ** 2 + 1),
        (7 * x - 10 ** 12) ** 2 * (x + 1) * (x ** 2 - 2),
        (x - 10 ** 9) ** 3 * (x + 10 ** 9) * (3 * x - 2) ** 4,
        x ** 2 - (2 ** 61 - 1),
        (x ** 2 - 10 ** 18) * (x ** 3 + x + 1) ** 2,
        (x - 10 ** 15) * (2 ** 50 * x + 1),  # large integer root, large leading coefficient
        (x - 3 ** 40) * (5 ** 30 * x - 7) ** 2,
    ]
    rng = random.Random(11)
    for _ in range(12):
        expr = x ** 2 + rng.randint(1, 2 ** 64)  # no real roots
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(1, 2 ** 40), rng.randint(-(2 ** 62), 2 ** 62)
            expr *= (a * x + b) ** rng.randint(1, 3)
        exprs.append(expr)
    for expr in exprs:
        sp = sympy.Poly(expr, x)
        f = Poly(Q, [int(c) for c in reversed(sp.all_coeffs())])
        _, factors = sp.factor_list()
        want = sorted((Fraction(-int(g.nth(0)), int(g.nth(1))), m) for g, m in factors if g.degree() == 1)
        assert rational_roots(f) == want, expr
