import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from flatlab import (
    FFElem,
    Poly,
    RatFunc,
    field_create,
    format_ratfunc,
    parse_ratfunc,
    poly_factor,
    poly_gcd,
    poly_is_irreducible,
    rationals,
    reduce_mod_p,
)
import flatlab.ratfunc as ratfunc
from flatlab.errors import BadPrime, DivisionByZero, FieldMismatch, NotMobius, ParseError, ZeroPolynomial
from flatlab.ratfunc import (MAX_PARSE_BITS, MAX_PARSE_DEGREE, _Substitution, _primitive_integer_pair, poly_roots,
                             root_multiplicity)

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


@pytest.mark.parametrize("expr, message", [
    ("t)", "unexpected ')' (at position 1)"),
    ("t^2^3", "unexpected '^' (at position 3)"),
])
def test_parse_rejects_trailing_tokens(expr, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_ratfunc(expr, Q)


def test_parse_nested_parentheses():
    # the recursive descent takes 200 levels; far deeper input is a
    # ParseError (tests/test_cli.py), not a RecursionError
    assert parse_ratfunc("(" * 200 + "t^2" + ")" * 200, Q) == parse_ratfunc("t^2", Q)


def test_parse_zero_denominator():
    for text, field in (("1/(t-t)", Q), ("t/7", F7)):  # 7 is zero in F_7
        with pytest.raises(DivisionByZero, match="^zero denominator at position 1$"):
            parse_ratfunc(text, field)


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


@pytest.mark.parametrize("text, pos", [
    ("t²", 1),  # str.isdigit accepts superscripts and other scripts' digits
    ("٣*t", 0),
    ("t^٣", 2),
    ("t + " + "7" * 5000, 4),  # past Python's int-string digit limit
], ids=["superscript", "arabic-indic", "arabic-indic-exponent", "5000-digit-literal"])
def test_parse_ascii_digits_only(text, pos):
    with pytest.raises(ParseError) as err:
        parse_ratfunc(text, Q)
    assert err.value.pos == pos


def test_parse_degree_bound():
    # MAX_PARSE_DEGREE stays above every printed form: the goldens' largest
    # power is t^1212, and a weight-(p - 1) form has degree at most 2 (p - 1)
    assert MAX_PARSE_DEGREE == 100_000
    assert parse_ratfunc(f"t^{MAX_PARSE_DEGREE - 1}", Q).num.degree == MAX_PARSE_DEGREE - 1
    assert parse_ratfunc("t^60000/(t^40000+1)", F7).den.degree == 40000
    for text, field, pos in [
        ("t^60000*t^60000", Q, 7),  # two in-bound powers, a product past the bound
        ("1/(t^60000*t^60000)", F7, 10),
        ("t^60000 + 1/t^50000", F7, 8),  # the common denominator is in bound, t^110000 + 1 is not
        ("(t^2+1)^60000", F7, 8),  # square-and-multiply crosses the bound
        ("t^100001", Q, 2),
    ]:
        with pytest.raises(ParseError, match="past the parser's bound of 100000") as err:
            parse_ratfunc(text, field)
        assert err.value.pos == pos


def test_parse_size_bound_over_q():
    # over Q a product is checked against MAX_PARSE_BITS before it is built:
    # 2^k * t has an estimated 2 (k + 3) bits
    assert MAX_PARSE_BITS == 2 ** 21
    assert parse_ratfunc("2^1048572*t", Q).num.coeff(1) == 2 ** 1048572
    assert parse_ratfunc("(t+1)^1000", Q).num.coeff(500) == math.comb(1000, 500)
    for text, pos in [("2^1048574*t", 9), ("2^9999999999*t^2+1", 2), ("(t+1)^60000", 6), ("1/(t^2+1)^2000", 10)]:
        start = time.process_time()
        with pytest.raises(ParseError, match="past the parser's bound of 2097152") as err:
            parse_ratfunc(text, Q)
        assert time.process_time() - start < 1
        assert err.value.pos == pos
    # over F_p coefficients are residues, so only the degree is bounded
    assert parse_ratfunc("(t+1)^60000", F7).num.degree == 60000


# The oracle: the same expression evaluated with RatFunc arithmetic, which
# canonicalizes after every operator.  Trees are ("int", n), ("var",),
# ("neg", a), (op, a, b) for op in + - * /, and ("^", a, e).

def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return ("var",) if rng.random() < 0.5 else ("int", rng.choice([0, 1, 2, 3, 7, 10, 25, 49, 125, 1000]))
    kind = rng.choice(["neg", "+", "-", "*", "/", "/", "^"])
    if kind == "neg":
        return ("neg", _random_tree(rng, depth - 1))
    if kind == "^":
        return ("^", _random_tree(rng, depth - 1), rng.randrange(7))
    return (kind, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _render(tree):
    """The tree as input text, parenthesized only where the grammar needs it."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "var":
        return "t"
    if kind == "neg":
        return f"(-{_render_at(tree[1], ('+', '-'))})"
    if kind == "^":
        return f"{_render_at(tree[1], ('neg', '+', '-', '*', '/', '^'))}^{tree[2]}"
    tighter = ("+", "-") if kind in "+-" else ("+", "-", "*", "/")
    return f"{_render_at(tree[1], ('+', '-') if kind in '*/' else ())}{kind}{_render_at(tree[2], tighter)}"


def _render_at(tree, wrap):
    text = _render(tree)
    return f"({text})" if tree[0] in wrap else text


def _evaluate(tree, field):
    kind = tree[0]
    if kind == "int":
        return RatFunc.from_const(field, tree[1])
    if kind == "var":
        return RatFunc.gen(field)
    if kind == "neg":
        return -_evaluate(tree[1], field)
    if kind == "^":
        return _evaluate(tree[1], field) ** tree[2]
    a, b = _evaluate(tree[1], field), _evaluate(tree[2], field)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    return a * b if kind == "*" else a / b


@pytest.mark.parametrize("field", [Q, F7, field_create(5, 2)], ids=str)
def test_parse_matches_ratfunc_oracle(field):
    rng = random.Random(f"parse-{field}")
    checked = 0
    while checked < 200:
        tree = _random_tree(rng, 4)
        text = _render(tree)
        try:
            want = _evaluate(tree, field)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                parse_ratfunc(text, field)
            continue
        assert parse_ratfunc(text, field) == want, text
        checked += 1


def test_parse_edge_cases():
    assert parse_ratfunc("(t-t)^0", Q) == RatFunc.from_const(Q, 1)
    assert parse_ratfunc("((t^2-1)/(t+1))^3", Q) == parse_ratfunc("(t-1)^3", Q)
    # the base is cancelled before powering; uncancelled, this never finishes
    for field in (Q, F7):
        assert parse_ratfunc("((t+1)/(t+1))^1000000", field) == RatFunc.from_const(field, 1)


def test_parse_canonicalizes_once(monkeypatch):
    # over Q every gcd, the constructor's and poly_gcd's, is one _int_gcd
    calls = []
    gcd = ratfunc._int_gcd
    monkeypatch.setattr(ratfunc, "_int_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    # the benchmark's seed-1 conjugate of t^6 + 3*t^2 + 1
    parse_ratfunc("-t^6 + 12*t^5 - 60*t^4 + 160*t^3 - 243*t^2 + 204*t - 75", Q)
    assert len(calls) == 0
    parse_ratfunc("(t^3 - 4*t^2 + 4*t + 4)/(t^2 - 4*t + 5)", Q)
    assert len(calls) == 1
    num = Poly(Q, (1, 2, 3))
    f = RatFunc(num, Poly.constant(Q, 3))
    assert len(calls) == 1  # a constant denominator takes no gcd
    assert f.den == Poly.one(Q) and f.num == num.scale(Fraction(1, 3))


def test_parse_power_of_the_variable_is_a_shift(monkeypatch):
    F809 = field_create(809)
    expected = RatFunc(Poly.gen(F809) ** 1000)
    calls = []
    mul = ratfunc._gf_mul
    monkeypatch.setattr(ratfunc, "_gf_mul", lambda a, b, p: calls.append(1) or mul(a, b, p))
    assert parse_ratfunc("t^1000", F809) == expected
    assert parse_ratfunc("(x)^0", F809) == RatFunc.from_const(F809, 1)
    assert calls == []


def test_parse_large_prime_form_round_trip():
    # the weight-808 Lattes form at p = 809, 1/f of degree 1212
    report = json.loads((Path(__file__).parent / "golden" / "classify-lattes-797-809.json").read_text())
    (form,) = [entry["forms_found"][0]["f"] for entry in report["primes"] if entry["p"] == 809]
    assert format_ratfunc(parse_ratfunc(form, field_create(809))) == form


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


@pytest.mark.parametrize("field", [F7, field_create(3, 2), Q], ids=["F7", "F9", "Q"])
def test_pow_matches_gcd_path(field):
    # num^e and den^e stay coprime, so the power skips the gcd; the
    # constructor, which takes it, must give the same canonical form
    rng = random.Random(13)

    def draw():
        return rng.randrange(-3, 4) if field.is_rationals else field.elem_from_index(rng.randrange(field.order))

    for _ in range(12):
        num = Poly(field, [draw() for _ in range(rng.randrange(1, 4))])
        den = Poly(field, [draw() for _ in range(rng.randrange(1, 4))])
        if num.is_zero or den.is_zero:
            continue
        f = RatFunc(num, den)
        for e in range(-3, 5):
            want = RatFunc(f.num ** e, f.den ** e) if e >= 0 else RatFunc(f.den ** -e, f.num ** -e)
            assert f ** e == want
    zero = RatFunc(Poly.zero(field))
    assert zero ** 3 == zero and zero ** 0 == RatFunc.from_const(field, 1)
    with pytest.raises(DivisionByZero):
        zero ** -2


# ---------------------------------------------------------------- derivative

def test_derivative_examples():
    assert parse_ratfunc("t^3", Q).derivative() == parse_ratfunc("3*t^2", Q)
    assert parse_ratfunc("t^5", F5).derivative().is_zero
    d = parse_ratfunc("t^2-2", F7).derivative()
    assert d.num.eval(F7.elem(5)) == F7.elem(3)  # 2*5 = 10 = 3 mod 7
    # P'Q - PQ' of the canonical form P/Q = (1/2 t^2 + 1/2)/t
    assert str(parse_ratfunc("(t^2+1)/(2*t)", Q).wronskian()) == "1/2*t^2 - 1/2"


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
    maps = [parse_ratfunc(e, Q) for e in ("t^2+1", "t^2-2", "(t^2+1)/t", "t^3-3*t")]
    pairs = [(rng.choice(maps), rng.choice(maps), rng.choice([11, 13, 17])) for _ in range(10)]
    # seeded maps over Q of degree up to 4: composites of degree up to 16,
    # whose mod-p products cross the Kronecker length cut
    seeded = [_random_map_q(rng, 4) for _ in range(12)]
    pairs += [(s, u, rng.choice([11, 13, 17, 19, 23])) for s, u in zip(seeded, seeded[1:])]
    checked = 0
    for s, u, p in pairs:
        comp = s.compose(u)
        try:
            left = reduce_mod_p(comp, p)
            right = reduce_mod_p(s, p).compose(reduce_mod_p(u, p))
        except BadPrime:
            continue
        assert left == right
        checked += 1
    assert checked >= 12


def test_reduce_shared_factor_matches_sympy_resultant():
    # "share a factor" is raised exactly when Res(P, Q) = 0 mod p for the
    # primitive integer pair; primes rejected for another reason are skipped
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    checked = shared = 0
    for _ in range(300):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        deg = rng.randrange(2, 5)
        num = [rng.randrange(-4, 5) for _ in range(deg)] + [rng.randrange(1, 5)]
        den = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, deg + 1))]
        if rng.randrange(3) == 0:  # a common root r mod p, shifted by multiples of p
            r = rng.randrange(p)
            for c in (num, den):
                c[0] -= sum(ci * r ** i for i, ci in enumerate(c)) % p + p * rng.randrange(-1, 2)
        if not any(den):
            continue
        sigma = RatFunc(Poly(Q, num), Poly(Q, den))
        P, Qs = _primitive_integer_pair(sigma)
        res = int(sympy.resultant(sympy.Poly(P[::-1], x), sympy.Poly(Qs[::-1], x)))
        try:
            reduce_mod_p(sigma, p)
        except BadPrime as exc:
            if "share a factor" not in exc.reason:
                continue
            assert res % p == 0
            shared += 1
        else:
            assert res % p != 0
        checked += 1
    assert checked >= 200 and shared >= 40


def _random_map_q(rng, max_deg):
    while True:
        num = Poly(Q, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, max_deg + 2))])
        den = Poly(Q, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, max_deg + 2))])
        if not den.is_zero and not RatFunc(num, den).is_constant:
            return RatFunc(num, den)


# ---------------------------------------------------------------- gcd over Q

def test_poly_gcd_over_q_matches_sympy():
    # random pairs with and without a common factor; common factors with
    # 100-bit coefficients take several primes of the modular gcd
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(43)

    def rational_poly(degree, size):
        coeffs = [Fraction(rng.randint(-size, size), rng.randint(1, 6)) for _ in range(degree)]
        return Poly(Q, coeffs + [Fraction(rng.randint(1, size), rng.randint(1, 6))])

    def to_sympy(f):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x, domain="QQ")

    for trial in range(80):
        a, b = rational_poly(rng.randrange(6), 50), rational_poly(rng.randrange(6), 50)
        if trial % 2:
            common = rational_poly(rng.randrange(1, 5), rng.choice([9, 10 ** 30]))
            a, b = a * common, b * common
        want = to_sympy(a).gcd(to_sympy(b)).monic()
        assert poly_gcd(a, b) == Poly(Q, [Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())])


def test_lowest_terms_over_q_matches_fraction_division():
    # the constructor divides primitive integer lists by their gcd over Z;
    # the oracle divides the Fraction polynomials by their monic gcd
    rng = random.Random(53)

    def rational_poly(degree, size):
        return Poly(Q, [Fraction(rng.randint(-size, size), rng.randint(1, 6)) for _ in range(degree)]
                    + [Fraction(rng.choice([-1, 1]) * rng.randint(1, size), rng.randint(1, 6))])

    for trial in range(60):
        num, den = rational_poly(rng.randrange(5), 40), rational_poly(rng.randrange(1, 5), 40)
        if trial % 3:
            common = rational_poly(rng.randrange(1, 4), rng.choice([9, 10 ** 20]))
            num, den = num * common, den * common
        g = poly_gcd(num, den)
        n, d = num // g, den // g
        f = RatFunc(num, den)
        assert (f.num, f.den) == (n.scale(1 / d.lc()), d.monic()), (num, den)


def test_int_gcd_survives_unlucky_primes(monkeypatch):
    # mod 5, t and t + 5 share the root 0, and t (t + 1) and (t + 1) (t + 5)
    # share two roots; 5t + 1 has no degree mod 5, so 5 is skipped there
    monkeypatch.setattr(ratfunc, "_gcd_primes", lambda: iter([5, 7, 11, 13, 17, 19, 23]))
    assert ratfunc._int_gcd([0, 1], [5, 1]) == ([1], [0, 1], [5, 1])
    assert ratfunc._int_gcd([0, 1, 1], [5, 6, 1]) == ([1, 1], [0, 1], [5, 1])
    assert ratfunc._int_gcd([1, 5], [2, 11, 5]) == ([1, 5], [1], [2, 1])
    # (2t + 3)(t - 1) and (2t + 3)(3t + 1): joined at leading coefficient 2
    assert ratfunc._int_gcd([-3, 1, 2], [3, 11, 6]) == ([3, 2], [-1, 1], [1, 3])
    # a lucky prime first: the unlucky 5 then gives a longer gcd, and is skipped
    monkeypatch.setattr(ratfunc, "_gcd_primes", lambda: iter([7, 5, 11, 13, 17, 19, 23]))
    assert ratfunc._int_gcd([0, 1, 1], [5, 6, 1]) == ([1, 1], [0, 1], [5, 1])


def test_parse_cancels_high_powers_over_q_quickly():
    # Euclid on Fractions took 0.95 s for the exponent 20 and over a minute
    # for 60
    for text, want in [
        ("(t^2+3*t+1)^60/(t^2+5)^60", (120, 120)),
        ("(t^2+3*t+1)^60*(t-7)^3/((t^2+5)^60*(t-7)^2)", (121, 120)),
    ]:
        start = time.process_time()
        f = parse_ratfunc(text, Q)
        assert time.process_time() - start < 1
        assert (f.num.degree, f.den.degree) == want


def test_parse_long_products_over_q_quickly():
    # Z products ran the schoolbook loop: the exponent 5000 took 2.5 s and
    # 20000 over 15 s; the repunit squares have coefficients up to e
    for e, limit in [(20000, 1), (50000, 2)]:
        start = time.process_time()
        f = parse_ratfunc(f"((t^{e}-1)/(t-1))^2", Q)
        assert time.process_time() - start < limit
        assert f.den == Poly.one(Q) and f.num.degree == 2 * e - 2
        assert [f.num.coeff(i) for i in (0, 1, e - 1, 2 * e - 2)] == [1, 2, e, 1]


# ---------------------------------------------------------------- prime-field layer

def _to_sympy(f, sympy):
    coeffs = list(reversed(f.coeffs)) or [0]
    return sympy.Poly(coeffs, sympy.Symbol("x"), modulus=f.field.p)


def _from_sympy(g, field):
    return Poly(field, [int(c) % field.p for c in reversed(g.all_coeffs())])


def _random_poly(rng, field, max_deg):
    return Poly(field, [rng.randrange(field.p) for _ in range(rng.randrange(max_deg + 2))])


@pytest.mark.parametrize("p", [5, 97, 2 ** 31 - 1])
def test_prime_field_poly_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    field = field_create(p)
    rng = random.Random(p)
    for _ in range(40):
        a = _random_poly(rng, field, 40)
        b = _random_poly(rng, field, 40)
        sa, sb = _to_sympy(a, sympy), _to_sympy(b, sympy)
        assert a * b == _from_sympy(sa * sb, field)
        assert a * a == _from_sympy(sa * sa, field)
        for e in (0, 1, 2, 3):
            assert a ** e == _from_sympy(sa ** e, field)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        sq, sr = sa.div(sb)
        assert (q, r) == (_from_sympy(sq, field), _from_sympy(sr, field))
        assert poly_gcd(a, b) == _from_sympy(sa.gcd(sb), field).monic()


@pytest.mark.parametrize("p", [5, 97, 2 ** 31 - 1])
def test_prime_field_compose_matches_sympy(p):
    # reference: the homogenized numerator and denominator sum f_i P^i Q^(m-i)
    # computed by sympy, cancelled by their gcd, denominator made monic
    sympy = pytest.importorskip("sympy")
    field = field_create(p)
    rng = random.Random(p + 1)
    for _ in range(15):
        f = _random_map(rng, field, 8)
        g = _random_map(rng, field, 4)
        m = f.degree
        P, Qs = _to_sympy(g.num, sympy), _to_sympy(g.den, sympy)

        def hom(h):
            acc = _to_sympy(Poly.zero(field), sympy)
            for i, c in enumerate(h.coeffs):
                acc += P ** i * Qs ** (m - i) * c
            return acc

        num, den = hom(f.num), hom(f.den)
        common = num.gcd(den)
        num, den = _from_sympy(num.quo(common), field), _from_sympy(den.quo(common), field)
        scale = field.one / den.lc()
        assert f.compose(g) == RatFunc(num.scale(scale), den.scale(scale))


def test_prime_field_arithmetic_goes_through_gf_layer(monkeypatch):
    # one F_p product loop: prime-field Poly products and division reach
    # exactnum._gf_mul / _gf_divmod on whole coefficient lists, and
    # composition exactnum's packed subtrees; over F_{p^k} these only see
    # FFElem's length-k residue vectors, and over Q only poly_gcd's modular
    # gcd calls them, mod primes near 2^61
    from flatlab import exactnum, forms, ratfunc

    calls = []

    def counted(fn):
        def wrapper(a, b, *rest):
            calls.append((fn.__name__, len(a), len(b), rest[0]))
            return fn(a, b, *rest)
        return wrapper

    names = ("_gf_mul", "_gf_divmod")
    for name in names:
        original = getattr(exactnum, name)
        for mod in (exactnum, ratfunc, forms):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted(original))

    def longest(run):
        calls.clear()
        run()
        return {name: max((max(la, lb) for n, la, lb, _ in calls if n == name), default=0)
                for name in names}

    rng = random.Random(23)
    F97 = field_create(97)
    a, b = _random_poly(rng, F97, 0) + Poly.gen(F97) ** 12, Poly.gen(F97) ** 7 + 1
    sigma = parse_ratfunc("(t^3+2)/(t^2+5)", F97)
    assert longest(lambda: a * b)["_gf_mul"] == 13
    assert longest(lambda: divmod(a, b))["_gf_divmod"] == 13
    with monkeypatch.context() as patch:
        seen, join, init = [], exactnum._KronSubtrees.join, exactnum.FFElem.__init__
        patch.setattr(exactnum._KronSubtrees, "join", lambda self, *args: seen.append("join") or join(self, *args))
        patch.setattr(exactnum.FFElem, "__init__", lambda self, *args: seen.append("FFElem") or init(self, *args))
        RatFunc(a, b).compose(sigma)
    assert "join" in seen and "FFElem" not in seen

    F25 = field_create(5, 2)
    c = Poly(F25, [F25.elem_from_index(rng.randrange(25)) for _ in range(12)] + [1])
    d = Poly(F25, [F25.elem_from_index(rng.randrange(25)) for _ in range(7)] + [1])
    for run in (lambda: c * d, lambda: divmod(c, d), lambda: divmod(d, c),
                lambda: RatFunc(c, d).compose(RatFunc(d, c))):
        assert max(longest(run).values()) <= 2 * F25.k
    assert divmod(d, c) == (Poly.zero(F25), d)

    e = parse_ratfunc("(t^5+1/2*t)/(t^3-7)", Q)
    for run in (lambda: e.num * e.den, lambda: divmod(e.num, e.den), lambda: divmod(e.den, e.num)):
        assert longest(run) == dict.fromkeys(names, 0)
    assert divmod(e.den, e.num) == (Poly.zero(Q), e.den)
    longest(lambda: e.compose(e))
    assert calls and all(p > 2 ** 60 for *_, p in calls)


def test_substitution_builds_no_powers_of_a_constant_denominator(monkeypatch):
    # a polynomial inner map has Q = 1: no product has 1 as an operand
    from flatlab import ratfunc

    F97 = field_create(97)
    rng = random.Random(60)
    f = Poly(F97, [rng.randrange(1, 97) for _ in range(61)])
    h = _Substitution(parse_ratfunc("t^3", F97))
    calls = []
    original = ratfunc._gf_mul
    monkeypatch.setattr(ratfunc, "_gf_mul", lambda a, b, p: calls.append((a, b)) or original(a, b, p))
    h.hom(f, 60)
    assert calls and all((1,) not in (tuple(a), tuple(b)) for a, b in calls)
    inner = parse_ratfunc("t^3/(t^2+5)", F97)
    h = _Substitution(inner)
    h.hom(f, 60)
    assert len(h.powers["Q"]) > 1
    assert all(q == inner.den ** n for n, q in h.powers["Q"].items())


_F25 = field_create(5, 2)
_INNERS = {"Q = 1": "t^2+2*t+3", "Q = t+4": "(t^2+1)/(t+4)", "Moebius": "(2*t+1)/(t+3)"}


@pytest.mark.parametrize("inner", sorted(_INNERS))
@pytest.mark.parametrize("field", [F5, field_create(97), _F25, Q], ids=str)
def test_substitution_matches_sum_of_powers(field, inner):
    # hom(f, m) = sum f_i P^i Q^(m - i) for every m in 0..70, so most m + 1
    # are not powers of two, with deg f = m, deg f < m, f constant and f = 0
    rng = random.Random(f"{field}{inner}")
    sigma = parse_ratfunc(_INNERS[inner], field)
    P, Qd = sigma.num, sigma.den

    def coeff():
        if field.p == 0:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return field.elem_from_index(rng.randrange(field.p ** field.k)) if field.k > 1 else rng.randrange(field.p)

    h = _Substitution(sigma)
    terms = []  # P^i Q^(m - i) for i = 0..m
    for m in range(71):
        terms = [t * Qd for t in terms] + [terms[-1] * P if terms else Poly.one(field)]
        # Q and F_{p^k} run object loops: one f per m there, in turn
        for deg in {m, m // 2, 0} if P._over_prime_field else {(m, m // 2, 0)[m % 3]}:
            f = Poly(field, [coeff() for _ in range(deg)] + [coeff() or 1])
            oracle = sum((terms[i].scale(f.coeff(i)) for i in range(deg + 1)), Poly.zero(field))
            assert h.hom(f, m) == oracle
        assert h.hom(Poly.zero(field), m).is_zero


@pytest.mark.parametrize("p, inner, degrees", [
    (2 ** 31 - 1, "(t^2+3)/(t+5)", range(0, 12)),  # span 1: every node is a list
    (47, "(t^2+3)/(t+5)", range(44, 56)),  # span 49: roots on both sides of it
    (47, "t^2+t+1", range(44, 56)),
    (5, "(2*t^4+1)/(t^3+t)", range(158, 165)),  # span 162
])
def test_substitution_matches_sum_of_powers_across_the_slot_cut(p, inner, degrees):
    # hom(f, m) = sum f_i P^i Q^(m - i) where a root of n = m + 1 coefficients
    # is packed, is a list over packed halves, or (span 1) all lists
    from flatlab.exactnum import _kron_span

    field = field_create(p)
    sigma = parse_ratfunc(inner, field)
    P, Qd = sigma.num, sigma.den
    span = _kron_span(p, sigma.degree)
    assert min(degrees) < span <= max(degrees) or span == 1
    rng = random.Random(f"{p}{inner}")
    h = _Substitution(sigma)
    for m in degrees:
        f = Poly(field, [rng.choice((0, rng.randrange(p), p - 1)) for _ in range(m)] + [p - 1])
        oracle = sum((P ** i * Qd ** (m - i)).scale(f.coeffs[i]) for i in range(m + 1))
        assert h.hom(f, m) == oracle


def _unreduced_nodes(c, P, Q, p):
    """The split of _Substitution with exact int-list products and reduced
    powers, no reduction of a node: (n, node) for every node of n >= 2
    coefficients whose slice is nonzero, and the root."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def power(base, e):
        return [x % p for x in mul(power(base, e // 2), power(base, e - e // 2))] if e > 1 else base

    nodes = []

    def half(lo, n):
        part = c[lo:lo + n]
        if not any(part):
            return [0]
        if n == 1:
            return list(part)
        h = n // 2
        a, b = mul(half(lo, h), power(Q, n - h)), mul(half(lo + h, n - h), power(P, h))
        node = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        nodes.append((n, node))
        return node

    half(0, len(c))
    return nodes


def test_packed_subtrees_stay_below_their_slot_bound(monkeypatch):
    # exact ints: every node coefficient is at most the code's B(n), B(n) is
    # below 2^64 exactly up to the span, and each packed node the code makes
    # is the exact node in 8-byte slots, so no slot carried
    from flatlab import exactnum
    from flatlab.exactnum import _kron_span, _subtree_bound

    rng = random.Random(809)
    joins, join = [], exactnum._KronSubtrees.join
    monkeypatch.setattr(exactnum._KronSubtrees, "join",
                        lambda self, *args: joins.append((args[2], join(self, *args))) or joins[-1][1])
    for _ in range(12):
        p, d, n = rng.choice((3, 5, 47, 97, 211, 809)), rng.randint(1, 4), rng.randint(2, 120)
        field = field_create(p)
        P = Poly(field, [rng.choice((p - 1, rng.randrange(p))) for _ in range(d)] + [rng.randrange(1, p)])
        Qd = Poly(field, [rng.randrange(p) for _ in range(rng.randint(0, d))] + [1])
        c = [rng.choice((0, p - 1, p - 1, rng.randrange(p))) for _ in range(n)]
        span = _kron_span(p, d)
        for size in range(1, min(n, span) + 2):
            assert (_subtree_bound(p, d, size) < 2 ** 64) == (size <= span)
        nodes = _unreduced_nodes(c, P.coeffs, Qd.coeffs, p)
        assert all(0 <= x <= _subtree_bound(p, d, size) for size, node in nodes for x in node)
        joins.clear()
        _Substitution(RatFunc._coprime(P, Qd)).hom(Poly(field, c), n - 1)  # degree d, even if not coprime
        packed = [(size, sum(x << 64 * i for i, x in enumerate(node))) for size, node in nodes if size <= span]
        assert sorted(joins) == sorted(packed)
    assert [_kron_span(47, d) for d in (1, 2, 4)] == [65, 49, 34]


def test_substitution_memoizes_logarithmically_many_powers():
    # a table of m powers of P or Q would fail this bound
    F97 = field_create(97)
    rng = random.Random(1023)
    for m in (1000, 1023):
        f = Poly(F97, [rng.randrange(1, 97) for _ in range(m + 1)])
        h = _Substitution(parse_ratfunc("(t^3+2)/(t^2+5)", F97))
        h.hom(f, m)
        bound = 2 * math.ceil(math.log2(m + 1)) + 2
        assert all(1 < len(h.powers[base]) <= bound for base in "PQ")


@pytest.mark.parametrize("p", [5, 13, 97])
def test_prime_field_ops_commute_with_lift(p):
    # F_{p^2} runs the object loops, so the two sides share no arithmetic
    field, ext = field_create(p), field_create(p, 2)
    rng = random.Random(p + 2)
    up = lambda f: f.lift_to(ext)
    for _ in range(6):
        a, b = _random_poly(rng, field, 9), _random_poly(rng, field, 6)
        c, x = field.elem(rng.randrange(p)), field.elem(rng.randrange(p))
        pairs = [(a + b, up(a) + up(b)), (a - b, up(a) - up(b)), (-a, -up(a)),
                 (a * b, up(a) * up(b)), (a ** 3, up(a) ** 3), (a.scale(c), up(a).scale(ext.lift(c))),
                 (a.monic(), up(a).monic()), (a.derivative(), up(a).derivative()),
                 (poly_gcd(a, b), poly_gcd(up(a), up(b)))]
        if not b.is_zero:
            pairs += zip(divmod(a, b), divmod(up(a), up(b)))
        for got, want in pairs:
            assert up(got) == want
        assert ext.lift(a.eval(x)) == up(a).eval(ext.lift(x))
        f, g = _random_map(rng, field, 5), _random_map(rng, field, 3)
        assert f.compose(g).lift_to(ext) == f.lift_to(ext).compose(g.lift_to(ext))


def test_poly_representation_contract():
    # over F_p, coeffs holds trimmed ints in range(p); coeff and lc return
    # field elements; over Q and F_{p^k}, coeffs holds field elements
    f = Poly(F7, [Fraction(1, 2), F7.elem(10), -1, 14, 0])
    assert f.coeffs == (4, 3, 6)
    assert Poly(F7, [0, 7, 14]).coeffs == ()
    assert f.coeff(1) == F7.elem(3) and isinstance(f.coeff(1), FFElem)
    assert f.lc() == F7.elem(6) and isinstance(f.lc(), FFElem)
    assert f.coeff(3) == F7.zero and Poly.zero(F7).lc() == F7.zero
    rng = random.Random(31)
    for _ in range(10):
        a, b = _random_poly(rng, F7, 8), _random_poly(rng, F7, 5) + Poly.gen(F7)
        sigma = _random_map(rng, F7, 3)
        for g in (a + b, a - b, -a, a * b, *divmod(a, b), a.scale(3), a.derivative(), poly_gcd(a, b),
                  RatFunc(a).compose(sigma).num, RatFunc(a).compose(sigma).den):
            assert all(type(c) is int and 0 <= c < 7 for c in g.coeffs)
            assert not g.coeffs or g.coeffs[-1]
    F49 = field_create(7, 2)
    assert f.lift_to(F7) is f
    assert all(isinstance(c, FFElem) and c.field == F49 for c in f.lift_to(F49).coeffs)
    assert all(isinstance(c, Fraction) for c in parse_ratfunc("t^2/3+1", Q).num.coeffs)
    with pytest.raises(FieldMismatch):
        parse_ratfunc("t^2+1/3", Q).num.lift_to(F49)
    with pytest.raises(FieldMismatch):
        f.lift_to(field_create(5, 2))


def test_prime_field_ops_build_no_field_elements(monkeypatch):
    # F_p polynomials stay int residues: sums, products, division and gcd
    # make no FFElem, and compose and invariance_check make a few, however
    # large the degree
    from flatlab import chebyshev_poly, invariance_check

    counts = []

    def counted(self, field, coeffs):
        counts.append(1)
        self.field, self.coeffs = field, coeffs

    def built(run):
        counts.clear()
        run()
        return len(counts)

    F97, F47 = field_create(97), field_create(47)
    rng = random.Random(29)
    certs = [chebyshev_poly(d, field=F47) for d in (2, 4, 8)]
    t = Poly.gen(F97)
    pairs = [(_random_poly(rng, F97, deg) + t ** (deg + 1), _random_poly(rng, F97, deg // 2) + t ** (deg // 2))
             for deg in (4, 16, 64)]
    maps = [(RatFunc(a, b), RatFunc(b, a)) for a, b in pairs]
    monkeypatch.setattr(FFElem, "__init__", counted)
    for (a, b), (f, g) in zip(pairs, maps):
        for run in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: divmod(a, b),
                    lambda: poly_gcd(a, b)):
            assert built(run) == 0
        assert built(lambda: f.compose(g)) <= 8
    for cert in certs:
        assert built(lambda: invariance_check(cert.sigma, cert.form)) <= 8


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


@pytest.mark.parametrize("field_args, top", [((5, 1), 4), ((7, 1), 3), ((2, 2), 3), ((3, 2), 3)])
def test_poly_is_irreducible_matches_gauss_count(field_args, top):
    # Gauss: (1/n) sum over d | n of mu(d) q^(n/d) monic irreducibles of
    # degree n; over F_5, Ben-Or's test on Poly agrees with the modulus
    # search's on int lists at every monic f
    from flatlab.exactnum import _gf_irreducible

    field = field_create(*field_args)
    q = field.order
    mobius = {1: 1, 2: -1, 3: -1, 4: 0}
    for n in range(1, top + 1):
        want = sum(mu * q ** (n // d) for d, mu in mobius.items() if n % d == 0) // n
        got = 0
        for lower in itertools.product(field.elements(), repeat=n):
            f = Poly(field, [*lower, field.one])
            irreducible = poly_is_irreducible(f)
            assert field.order != 5 or irreducible == _gf_irreducible(list(f.coeffs), 5), f
            got += irreducible
        assert got == want, (field, n)


def _random_irreducible(rng, field, degree):
    """A random monic irreducible of degree 1..3: for these degrees,
    irreducible means no root in the field (checked by enumeration)."""
    while True:
        coeffs = [field.elem_from_index(rng.randrange(field.order)) for _ in range(degree)]
        g = Poly(field, coeffs + [field.one])
        if degree == 1 or all(g.eval(a) for a in field.elements()):
            return g


@pytest.mark.parametrize("field_args", [(5, 1), (7, 1), (13, 1), (5, 2), (2, 1), (3, 1), (2, 3), (3, 2)])
def test_factor_multiplicities(field_args):
    # the critical locus reads ramification indices off these multiplicities;
    # p, p + 1 and 2p reach the p-th-power part of the square-free split
    field = field_create(*field_args)
    p = field.p
    rng = random.Random(19 + field.order)
    sympy = pytest.importorskip("sympy") if field.k == 1 else None
    for _ in range(8):
        want, count = {}, rng.randrange(1, 5)
        while len(want) < count:
            m = rng.choice([1, 2, 3, p, p + 1, 2 * p])
            want.setdefault(_random_irreducible(rng, field, rng.randrange(1, 4)), m)
        f = Poly.constant(field, field.elem(rng.randrange(1, field.p)))
        for g, m in want.items():
            f = f * g ** m
        assert dict(poly_factor(f)) == want
        if sympy is not None:
            x = sympy.Symbol("x")
            coeffs = list(reversed(f.coeffs))
            _, got = sympy.Poly(coeffs, x, modulus=field.p).factor_list()
            monic = {}
            for g, m in got:
                cs = [int(c) % field.p for c in g.all_coeffs()]
                inv = pow(cs[0], -1, field.p)
                monic[tuple(c * inv % field.p for c in reversed(cs))] = m
            assert monic == {g.coeffs: m for g, m in want.items()}


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        poly_factor(Poly.zero(F5))


def test_factor_char2():
    F2 = field_create(2)
    f = parse_ratfunc("t^4 + t", F2).num
    assert [(str(g), m) for g, m in poly_factor(f)] == [("t", 1), ("t + 1", 1), ("t^2 + t + 1", 1)]


@pytest.mark.parametrize("field_args", [(2, 1), (5, 1), (7, 1), (13, 1), (5, 2)])
def test_poly_roots_against_enumeration(field_args):
    field = field_create(*field_args)
    rng = random.Random(23 + field.order)
    polys = []
    for _ in range(10):
        f = Poly.constant(field, field.elem_from_index(rng.randrange(1, field.order)))
        for _ in range(rng.randrange(0, 4)):  # roots in the field, with multiplicity
            root = field.elem_from_index(rng.randrange(field.order))
            f = f * Poly(field, [-root, field.one]) ** rng.randrange(1, 4)
        cofactor = Poly(field, [field.elem_from_index(rng.randrange(field.order))
                                for _ in range(rng.randrange(1, 5))])
        polys.append(f * cofactor if not cofactor.is_zero else f)
    if field.order == 5:
        t5 = parse_ratfunc("t^5 - 1", field).num
        assert poly_roots(t5) == [(field.one, 5)]  # (t - 1)^5
        polys.append(t5)
    for f in polys:
        want = [(a, root_multiplicity(f, a)) for a in field.elements() if not f.eval(a)]
        want.sort(key=lambda item: item[0].coeffs)
        assert poly_roots(f) == want


def test_poly_roots_rejects_zero_and_q():
    with pytest.raises(ZeroPolynomial):
        poly_roots(Poly.zero(F5))
    assert poly_roots(parse_ratfunc("t^2 - 1", Q).num) == [(-1, 1), (1, 1)]


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
        assert poly_roots(f) == want, expr
