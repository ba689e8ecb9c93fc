import random
from fractions import Fraction

import pytest

from flatlab import field_create, is_prime, mat_kernel, rationals
from flatlab.errors import DivisionByZero, FieldMismatch, NotPrime
from flatlab import exactnum
from flatlab.exactnum import (
    _KRONECKER_MIN_LEN,
    FFElem,
    _GFMatrix,
    _find_modulus,
    _gf_add,
    _gf_gcd,
    _gf_inv_mod,
    _gf_irreducible,
    _gf_mul,
    _gf_sub,
    _gf_trim,
    _power,
)


def test_field_create_prime_field():
    F5 = field_create(5)
    assert F5.order == 5
    assert F5.modulus is None
    assert F5.elem(7) == F5.elem(2)


def test_field_create_extension_modulus_is_irreducible():
    F25 = field_create(5, 2)
    assert F25.order == 25
    mod = list(F25.modulus)
    assert mod[-1] == 1 and len(mod) == 3
    # independent checks: no root in F_5, and coprime to x^5 - x
    assert all((mod[0] + mod[1] * a + a * a) % 5 for a in range(5))
    x5x = [0, -1 % 5] + [0, 0, 0, 1]
    assert _gf_gcd(x5x, mod, 5) == [1]
    assert _gf_irreducible(mod, 5)


def test_field_create_rejects_composites():
    with pytest.raises(NotPrime):
        field_create(4)
    with pytest.raises(NotPrime):
        field_create(1)


def test_field_create_deterministic():
    assert field_create(5, 2).modulus == field_create(5, 2).modulus
    assert field_create(5, 2) == field_create(5, 2)
    # frozen: the first lexicographic irreducible quadratics
    assert field_create(5, 2).modulus == (1, 1, 1)
    assert field_create(7, 2).modulus == (1, 0, 1)


# the first lexicographic irreducible moduli of the extensions the default
# sweep 5..50 reaches, frozen so that every printed element stays the same
PINNED_MODULI = {
    (5, 4): (1, 0, 1, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (13, 4): (1, 0, 0, 1, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (7, 6): (1, 0, 0, 0, 1, 0, 1),
    (11, 5): (1, 0, 0, 0, 2, 1),
    (17, 4): (1, 0, 0, 3, 1),
}


@pytest.mark.parametrize("p,k", sorted(PINNED_MODULI))
def test_field_create_pinned_moduli(p, k):
    assert _find_modulus(p, k) == PINNED_MODULI[(p, k)]


def test_modulus_search_skips_multiples_of_x(monkeypatch):
    # a candidate with c_0 = 0 is divisible by x, so the search never tests
    # one: (7, 6) takes 8 Rabin tests, against 16815 from c_0 = 0 on
    calls = []
    real = exactnum._gf_irreducible
    monkeypatch.setattr(exactnum, "_gf_irreducible", lambda f, p: calls.append(f) or real(f, p))
    assert _find_modulus(7, 6) == PINNED_MODULI[(7, 6)]
    assert len(calls) == 8
    assert all(f[0] for f in calls)


def test_prime_field_arithmetic():
    F5 = field_create(5)
    assert F5.elem(1) / F5.elem(2) == F5.elem(3)
    F7 = field_create(7)
    assert F7.elem(3) ** 6 == F7.one
    assert F7.elem(3) ** -1 == F7.elem(5)
    with pytest.raises(DivisionByZero):
        F5.one / F5.zero


def test_extension_multiplicative_group_order():
    F25 = field_create(5, 2)
    nonzero = [a for a in F25.elements() if a]
    assert len(nonzero) == 24
    for a in nonzero:
        assert a ** 24 == F25.one


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (5, 2), (7, 2)])
def test_unit_group_and_pth_root_exhaustive(p, k):
    # exhaustive for field size <= 49
    F = field_create(p, k)
    for a in F.elements():
        assert a.pth_root() ** p == a
        if a:
            assert a ** (F.order - 1) == F.one


def test_pth_root_examples():
    F5 = field_create(5)
    for a in F5.elements():
        assert a.pth_root() == a
    F25 = field_create(5, 2)
    g = F25.elem_from_index(5)
    assert g.pth_root() == g ** 5
    F7 = field_create(7)
    assert F7.zero.pth_root() == F7.zero


def test_cross_field_operations_rejected():
    a = field_create(5).elem(2)
    b = field_create(7).elem(2)
    with pytest.raises(FieldMismatch):
        a + b
    c = field_create(5, 2).elem(2)
    with pytest.raises(FieldMismatch):
        a * c


def test_lift_is_explicit_embedding():
    F5 = field_create(5)
    F25 = field_create(5, 2)
    a = F5.elem(3)
    lifted = F25.lift(a)
    assert lifted.field == F25
    assert lifted * lifted == F25.lift(a * a)
    with pytest.raises(FieldMismatch):
        F25.lift(field_create(7).elem(1))


def test_big_rational_round_trips():
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randrange(-10 ** 30, 10 ** 30), rng.randrange(1, 10 ** 20))
        b = Fraction(rng.randrange(-10 ** 30, 10 ** 30), rng.randrange(1, 10 ** 20))
        assert (a + b) - b == a
        if b:
            assert (a * b) / b == a
            assert (a / b) * (b / a) == 1 if a else True
        assert a.denominator >= 1


def _schoolbook_mul(a, b, p):
    # reference for _gf_mul: the plain double loop, reduced term by term
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and not out[-1]:
        out.pop()
    return out


@pytest.mark.parametrize("p", [5, 97, 2 ** 61 - 1])
def test_gf_add_sub_match_per_coefficient(p):
    # unequal lengths both ways, and b = a or a + b = 0 cancelling to []
    rng = random.Random(p + 3)

    def oracle(a, b, sign):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return _gf_trim([(x + sign * y) % p for x, y in zip(a, b)])

    for la, lb in [(0, 0), (0, 3), (3, 0), (1, 1), (7, 2), (2, 7), (20, 20), (40, 5)]:
        for _ in range(5):
            a = _gf_trim([rng.choice((rng.randrange(p), p - 1)) for _ in range(la)])
            b = _gf_trim([rng.choice((rng.randrange(p), p - 1)) for _ in range(lb)])
            assert _gf_add(a, b, p) == oracle(a, b, 1)
            assert _gf_sub(a, b, p) == oracle(a, b, -1)
        negated = [-c % p for c in a]
        assert _gf_sub(a, a, p) == [] and _gf_add(a, negated, p) == []
        top = a[:-1] + [(a[-1] + 1) % p or 1] if a else [1]  # cancels below the top
        assert _gf_sub(top, a, p) == oracle(top, a, -1)


@pytest.mark.parametrize("p", [5, 97, 10007, 2 ** 61 - 1])
def test_gf_mul_matches_schoolbook(p):
    # lengths on both sides of the Kronecker cut; all-(p-1) operands reach
    # the largest coefficient the slots must hold, min(len) (p-1)^2
    rng = random.Random(p)
    cut = _KRONECKER_MIN_LEN
    lengths = [0, 1, 2, cut - 1, cut, cut + 1, 17, 64, 300]
    fills = [
        lambda: rng.randrange(p),
        lambda: p - 1,
        lambda: rng.choice((0, p - 1)),
    ]
    for la in lengths:
        for lb in lengths:
            for fill in fills:
                a = [fill() for _ in range(la)]
                b = [fill() for _ in range(lb)]
                assert _gf_mul(a, b, p) == _schoolbook_mul(a, b, p), (la, lb)
        a = [p - 1] * la
        assert _gf_mul(a, a, p) == _schoolbook_mul(a, a, p), la


@pytest.mark.parametrize("p", [5, 97, 2 ** 61 - 1])
def test_gf_matrix_matches_dot_products(p):
    # slots of 1 to 8 bytes pack through array; p = 2^61 - 1 needs wider ones
    rng = random.Random(p)
    for nrows, n in [(1, 1), (3, 5), (20, 5), (5, 29)]:
        rows = [[rng.choice((rng.randrange(p), p - 1)) for _ in range(n)] for _ in range(nrows)]
        matrix = _GFMatrix(rows, p, p - 1)
        for _ in range(5):
            v = [rng.choice((rng.randrange(p), p - 1)) for _ in range(n)]
            assert matrix(matrix.pack(v)) == [sum(r * x for r, x in zip(row, v)) % p for row in rows]


@pytest.mark.parametrize("p,k", [(5, 2), (7, 6), (47, 5), (10007, 3)])
def test_gf_inv_mod_inverts(p, k):
    F = field_create(p, k)
    rng = random.Random(p)
    for _ in range(20):
        a = F.elem_from_index(rng.randrange(1, F.order))
        inv = _gf_inv_mod(_gf_trim(list(a.coeffs)), list(F.modulus), p)
        assert (a * FFElem(F, tuple(inv) + (0,) * (k - len(inv)))) == F.one


def test_kernel_zero_matrix():
    F5 = field_create(5)
    basis = mat_kernel([[0, 0], [0, 0]], F5)
    assert len(basis) == 2


def test_kernel_identity():
    F7 = field_create(7)
    assert mat_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], F7) == []


def test_kernel_rank_one_example():
    # oracle: enumerate all 25 vectors over F_5 and keep those with Mv = 0
    F5 = field_create(5)
    M = [[1, 2], [2, 4]]
    solutions = set()
    for v0 in range(5):
        for v1 in range(5):
            if (v0 + 2 * v1) % 5 == 0 and (2 * v0 + 4 * v1) % 5 == 0:
                solutions.add((v0, v1))
    basis = mat_kernel(M, F5)
    assert len(basis) == 1
    v = tuple(c.coeffs[0] for c in basis[0])
    assert v == (3, 1)
    spanned = {tuple((s * c) % 5 for c in v) for s in range(5)}
    assert spanned == solutions


def _naive_rank(rows, field):
    m = [[field.elem(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0])
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.one / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("field_args", [(5, 1), (7, 1), (5, 2), (0,)])
def test_kernel_rank_nullity_and_exactness(field_args):
    field = rationals() if field_args == (0,) else field_create(*field_args)
    rng = random.Random(7)
    for _ in range(25):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        if field.is_rationals:
            rows = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(ncols)]
                    for _ in range(nrows)]
        else:
            rows = [[field.elem_from_index(rng.randrange(field.order)) for _ in range(ncols)]
                    for _ in range(nrows)]
        basis = mat_kernel(rows, field)
        assert _naive_rank(rows, field) + len(basis) == ncols
        for v in basis:
            for row in rows:
                acc = field.zero
                for x, c in zip(row, v):
                    acc = acc + field.elem(x) * c
                assert not acc


@pytest.mark.parametrize("p", [5, 7, 13, 0])
def test_kernel_rank_matches_sympy(p):
    # oracle: sympy's DomainMatrix rank over GF(p) or QQ; rank-deficient
    # products A B make most kernels nontrivial
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF, QQ

    field, dom = (field_create(p), GF(p)) if p else (rationals(), QQ)
    rng = random.Random(41 + p)

    def entry():
        return rng.randrange(-2 * p, 2 * p) if p else Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))

    for _ in range(30):
        nrows, ncols, inner = rng.randrange(1, 8), rng.randrange(1, 8), rng.randrange(1, 6)
        a = [[entry() for _ in range(inner)] for _ in range(nrows)]
        b = [[entry() for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]
        rank = matrices.DomainMatrix([[dom(x) for x in r] for r in rows], (nrows, ncols), dom).rank()
        basis = mat_kernel(rows, field)
        assert rank + len(basis) == ncols, rows
        for v in basis:
            for r in rows:
                assert not sum((field.elem(x) * c for x, c in zip(r, v)), field.zero)


def test_kernel_bad_entry_rejected():
    with pytest.raises(FieldMismatch):
        mat_kernel([[1, 0.5]], field_create(5))


def test_kernel_ragged_rejected():
    with pytest.raises(FieldMismatch):
        mat_kernel([[1, 2], [1]], field_create(5))


def test_kernel_mixed_field_rejected():
    with pytest.raises(FieldMismatch):
        mat_kernel([[field_create(5).elem(1), field_create(7).elem(1)]], field_create(5))


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_pow_accepts_huge_exponents():
    F25 = field_create(5, 2)
    g = F25.elem_from_index(7)
    e = 10 ** 30
    assert g ** e == g ** (e % 24)
    assert g ** (-e) == (g ** e).inverse()


POWER_EXPONENTS = sorted({0, 1} | {e for j in range(1, 21) for e in (2 ** j, 2 ** j - 1)})


def _check_power_against_products(x, one, mul, top):
    # x^e for e = 0, 1, 2^j, 2^j - 1 up to top, by one running product
    wanted = {e for e in POWER_EXPONENTS if e <= top}
    acc = one
    for e in range(top + 1):
        if e in wanted:
            assert _power(x, e, one, mul) == acc, e
        acc = mul(acc, x)


def test_power_matches_repeated_multiplication_mod_10007():
    _check_power_against_products(1234, 1, lambda a, b: a * b % 10007, 2 ** 20)


def test_power_matches_repeated_multiplication_mod_cubic():
    # residue lists over F_97 modulo a cubic; a running product to 2^20
    # would take seconds, and the int case above reaches it
    m, p = [3, 1, 0, 1], 97
    _check_power_against_products([5, 7, 11], [1], lambda a, b: exactnum._gf_divmod(_gf_mul(a, b, p), m, p)[1], 2 ** 12)


def test_power_matches_repeated_multiplication_in_f343():
    F = field_create(7, 3)
    g = F.elem_from_index(100)
    _check_power_against_products(g, F.one, FFElem.__mul__, 2 ** 12)
    # the unit group has order 342: exponents up to 2^20 against the
    # running product up to e mod 342
    powers = [F.one]
    for _ in range(341):
        powers.append(powers[-1] * g)
    assert powers[-1] * g == F.one
    for e in POWER_EXPONENTS:
        assert _power(g, e, F.one, FFElem.__mul__) == powers[e % 342] == g ** e


def test_power_multiplication_count():
    # elements are 1-tuples under addition, so a product is a fresh tuple
    # and a squaring is the one call whose operands are the same object
    for e in POWER_EXPONENTS + list(range(2, 70)) + [10 ** 30, 3 ** 50]:
        squarings, products = [], []

        def mul(a, b):
            (squarings if a is b else products).append(1)
            return (a[0] + b[0],)

        assert _power((1,), e, (0,), mul) == (e,)
        bits = e.bit_length()
        assert len(squarings) == max(bits - 1, 0), e  # none past the top bit
        assert len(products) == bin(e).count("1"), e
        assert len(squarings) + len(products) <= max(2 * bits - 1, 0), e
