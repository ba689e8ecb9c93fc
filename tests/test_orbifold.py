from fractions import Fraction

import pytest

from conftest import (
    assert_mu_matches,
    frobenius_class,
    lattes_expr,
    mu_oracle,
    pointwise_orbifold,
    postcritical_points,
    preimages,
)

from flatlab import (
    TupleForm,
    field_create,
    kummer_genus,
    mu_compute,
    orbifold_data,
    parabolic_signature,
    parse_ratfunc,
    postcritical_graph,
)
from flatlab.dynamics import point_key
from flatlab.orbifold import MU_INFINITY, euler_char
from flatlab.errors import WeightDivisibleByP

F5 = field_create(5)
F7 = field_create(7)
INF = MU_INFINITY


def pt(field, a):
    return field.elem(a)


def mu_of(expr, field):
    """The graph, and mu by point (every class is one point over F_p)."""
    g = postcritical_graph(parse_ratfunc(expr, field))
    assert g.field == field
    return g, {g.point(v): m for v, m in mu_compute(g).items()}


# ---------------------------------------------------------------- mu examples

def test_mu_power_map():
    g, mu = mu_of("t^2", F7)
    assert mu[pt(F7, 0)] == INF
    assert mu[None] == INF


def test_mu_chebyshev():
    g, mu = mu_of("t^2-2", F7)
    assert mu[None] == INF
    assert mu[pt(F7, 5)] == 2
    assert mu[pt(F7, 2)] == 2


def test_mu_ramified_cycle():
    g, mu = mu_of("t^2+1", F5)
    for a in (0, 1, 2):
        assert mu[pt(F5, a)] == INF
    assert mu[None] == INF


# ---------------------------------------------------------------- oracle equivalence

ORACLE_CASES = [
    ("t^2", 5), ("t^2", 7), ("t^3", 7), ("1/t^2", 5), ("1/t^2", 7),
    ("t^2-2", 7), ("t^2-2", 11), ("t^2+1", 5), ("t^2+1", 7), ("t^2+1", 11),
    ("t^2+t", 5), ("t^2+t", 7), ("(t^2+1)/t", 5), ("(t^2+1)/t", 7),
    ("t^3-3*t", 7), ("t^3-3*t", 11), ("t^3+t+1", 5), ("t^3+t+1", 7),
    # Lattes maps with signatures (2,4,4), (2,3,6) and (3,3,3)
    ("-(t+1)^2/(4*t)", 13), ("-(t+4)^3/(27*t^2)", 13), ("(t^4+18*t^2-27)/(8*t^3)", 13),
]


@pytest.mark.parametrize("expr,p", ORACLE_CASES)
def test_mu_matches_bruteforce_oracle(expr, p):
    g = postcritical_graph(parse_ratfunc(expr, field_create(p)))
    if g.field.order > 49:
        pytest.skip("oracle is exhaustive only for field size <= 49")
    assert_mu_matches(g, mu_compute(g), mu_oracle(g), f"{expr} mod {p}")


# ---------------------------------------------------------------- Frobenius quotient

QUOTIENT_CASES = [
    ("(t^4+t+1)/(t^2+3)", 11), ("(t^4+t+1)/(t^2+3)", 17), ("t^6+t^5+2*t+3", 7),
    ("t^3+t+1", 5), ("t^3+t+1", 7), (lattes_expr(), 13),
    ("(t-1)^4/(16*t*(t+1)^2)", 13),  # (2,4,4), critical points in F(13^2)
]


@pytest.mark.parametrize("expr,p", QUOTIENT_CASES)
def test_quotient_graph_matches_pointwise_walk(expr, p):
    # the library walks one vertex per Frobenius class; the oracle walks
    # every point with FFElem arithmetic and runs the mu scan on that graph
    sigma = parse_ratfunc(expr, field_create(p))
    post, chi, signature = pointwise_orbifold(sigma)
    g = postcritical_graph(sigma)
    data = orbifold_data(g)
    points = [(pt, data.mu[v]) for v in data.postcritical for pt in frobenius_class(data.field, v)]
    assert sorted(points, key=lambda item: point_key(item[0])) == post
    assert data.chi == chi
    assert parabolic_signature(data).signature == signature
    assert sum(data.size(v) for v in data.postcritical) == len(post)


def test_quotient_graph_is_smaller_in_an_extension():
    # (t^4+t+1)/(t^2+3) mod 11: 556 postcritical points in F(11^5), which
    # the graph holds as classes of five conjugates (infinity alone)
    g = postcritical_graph(parse_ratfunc("(t^4+t+1)/(t^2+3)", field_create(11)))
    assert g.field.k == 5
    post = postcritical_points(g)
    assert len(post) == 556 == sum(g.size(v) for v in g.postcritical)
    assert len(g.postcritical) < len(post) / 4


# ---------------------------------------------------------------- minimality

@pytest.mark.parametrize("expr,p", [("t^2", 7), ("t^2-2", 7), ("(t^2+1)/t", 5), ("t^3-3*t", 7)])
def test_mu_is_smallest_admissible(expr, p):
    field = field_create(p)
    sigma = parse_ratfunc(expr, field)
    g, mu = mu_of(expr, field)  # chosen instances split over F_p
    post = sorted(postcritical_points(g), key=lambda v: (v is None,))

    pre = {}
    for A in post:
        ext, _, items = preimages(sigma, A)
        entries = []
        for B, e in items:
            if B is None:
                key = None
            elif any(B.coeffs[1:]):
                key = "outside F_p"  # a preimage outside F_p: mu there is 1
            else:
                key = field.elem(B.coeffs[0])
            entries.append((key, e))
        pre[A] = entries

    def admissible(candidate):
        for A in post:
            for key, e in pre[A]:
                mu_b = candidate.get(key, 1)
                need = MU_INFINITY if mu_b == MU_INFINITY else mu_b * e
                have = candidate.get(A, 1)
                if need == MU_INFINITY:
                    if have != MU_INFINITY:
                        return False
                elif have == MU_INFINITY:
                    continue
                elif have % need:
                    return False
        return True

    computed = {A: mu[A] for A in post}
    assert admissible(computed)
    # no pointwise-smaller admissible function exists
    for A in post:
        value = computed[A]
        if value == MU_INFINITY:
            smaller_values = [2 ** 30]
        else:
            smaller_values = [d for d in range(1, value) if value % d == 0]
        for smaller in smaller_values:
            trial = dict(computed)
            trial[A] = smaller
            assert not admissible(trial), f"mu({A}) could drop to {smaller}"


# ---------------------------------------------------------------- chi and signatures

def test_chi_examples():
    for expr, field, chi in [("t^2", F7, 0), ("t^2-2", F7, 0), ("t^2+1", F5, Fraction(-2))]:
        g = postcritical_graph(parse_ratfunc(expr, field))
        assert euler_char(mu_compute(g), g) == chi


def test_chi_is_exact_rational():
    g = postcritical_graph(parse_ratfunc("t^3+t+1", F7))
    data = orbifold_data(g)
    assert isinstance(data.chi, Fraction)
    assert data.chi == Fraction(-1, 2)


def test_signature_examples():
    g = postcritical_graph(parse_ratfunc("t^3", F7))
    res = parabolic_signature(orbifold_data(g))
    assert res.signature == (INF, INF) and res.parabolic

    g = postcritical_graph(parse_ratfunc("t^2-2", F7))
    res = parabolic_signature(orbifold_data(g))
    assert res.signature == (2, 2, INF) and res.parabolic

    g = postcritical_graph(parse_ratfunc("t^2+1", F5))
    res = parabolic_signature(orbifold_data(g))
    assert res.signature == (INF, INF, INF, INF) and not res.parabolic


def test_postcritical_stable_under_iteration():
    # P_sigma = P_{sigma^2} and chi agrees
    for expr, p in [("t^2", 7), ("t^2-2", 7), ("t^2+1", 5), ("t^3-3*t", 7), ("(t^2+1)/t", 7)]:
        field = field_create(p)
        sigma = parse_ratfunc(expr, field)
        if p <= sigma.degree ** 2:
            continue
        g1 = postcritical_graph(sigma)
        g2 = postcritical_graph(sigma.compose(sigma))
        assert {str(v) for v in postcritical_points(g1)} == {str(v) for v in postcritical_points(g2)}
        assert orbifold_data(g1).chi == orbifold_data(g2).chi


def test_mobius_invariance():
    for phi_expr in ["t+1", "2*t", "(t+1)/(t-1)"]:
        sigma = parse_ratfunc("t^2-2", F7)
        phi = parse_ratfunc(phi_expr, F7)
        conj = sigma.conjugate(phi)
        d1 = orbifold_data(postcritical_graph(sigma))
        d2 = orbifold_data(postcritical_graph(conj))
        assert d1.chi == d2.chi
        assert parabolic_signature(d1).signature == parabolic_signature(d2).signature


# ---------------------------------------------------------------- kummer cover

def test_kummer_power_form():
    w = TupleForm(parse_ratfunc("1/t^4", F5), 4)
    cover = kummer_genus(w)
    assert (cover.cover_degree, cover.genus) == (1, 0)


def test_kummer_chebyshev_form():
    w = TupleForm(parse_ratfunc("1/(t^2-4)^3", F7), 6)
    cover = kummer_genus(w)
    assert (cover.cover_degree, cover.genus) == (2, 0)


def test_kummer_lattes_form():
    w = TupleForm(parse_ratfunc("1/(t^3+t)", F7), 2)
    cover = kummer_genus(w)
    assert (cover.cover_degree, cover.genus) == (2, 1)


def test_kummer_numerator_factor():
    # t (dt)^2: a zero at 0 and a pole at infinity, each of order 1, n = 2
    cover = kummer_genus(TupleForm(parse_ratfunc("t", F5), 2))
    assert (cover.cover_degree, cover.genus) == (2, 0)


def test_kummer_weight_divisible_by_p():
    with pytest.raises(WeightDivisibleByP):
        kummer_genus(TupleForm(parse_ratfunc("1/t^5", F5), 5))


def test_kummer_generic_form_any_genus():
    # (dt)^2 / (t^5 - t): five simple poles plus ord 3 at infinity, n = 2
    w = TupleForm(parse_ratfunc("1/(t^5-t)", F7), 2)
    cover = kummer_genus(w)
    assert cover.cover_degree == 2
    assert cover.genus == 2  # hyperelliptic of genus 2: not a semi-invariant form


def test_mu_oracle_random_maps():
    # random maps stress arbitrary graph shapes: long merging tails,
    # pre-periodic critical points, shared cycles
    import random
    from conftest import rigorous_mu_oracle, random_separable_map
    from flatlab import postcritical_graph

    rng = random.Random(99)
    checked = 0
    tried = 0
    while checked < 60 and tried < 3000:
        tried += 1
        p = rng.choice((5, 7, 11, 13, 17))
        field = field_create(p)
        sig = random_separable_map(rng, field, 3)
        if sig.degree < 2 or p <= sig.degree:
            continue
        g = postcritical_graph(sig)
        if g.field.order > 49:
            continue
        assert_mu_matches(g, mu_compute(g), rigorous_mu_oracle(g), f"{sig} mod {p}")
        checked += 1
    assert checked == 60
