import random

import pytest

from conftest import frobenius_class, lattes_expr, postcritical_points, preimages, random_separable_map

from flatlab import (
    FFElem,
    Poly,
    TupleForm,
    critical_locus,
    field_create,
    form_ord,
    orbifold_data,
    p1_eval,
    parse_ratfunc,
    poly_factor,
    poly_is_irreducible,
    postcritical_graph,
    ram_index,
    rationals,
)
from flatlab.dynamics import _ResidueWalk, class_min_poly, point_key, vertex_key, vertex_point
from flatlab.errors import BadCharacteristic, Inseparable, IrrationalCriticalPoints, OrbitBoundExceeded

F5 = field_create(5)
F7 = field_create(7)


def pt(field, a):
    return field.elem(a)


def point_str(point):
    return "inf" if point is None else str(point)


# ---------------------------------------------------------------- evaluation

def test_eval_pole_goes_to_infinity():
    assert p1_eval(parse_ratfunc("1/t", F5), pt(F5, 0)) is None


def test_eval_polynomial_at_infinity():
    assert p1_eval(parse_ratfunc("t^2-2", F7), None) is None


def test_eval_leading_coefficient_ratio():
    sig = parse_ratfunc("(3*t^2+1)/(t^2+1)", F5)
    assert p1_eval(sig, None) == pt(F5, 3)
    # cross-check via the substitution t -> 1/s at s = 0
    flipped = sig.compose(parse_ratfunc("1/t", F5))
    assert flipped.num.eval(F5.zero) / flipped.den.eval(F5.zero) == F5.elem(3)


def test_eval_degree_deficit_gives_zero():
    assert p1_eval(parse_ratfunc("t/(t^2+1)", F5), None) == pt(F5, 0)


@pytest.mark.parametrize("field, expr, at_infinity, e_at_zero", [
    (F7, "1/t^2", 0, 2),
    (F5, "(t^3+t+1)/t", None, 1),  # critical points in F(5^2)
    (rationals(), "1/t^2", 0, 2),
], ids=["F_p", "F_p^k", "Q"])
def test_infinity_is_none_across_the_point_api(field, expr, at_infinity, e_at_zero):
    # a point of P^1 is a field element or None; the point 0 is falsy, so
    # each check also runs at 0, where the answer differs from infinity's
    sigma = parse_ratfunc(expr, field)
    ext, crits = critical_locus(sigma)
    lifted = sigma.lift_to(ext)
    zero = ext.zero
    assert p1_eval(lifted, None) == (None if at_infinity is None else ext.elem(at_infinity))
    assert p1_eval(lifted, zero) is None  # a pole
    (datum,) = [c for c in crits if c.point is None]
    assert datum.e == ram_index(lifted, None) == 2
    assert ram_index(lifted, zero) == e_at_zero
    omega = TupleForm(parse_ratfunc("t", ext), 1)
    assert (form_ord(omega, None), form_ord(omega, zero)) == (-3, 1)
    graph = postcritical_graph(sigma)
    assert graph.field == ext and vertex_key(ext, None) == ext.order
    assert ext.order in graph.vertices
    assert graph.point(ext.order) is None
    assert class_min_poly(ext, ext.order) is None


# ---------------------------------------------------------------- ramification

def test_ram_index_examples():
    t2 = parse_ratfunc("t^2", F7)
    assert ram_index(t2, pt(F7, 0)) == 2
    assert ram_index(t2, None) == 2
    assert ram_index(parse_ratfunc("t^2-2", F7), pt(F7, 1)) == 1


def test_ram_index_at_pole():
    sig = parse_ratfunc("1/t^2", F7)
    assert ram_index(sig, pt(F7, 0)) == 2


def test_ram_index_inseparable():
    F11 = field_create(11)
    with pytest.raises(Inseparable):
        ram_index(parse_ratfunc("t^11", F11), pt(F11, 0))


def test_ram_index_over_q():
    sig = parse_ratfunc("t^3", rationals())
    assert ram_index(sig, sig.field.elem(0)) == 3
    assert ram_index(sig, None) == 3


# ---------------------------------------------------------------- critical locus

def test_critical_locus_power_map():
    ext, data = critical_locus(parse_ratfunc("t^2", F7))
    assert ext == F7
    assert [(point_str(c.point), c.e) for c in data] == [("0", 2), ("inf", 2)]


def test_critical_locus_chebyshev():
    _, data = critical_locus(parse_ratfunc("t^2-2", F7))
    assert [(point_str(c.point), c.e) for c in data] == [("0", 2), ("inf", 2)]


def test_critical_locus_cubic():
    _, data = critical_locus(parse_ratfunc("t^3-3*t", F7))
    assert [(point_str(c.point), c.e) for c in data] == [("1", 2), ("6", 2), ("inf", 3)]
    assert sum(c.e - 1 for c in data) == 2 * 3 - 2


def test_critical_locus_needs_large_p():
    with pytest.raises(BadCharacteristic):
        critical_locus(parse_ratfunc("t^3+t", field_create(3)))


def test_critical_locus_over_q_needs_rational_points():
    # W = 3t^2 + 1 has no rational root
    with pytest.raises(IrrationalCriticalPoints, match="^critical points are not all rational$"):
        critical_locus(parse_ratfunc("t^3+t+1", rationals()))
    with pytest.raises(ValueError, match="over Q or a prime field"):
        critical_locus(parse_ratfunc("t^3+t+1", field_create(5, 2)))


def test_postcritical_graph_over_q_stops_a_wandering_orbit():
    # 0 -> 1 -> 2 -> 5 -> 26 -> ... under t^2 + 1
    with pytest.raises(OrbitBoundExceeded, match="^a critical orbit never closes"):
        postcritical_graph(parse_ratfunc("t^2+1", rationals()))


def test_critical_locus_extension_field():
    # 3t^2 + 1 has no root mod 5, so the critical points live in F_25
    ext, data = critical_locus(parse_ratfunc("t^3+t+1", F5))
    assert ext.order == 25
    assert sum(c.e - 1 for c in data) == 4


def test_riemann_hurwitz_budget_random():
    # oracle: ram_index by Moebius moves, never the Wronskian rule that
    # critical_locus uses; its total over the data must reach 2d - 2, so
    # no critical point may be missing
    rng = random.Random(23)
    maps = []
    for p in (5, 7, 11, 13):
        field = field_create(p)
        start = len(maps)
        while len(maps) < start + 10:
            sig = random_separable_map(rng, field, 4)
            if sig.degree >= 2 and field.p > sig.degree:
                maps.append(sig)
    maps += [
        parse_ratfunc("1/t^2", F7),  # critical infinity, critical pole
        parse_ratfunc("(t^3+1)/t^2", field_create(11)),  # double pole
        parse_ratfunc("t^3-3*t", F7),
        parse_ratfunc(lattes_expr(), field_create(13)),  # points in F(13^2)
    ]
    for sig in maps:
        ext, data = critical_locus(sig)
        lifted = sig.lift_to(ext)
        oracle = [ram_index(lifted, c.point) for c in data]
        assert [c.e for c in data] == oracle, sig
        assert sum(e - 1 for e in oracle) == 2 * sig.degree - 2, sig


def test_ram_multiplicativity_along_orbits():
    # e_{sigma^m}(B) on the composed map equals the chain-rule product
    rng = random.Random(29)
    F17 = field_create(17)
    for _ in range(15):
        sig = random_separable_map(rng, F17, 2)
        if sig.degree != 2:
            continue
        for m in (2, 3, 4):
            composed = sig
            for _ in range(m - 1):
                composed = sig.compose(composed)
            B = F17.elem(rng.randrange(17))
            prod = 1
            v = B
            for _ in range(m):
                prod *= ram_index(sig, v)
                v = p1_eval(sig, v)
            assert ram_index(composed, B) == prod


def test_fiber_count_in_splitting_field():
    rng = random.Random(31)
    for p in (7, 11):
        field = field_create(p)
        for _ in range(10):
            sig = random_separable_map(rng, field, 3)
            if sig.degree < 2 or field.p <= sig.degree:
                continue
            ext, crits = critical_locus(sig)
            lifted = sig.lift_to(ext)
            crit_values = {p1_eval(lifted, c.point) for c in crits}
            a = field.elem(rng.randrange(p))
            if ext.lift(a) in crit_values:
                continue
            _, _, pre = preimages(sig, a)
            assert len(pre) == sig.degree
            assert all(e == 1 for _, e in pre)


# ---------------------------------------------------------------- orbit graph

def point_graph(expr, field):
    """Edges and postcritical set by point, for a graph over F_p itself."""
    g = postcritical_graph(parse_ratfunc(expr, field))
    assert g.field == field
    edges = {g.point(v): g.point(w) for v, w in g.edges.items()}
    return g, edges, postcritical_points(g)


def test_graph_power_map():
    g, edges, post = point_graph("t^2", F7)
    assert [point_str(g.point(v)) for v in g.vertices] == ["0", "inf"]
    assert edges[pt(F7, 0)] == pt(F7, 0)
    assert edges[None] is None
    assert post == {pt(F7, 0), None}


def test_graph_chebyshev_orbit():
    _, edges, post = point_graph("t^2-2", F7)
    assert edges[pt(F7, 0)] == pt(F7, 5)  # -2 = 5 mod 7
    assert edges[pt(F7, 5)] == pt(F7, 2)
    assert edges[pt(F7, 2)] == pt(F7, 2)
    assert post == {pt(F7, 5), pt(F7, 2), None}


def test_graph_cycle():
    _, edges, post = point_graph("t^2+1", F5)
    assert edges[pt(F5, 0)] == pt(F5, 1)
    assert edges[pt(F5, 1)] == pt(F5, 2)
    assert edges[pt(F5, 2)] == pt(F5, 0)
    assert post == {pt(F5, 0), pt(F5, 1), pt(F5, 2), None}


@pytest.mark.parametrize("expr,p,k", [
    ("(t^4+t+1)/(t^2+3)", 5, 4), ("t^6+t^5+2*t+3", 1009, 2), ("1/t^2", 7, 1), ("(t^3+2)/(t^2+1)", 11, 3),
    ("(2*t^2+1)/(t^2+3)", 7, 3),
])
def test_residue_walk_matches_p1_eval(expr, p, k):
    # sigma on packed points against FFElem evaluation, and each point's
    # class against its Frobenius conjugates; at p = 1009 the Kronecker
    # slots are wider than 8 bytes, and the last map sends infinity to the
    # ratio of leading coefficients, 2, a point of F_7 packed into F_{7^3}
    ext = field_create(p, k)
    sigma = parse_ratfunc(expr, field_create(p))
    walk = _ResidueWalk(sigma, ext)
    lifted = sigma.lift_to(ext)
    rng = random.Random(p)
    points = [None, ext.zero] + [ext.elem_from_index(rng.randrange(ext.order)) for _ in range(40)]
    points += [ext.elem(a) for a in range(min(p, 8))]
    for point in points:
        key = vertex_key(ext, point)
        assert vertex_point(ext, key) == point
        assert walk.step(key) == vertex_key(ext, p1_eval(lifted, point))
        rep, size = walk.canon(key)
        conjugates = frobenius_class(ext, key)
        assert (rep, size) == (vertex_key(ext, conjugates[0]), len(conjugates))


@pytest.mark.parametrize("p,k", [(5, 3), (3, 4)])
def test_vertex_key_codec_round_trips_in_point_key_order(p, k):
    ext = field_create(p, k)
    points = list(ext.elements()) + [None]
    keys = [vertex_key(ext, point) for point in points]
    assert [vertex_point(ext, key) for key in keys] == points
    assert sorted(range(len(points)), key=keys.__getitem__) == sorted(
        range(len(points)), key=lambda i: point_key(points[i]))


def test_class_min_poly_is_the_irreducible_of_the_class():
    # checked against the product of x - c over the conftest Frobenius class,
    # poly_is_irreducible, evaluation at every conjugate, and, at a critical
    # class, the factor of the Wronskian vanishing there; infinity has no
    # minimal polynomial.  The cases cover k = 1, infinity, and classes
    # smaller than k (the F_11 points of the F(11^5) graph)
    rng = random.Random(10)
    maps = [parse_ratfunc("(t^4+t+1)/(t^2+3)", field_create(11))]  # classes in F(11^5)
    maps.append(parse_ratfunc("t^2-2", F7))  # every class a point of F_7
    for p in (5, 7, 11, 13):
        maps += [random_separable_map(rng, field_create(p), 4) for _ in range(3)]
    seen = set()
    for sigma in maps:
        Fp = sigma.field
        if sigma.degree < 2 or Fp.p <= sigma.degree:
            continue
        wron = sigma.num.derivative() * sigma.den - sigma.num * sigma.den.derivative()
        factors = [g for g, _ in poly_factor(wron)]
        g = postcritical_graph(sigma)
        ext = g.field
        for v in g.vertices:
            minpoly = class_min_poly(ext, v)
            points = frobenius_class(ext, v)
            if points[0] is None:
                assert minpoly is None
                seen.add("inf")
                continue
            seen.add("k = 1" if ext.k == 1 else "size < k" if g.size(v) < ext.k else "size = k > 1")
            product = Poly.one(ext)
            for point in points:
                product = product * Poly(ext, (-point, 1))
            assert Poly(ext, minpoly) == product
            assert minpoly[-1] == 1
            assert len(minpoly) - 1 == g.size(v) == len(points)
            assert poly_is_irreducible(Poly(Fp, minpoly))
            if v in g.critical:
                vanishing = [f for f in factors if not f.lift_to(ext).eval(g.point(v))]
                assert [f.coeffs for f in vanishing] == [minpoly]
    assert seen == {"inf", "k = 1", "size < k", "size = k > 1"}


def test_class_names_make_no_extension_field_arithmetic(monkeypatch):
    # naming the 112 postcritical classes of the F(11^5) graph raises no
    # FFElem to a power and builds no Poly over a field with k > 1
    data = orbifold_data(postcritical_graph(parse_ratfunc("(t^4+t+1)/(t^2+3)", field_create(11))))
    assert data.field.k == 5
    calls = []
    power, init, make = FFElem.__pow__, Poly.__init__, Poly._make.__func__

    def counted_power(self, e):
        calls.append("FFElem.__pow__")
        return power(self, e)

    def counted_init(self, field, coeffs=()):
        if field.k > 1:
            calls.append("Poly over F_{p^k}")
        init(self, field, coeffs)

    def counted_make(cls, field, coeffs):
        if field.k > 1:
            calls.append("Poly over F_{p^k}")
        return make(cls, field, coeffs)

    monkeypatch.setattr(FFElem, "__pow__", counted_power)
    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(Poly, "_make", classmethod(counted_make))
    rows = data.classes()
    assert len(rows) == 112
    assert calls == []


def _char0_graph(expr):
    """The orbit graph that classify --char0 builds over Q."""
    return postcritical_graph(parse_ratfunc(expr, rationals()))


def test_graph_functional_and_closed():
    graphs = [
        postcritical_graph(parse_ratfunc(expr, field))
        for expr, field in [
            ("t^2-2", F7),
            ("t^2+1", F5),
            ("t^3+t+1", F5),  # critical points in F(5^2)
            ("(t^2+1)/t", F7),
            ("(t^2+1)/t", field_create(11)),
            (lattes_expr(), field_create(13)),  # critical points in F(13^2)
        ]
    ]
    graphs += [_char0_graph(expr) for expr in ("t^2-2", "t^2-1", "t^3", "1/t^2")]
    graphs.append(postcritical_graph(parse_ratfunc("(t^4+t+1)/(t^2+3)", field_create(11))))  # F(11^5)
    assert graphs[2].field.k == graphs[5].field.k == 2
    for g in graphs:
        sigma = g.sigma.lift_to(g.field)
        for v in g.vertices:
            assert g.edges[v] in g.edges  # closed under the edge map
            image = frobenius_class(g.field, g.edges[v])
            points = frobenius_class(g.field, v)
            assert len(points) == g.size(v)
            assert g.point(v) == points[0]  # the point_key-least conjugate
            for point in points:
                assert p1_eval(sigma, point) in image
                # read off the critical locus
                assert g.weights.get(v, 1) == ram_index(sigma, point)
        reachable = set()
        for c in g.critical:
            v = g.edges[c]
            while v not in reachable:
                reachable.add(v)
                v = g.edges[v]
        assert reachable == set(g.postcritical)
