"""Shared test oracles: brute-force mu via preimage chains, the per-point
orbit walk, the Frobenius class of a vertex, preimage enumeration in a
splitting field, and a plain affine group law for elliptic curves.  These
stay independent of the code paths they check."""

import math
from fractions import Fraction

from flatlab import (
    EllipticCurve,
    Poly,
    RatFunc,
    critical_locus,
    field_create,
    lattes_map,
    format_ratfunc,
    p1_eval,
    poly_factor,
    poly_roots,
    ram_index,
    rationals,
)
from flatlab.dynamics import point_key, vertex_point
from flatlab.orbifold import MU_INFINITY

FLAT_BATTERY = ["t^2", "t^3", "1/t^2", "t^2-2", "t^3-3*t"]
NONFLAT_BATTERY = ["t^2+1", "t^2+t", "(t^2+1)/t", "t^3+t+1"]


def lattes_expr(a=1, b=0, m=2):
    cert = lattes_map(EllipticCurve(rationals(), a, b), m)
    return format_ratfunc(cert.sigma)


def mu_oracle(graph, max_m=12, cap=2 ** 32, stable_window=None):
    """Brute-force mu: enumerate every point of P^1(F_{p^k}) and every
    chain length m <= max_m, accumulate lcm of e_{sigma^m}(B) by the tame
    chain rule.  A value above the cap, or still growing inside the final
    stable_window steps, counts as inf.

    The window must exceed every ramified cycle length (unbounded growth
    recurs at least once per cycle period) and start after every first
    arrival (tails are at most q + 1 long); the defaults suit the short
    orbits of the desk battery, and rigorous_mu_oracle picks sound sizes
    from the field itself."""
    if stable_window is None:
        stable_window = max_m // 2
    field = graph.field
    sig = graph.sigma.lift_to(field)
    pts = list(field.elements()) + [None]
    e_of = {pt: ram_index(sig, pt) for pt in pts}
    step = {pt: p1_eval(sig, pt) for pt in pts}
    arrivals = {pt: [] for pt in pts}
    for B in pts:
        v, e = B, 1
        for m in range(1, max_m + 1):
            e *= e_of[v]
            v = step[v]
            arrivals[v].append((m, e))
    out = {}
    for A in pts:
        upto_start = 1
        upto_last = 1
        for m, e in arrivals[A]:
            if m <= max_m - stable_window:
                upto_start = math.lcm(upto_start, e)
            upto_last = math.lcm(upto_last, e)
        if upto_last > cap or upto_last != upto_start:
            out[A] = MU_INFINITY
        else:
            out[A] = upto_last
    return out


def frobenius_class(field, v):
    """The points of the Frobenius class of orbit-graph vertex v, sorted by
    point_key: its point and the powers x -> x^p of it until they come
    back, by FFElem arithmetic.  The oracle that class names are checked
    against."""
    pt = vertex_point(field, v)
    if pt is None or field.k == 1:
        return [pt]
    out = [pt]
    nxt = pt ** field.p
    while nxt != pt:
        out.append(nxt)
        nxt = nxt ** field.p
    return sorted(out, key=point_key)


def assert_mu_matches(graph, mu, oracle, label=""):
    """Every conjugate point of every class of the graph has the class's mu
    in the oracle, and every other point of P^1 has mu 1 there."""
    covered = set()
    for v in graph.vertices:
        for pt in frobenius_class(graph.field, v):
            assert mu.get(v, 1) == oracle[pt], f"{label}: mu({pt}) = {mu.get(v, 1)} but oracle says {oracle[pt]}"
            covered.add(pt)
    for pt, value in oracle.items():
        if pt not in covered:
            assert value == 1, f"{label}: oracle gives mu({pt}) = {value} off the graph"


def postcritical_points(graph):
    """The postcritical set of the graph as points: every class expanded."""
    return {pt for v in graph.postcritical for pt in frobenius_class(graph.field, v)}


def pointwise_orbifold(sigma):
    """The orbifold of a map over F_p from the walk over points, one vertex
    per point of P^1(F_{p^k}) with FFElem arithmetic, and the mu scan over
    that graph: ([(point, mu)] over the postcritical set sorted by point,
    chi, signature).  The library walks Frobenius classes instead."""
    ext, crits = critical_locus(sigma)
    sig = sigma.lift_to(ext)
    edges = {}
    for c in crits:
        v = c.point
        while v not in edges:
            edges[v] = v = p1_eval(sig, v)
    weights = {c.point: c.e for c in crits}
    mu = {}
    for c in crits:
        path, pos = [c.point], {c.point: 0}
        while edges[path[-1]] not in pos:
            pos[edges[path[-1]]] = len(path)
            path.append(edges[path[-1]])
        start = pos[edges[path[-1]]]
        ramified = any(v in weights for v in path[start:])
        # each point path[i], i >= 1, and path[start] again after one loop
        prod = weights[c.point]
        for i, v in enumerate(path[1:] + [path[start]], 1):
            contrib = MU_INFINITY if ramified and i >= start else prod
            old = mu.get(v, 1)
            mu[v] = MU_INFINITY if MU_INFINITY in (old, contrib) else math.lcm(old, contrib)
            prod *= weights.get(v, 1)
    post = sorted(mu.items(), key=lambda item: point_key(item[0]))
    chi = 2 - sum(1 - (0 if m == MU_INFINITY else Fraction(1, m)) for _, m in post)
    signature = tuple(sorted((m for _, m in post), key=lambda m: (m == MU_INFINITY, m)))
    return post, chi, signature


def rigorous_mu_oracle(graph):
    """mu_oracle with window sizes that are provably sound for the whole
    field: first arrivals finish within N = q + 1 steps and every cycle
    has length at most N, so growth between 2N and 3N decides inf."""
    n = graph.field.order + 1
    return mu_oracle(graph, max_m=3 * n, cap=2 ** 128, stable_window=n)


def preimages(sigma, A):
    """All preimages of A under a map over F_p, inside a splitting
    extension: returns (ext field, lifted sigma, [(point, e), ...]), a
    point being a field element or None at infinity."""
    field = sigma.field
    assert field.k == 1
    if A is None:
        poly = sigma.den
    else:
        poly = sigma.num - sigma.den.scale(A)
    pts = []
    k = 1
    factors = poly_factor(poly) if not poly.is_zero else []
    for g, _ in factors:
        k = math.lcm(k, g.degree)
    ext = field_create(field.p, k) if k > 1 else field
    sig = sigma.lift_to(ext)
    for g, _ in factors:
        for root, _ in poly_roots(g.lift_to(ext)):
            pts.append(root)
    if p1_eval(sigma, None) == A:
        pts.append(None)
    return ext, sig, [(pt, ram_index(sig, pt)) for pt in pts]


def critical_points(sigma, ext):
    """{point: e} over the critical points of a map over F_p inside ext:
    the roots of the Wronskian by poly_roots's full split over ext, and
    infinity when ram_index puts e > 1 there; every e is ram_index's."""
    sig = sigma.lift_to(ext)
    pts = [root for root, _ in poly_roots(sigma.wronskian().lift_to(ext))]
    if ram_index(sig, None) > 1:
        pts.append(None)
    return {pt: ram_index(sig, pt) for pt in pts}


# ----------------------------------------------------------------------
# Affine elliptic-curve group law over F_p (independent of the atlas code)
# ----------------------------------------------------------------------

def ec_points(a, b, p):
    pts = []
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                pts.append((x, y))
    return pts


def ec_add(P, Q, a, p):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def ec_mul(P, n, a, p):
    out = None
    add = P
    while n:
        if n & 1:
            out = ec_add(out, add, a, p)
        add = ec_add(add, add, a, p)
        n >>= 1
    return out


def random_separable_map(rng, field, max_deg):
    """Random non-constant map over F_p with degree <= max_deg < p (tame)."""
    while True:
        dn = rng.randrange(0, max_deg + 1)
        dd = rng.randrange(0, max_deg + 1)
        if max(dn, dd) < 1:
            continue
        num = Poly(field, [rng.randrange(field.p) for _ in range(dn)] + [rng.randrange(1, field.p)])
        den = Poly(field, [rng.randrange(field.p) for _ in range(dd)] + [rng.randrange(1, field.p)])
        if den.is_zero:
            continue
        sigma = RatFunc(num, den)
        if sigma.is_constant or sigma.derivative().is_zero:
            continue
        return sigma
