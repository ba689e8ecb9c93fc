"""Orbifold data of a rational map: the weight function mu, the exact Euler
characteristic, parabolic-signature detection, and the genus of the cyclic
cover attached to a form.

mu(A) is the lcm of the ramification indices of all backward chains into A.
On the finite forward-orbit graph this becomes a scan: any chain acquires
ramification only at critical points, and from its first critical visit on
it coincides with the forward orbit of that critical point; so mu(A) is the
lcm, over critical vertices C reaching A, of the weight products along the
walk C -> A, and is infinite exactly when A lies on a cycle through a
critical vertex (the walk can absorb the ramified loop arbitrarily often).
The brute-force preimage-chain oracle in the test suite guards this
reformulation.

The orbit graph holds one vertex per Frobenius class.  The Frobenius
commutes with the map (its coefficients lie in F_p) and keeps ramification
indices, so it carries backward chains into A to backward chains into the
conjugates of A with the same ramification: mu is constant on a class.
So chi = 2 - sum over postcritical classes of size (1 - 1/mu), and the
signature counts each class's mu once per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadWeight, FieldMismatch, WeightDivisibleByP
from .dynamics import OrbitGraph, class_min_poly
from .ratfunc import poly_factor

MU_INFINITY = math.inf

# every signature a chi = 0 orbifold can have, with the flat family it hints at
PARABOLIC_SIGNATURES = {
    (MU_INFINITY, MU_INFINITY): "power-like",
    (2, 2, MU_INFINITY): "chebyshev-like",
    (2, 2, 2, 2): "lattes-like",
    (3, 3, 3): "lattes-like",
    (2, 4, 4): "lattes-like",
    (2, 3, 6): "lattes-like",
}


def mu_lcm(a, b):
    if a == MU_INFINITY or b == MU_INFINITY:
        return MU_INFINITY
    return math.lcm(a, b)


def _rho(edges, weights, start):
    """(tail, cycle length, whether a weighted vertex lies on the cycle) of
    the walk from start in a functional graph, by Brent's cycle detection,
    which stores no vertex of the walk, and one lap of the cycle."""
    power = lam = 1
    tortoise, hare = start, edges[start]
    while tortoise != hare:
        if power == lam:
            tortoise, power, lam = hare, power * 2, 0
        hare = edges[hare]
        lam += 1
    tortoise = hare = start
    for _ in range(lam):
        hare = edges[hare]
    tail = 0
    while tortoise != hare:
        tortoise, hare = edges[tortoise], edges[hare]
        tail += 1
    ramified = False
    for _ in range(lam):
        ramified = ramified or hare in weights
        hare = edges[hare]
    return tail, lam, ramified


def mu_compute(graph: OrbitGraph) -> dict:
    """mu at every postcritical vertex (mu is 1 off the postcritical set).

    The graph holds one vertex per Frobenius class, and the scan runs on it
    as on a graph of points: a class lies on a cycle of the graph exactly
    when its points are periodic, the weights along a real cycle are the
    graph cycle's weights repeated, and a real walk C -> A meets the same
    classes with the same weights as the graph walk [C] -> [A].
    A walk takes tail + lam steps: its last step re-enters the cycle, giving
    mu = inf to a critical start on its own (ramified) cycle, or else a
    contribution made before.
    """
    edges, weights = graph.edges, graph.weights
    mu = dict.fromkeys(edges, 1)  # sized once: 1 until a walk passes the vertex
    for crit in graph.critical:
        # the walk from crit passes tail vertices, then loops through lam
        tail, lam, ramified_cycle = _rho(edges, weights, crit)
        prod = weights[crit]  # the weight product of the walk's first i vertices
        v = crit
        for i in range(1, tail + lam + 1):
            v = edges[v]
            contrib = MU_INFINITY if (ramified_cycle and i >= tail) else prod
            mu[v] = mu_lcm(mu[v], contrib)
            prod *= weights.get(v, 1)
    for crit in graph.critical:
        if mu[crit] == 1:
            del mu[crit]  # no critical orbit comes back to it
    # every contribution is at least a critical weight, so mu > 1 must hold
    # exactly on the edge targets, the postcritical vertices
    if 1 in mu.values() or not all(w in mu for w in edges.values()):
        raise RuntimeError("mu does not mark the postcritical set (internal)")
    return mu


@dataclass(frozen=True)
class OrbifoldData:
    """The postcritical Frobenius classes with their mu values and the exact
    chi.

    postcritical: the classes as orbit-graph vertices, sorted by point;
    mu: vertex -> mu; sizes: vertex -> class size where it is below field.k.
    """

    field: object
    postcritical: tuple
    mu: dict
    sizes: dict
    chi: Fraction

    def size(self, v) -> int:
        return self.sizes.get(v, self.field.k)

    def classes(self):
        """[(minimal polynomial over F_p as an int tuple, constant first, or
        None at infinity; class size; mu)] over the postcritical classes:
        finite classes by (degree, coefficients), infinity last."""
        rows = [(class_min_poly(self.field, v), self.size(v), self.mu[v]) for v in self.postcritical]
        return sorted(rows, key=lambda row: (row[0] is None, len(row[0] or ()), row[0] or ()))


def _mu_counts(mu_map: dict, size) -> dict:
    """mu -> number of points, over the classes of mu_map with their sizes."""
    counts = {}
    for v, m in mu_map.items():
        counts[m] = counts.get(m, 0) + size(v)
    return counts


def euler_char(mu_map: dict, graph: OrbitGraph) -> Fraction:
    """chi = 2 - sum over the postcritical classes, the keys of mu_map, of
    size (1 - 1/mu), exactly."""
    chi = Fraction(2)
    for m, n in _mu_counts(mu_map, graph.size).items():
        chi -= n if m == MU_INFINITY else n * Fraction(m - 1, m)
    return chi


def orbifold_data(graph: OrbitGraph, mu_map: dict | None = None) -> OrbifoldData:
    if mu_map is None:
        mu_map = mu_compute(graph)
    return OrbifoldData(
        field=graph.field,
        postcritical=tuple(v for v in graph.vertices if v in mu_map),
        mu=mu_map,
        sizes={v: s for v, s in graph.sizes.items() if v in mu_map},
        chi=euler_char(mu_map, graph),
    )


@dataclass(frozen=True)
class SignatureResult:
    """counts: ((mu, number of postcritical points), ...), finite mu
    ascending and inf last."""

    counts: tuple
    parabolic: bool

    @property
    def signature(self):
        """The multiset of mu values as a sorted tuple, one entry per point."""
        return tuple(m for m, n in self.counts for _ in range(n))


def parabolic_signature(data: OrbifoldData) -> SignatureResult:
    """The multiset of mu values, each class's mu counted once per point,
    and whether the orbifold is parabolic (chi = 0)."""
    counts = _mu_counts(data.mu, data.size)
    res = SignatureResult(
        counts=tuple(sorted(counts.items(), key=lambda item: (item[0] == MU_INFINITY, item[0]))),
        parabolic=data.chi == 0,
    )
    if res.parabolic and res.signature not in PARABOLIC_SIGNATURES:
        raise RuntimeError(f"chi = 0 with impossible signature {res.signature} (internal)")
    return res


@dataclass(frozen=True)
class KummerCover:
    cover_degree: int
    genus: int


def kummer_genus(omega) -> KummerCover:
    """Degree and genus of the cyclic cover of P^1 given by adjoining
    f^(1/weight) for a TupleForm omega = f (dt)^weight.

    The divisor of f is read off the factorizations of numerator and
    denominator (conjugate points share one order, so only factor degrees
    matter) plus the order deg den - deg num at infinity.  Constants are
    treated as having roots of every order, so the cover degree is
    weight / gcd(weight, gcd of all orders); ramification over a point of
    order n is n / gcd(n, order), and the genus follows from
    Riemann-Hurwitz over P^1.
    """
    nu = omega.weight
    if nu < 1:
        raise BadWeight("kummer_genus needs a positive weight")
    field = omega.field
    if field.is_rationals:
        raise FieldMismatch("kummer_genus works over finite fields")
    if nu % field.p == 0:
        raise WeightDivisibleByP(f"weight {nu} divisible by p = {field.p}")
    if omega.is_zero:
        raise ValueError("kummer_genus of the zero form")
    f = omega.func
    orders = []  # (number of points, common order)
    for g, m in poly_factor(f.num):
        orders.append((g.degree, m))
    for g, m in poly_factor(f.den):
        orders.append((g.degree, -m))
    orders.append((1, f.den.degree - f.num.degree))  # at infinity; order 0 adds nothing
    g0 = 0
    for _, o in orders:
        g0 = math.gcd(g0, o)
    estar = math.gcd(nu, g0)
    n = nu // estar
    ram = 0
    for count, o in orders:
        ram += count * (n - math.gcd(n, o // estar))
    two_g_minus_2 = -2 * n + ram
    if two_g_minus_2 % 2:
        raise RuntimeError("odd Riemann-Hurwitz total (internal)")
    genus = (two_g_minus_2 + 2) // 2
    if genus < 0:
        raise RuntimeError("negative genus (internal)")
    return KummerCover(cover_degree=n, genus=genus)
